#pragma once
// Application-layer protocol message bodies (Figure 3 of the paper).
//
// These structs and their payload codecs are the *bodies* of protocol
// frames; the framing itself — versioned envelope, MsgType discriminator,
// topic map — lives in core/protocol.hpp.  Every message below travels
// inside an envelope, device<->aggregator over MQTT and aggregator<->
// aggregator over the backhaul, through the net::Transport interface.
//
// The per-type encode()/decode_*() functions operate on raw payload bytes
// (no header); prefer protocol::seal()/protocol::decode_any() unless you
// are the codec layer or its tests.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/records.hpp"

namespace emon::core {

// -- Device -> aggregator -----------------------------------------------------

/// Membership registration request (Figure 3, sequences 1 and 2).
/// `master_addr` is empty for an initial (home) registration — the "NULL"
/// of the paper — and carries the home aggregator's address when a roaming
/// device requests temporary membership.
struct RegisterRequest {
  DeviceId device_id;
  std::string master_addr;
};

/// A consumption report: current measurement plus any locally stored
/// backlog ("The combination of stored data and the measurement are
/// transmitted to the aggregator in the next transmission", §II-C).
/// Every record names `device_id`; decode_report rejects one that does not.
struct Report {
  DeviceId device_id;
  std::vector<ConsumptionRecord> records;
};

// -- Aggregator -> device -----------------------------------------------------

enum class CtrlType : std::uint8_t {
  kRegisterAccept = 0,   // carries assigned master/temp address + slot
  kRegisterReject = 1,   // e.g. no free time-slot
  kReportAck = 2,        // Ack of Figure 3
  kReportNack = 3,       // Nack: no membership here
  kMembershipRemoved = 4,  // sequence 3: device deregistered
};

[[nodiscard]] const char* to_string(CtrlType t) noexcept;

struct CtrlMessage {
  CtrlType type = CtrlType::kReportAck;
  DeviceId device_id;
  /// For kRegisterAccept: the network address the device should treat as
  /// its reporting address (Master or Temp per Figure 3).
  std::string assigned_addr;
  /// For kRegisterAccept: whether this is home or temporary membership.
  MembershipKind membership = MembershipKind::kHome;
  /// For kRegisterAccept: TDMA slot index.
  std::uint32_t slot = 0;
  /// For acks: highest record sequence accepted.
  std::uint64_t ack_sequence = 0;
  /// Free-form reason for rejects.
  std::string reason;
};

/// Time-sync beacon payload.
struct Beacon {
  std::string aggregator_id;
  std::int64_t master_time_ns = 0;
};

// -- Serialization (envelope payloads) -----------------------------------------

[[nodiscard]] std::vector<std::uint8_t> encode(const RegisterRequest& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const Report& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const CtrlMessage& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const Beacon& m);

[[nodiscard]] RegisterRequest decode_register_request(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] Report decode_report(std::span<const std::uint8_t> bytes);
[[nodiscard]] CtrlMessage decode_ctrl(std::span<const std::uint8_t> bytes);
[[nodiscard]] Beacon decode_beacon(std::span<const std::uint8_t> bytes);

// -- Backhaul payloads ----------------------------------------------------------

/// verify_device: does `master` know `device_id` as a home member?
struct VerifyDeviceQuery {
  DeviceId device_id;
  std::string origin;  // aggregator asking
};
struct VerifyDeviceResponse {
  DeviceId device_id;
  bool known = false;
  std::string master;  // responder id
};
/// roam_records: records collected for a device under temporary membership,
/// forwarded to its master for billing.  Every record names `device_id`;
/// decode_roam_records rejects one that does not.
struct RoamRecords {
  DeviceId device_id;
  std::string collector;  // temporary aggregator
  std::vector<ConsumptionRecord> records;
};
/// transfer_membership: home aggregator hands the device to a new master.
struct TransferMembership {
  DeviceId device_id;
  std::string new_master;
};
/// remove_device: membership removal notice (loss/reset/ownership change).
struct RemoveDevice {
  DeviceId device_id;
  std::string reason;
};

[[nodiscard]] std::vector<std::uint8_t> encode(const VerifyDeviceQuery& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const VerifyDeviceResponse& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const RoamRecords& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const TransferMembership& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const RemoveDevice& m);

[[nodiscard]] VerifyDeviceQuery decode_verify_query(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] VerifyDeviceResponse decode_verify_response(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] RoamRecords decode_roam_records(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] TransferMembership decode_transfer(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] RemoveDevice decode_remove(
    std::span<const std::uint8_t> bytes);

// -- Live subscription payloads (dashboard push path) --------------------------
//
// A client registers a QuerySpec-shaped subscription; the aggregator's
// rollup engine maintains the window and pushes one RollupPush per closed
// window.  Doubles travel as IEEE-754 bit patterns (util::ByteWriter::f64),
// so a decoded push reproduces the aggregator's cold-query doubles
// bit-for-bit — the differential tests compare with == on doubles.

/// Wire form of one window aggregate, field for field the store's
/// DeviceAggregate.
struct WireAggregate {
  std::uint64_t count = 0;
  std::int64_t t_min_ns = 0;
  std::int64_t t_max_ns = 0;
  double min_current_ma = 0.0;
  double max_current_ma = 0.0;
  double avg_current_ma = 0.0;
  double sum_energy_mwh = 0.0;

  friend bool operator==(const WireAggregate&, const WireAggregate&) = default;
};

/// Wire form of one per-network usage subtotal.
struct WireNetworkUsage {
  NetworkId network;
  std::uint64_t records = 0;
  double energy_mwh = 0.0;

  friend bool operator==(const WireNetworkUsage&,
                         const WireNetworkUsage&) = default;
};

/// subscribe: register a live window over a device set (empty = the whole
/// fleet) with an optional record filter.  `client_id` names the push topic
/// (emon/push/<client_id>); `subscription_id` is the client-chosen handle
/// echoed in the ack and every push.
struct SubscribeRequest {
  std::string client_id;
  std::uint64_t subscription_id = 0;
  std::vector<DeviceId> devices;
  std::int64_t window_ns = 0;
  std::int64_t slide_ns = 0;
  std::int64_t lateness_ns = 0;
  /// Optional RecordFilter fields (each flagged on the wire).
  std::optional<NetworkId> network;
  std::optional<bool> stored_offline;
  /// Include per-device rows in each push (off = merged + breakdown only,
  /// bounding push size on large fleets).
  bool include_per_device = false;

  friend bool operator==(const SubscribeRequest&,
                         const SubscribeRequest&) = default;
};

/// subscribe_ack: accept (with the anchor the window grid was pinned to) or
/// reject (with a reason).
struct SubscribeAck {
  std::uint64_t subscription_id = 0;
  bool accepted = false;
  std::int64_t anchor_ns = 0;
  std::string reason;

  friend bool operator==(const SubscribeAck&, const SubscribeAck&) = default;
};

/// push: one closed window [t0, t1) — fleet merge, per-network breakdown,
/// and (when subscribed with include_per_device) the per-device rows sorted
/// by device id.
struct RollupPush {
  std::uint64_t subscription_id = 0;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  /// Devices that contributed to `merged` (also sent when per-device rows
  /// are omitted).
  std::uint64_t device_count = 0;
  WireAggregate merged;
  std::vector<WireNetworkUsage> breakdown;
  struct DeviceRow {
    DeviceId device;
    WireAggregate aggregate;
    friend bool operator==(const DeviceRow&, const DeviceRow&) = default;
  };
  std::vector<DeviceRow> per_device;

  friend bool operator==(const RollupPush&, const RollupPush&) = default;
};

/// unsubscribe: drop one subscription of `client_id`.
struct Unsubscribe {
  std::uint64_t subscription_id = 0;
  std::string client_id;

  friend bool operator==(const Unsubscribe&, const Unsubscribe&) = default;
};

// -- Metrics scrape (client <-> aggregator, MQTT admin) -----------------------

/// stats_request: ask an aggregator for a point-in-time metrics snapshot.
/// Published on emon/metrics; the response arrives on the client's push
/// topic (emon/push/<client_id>).  `request_id` is echoed verbatim so a
/// client can match responses to in-flight scrapes.
struct StatsRequest {
  std::string client_id;
  std::uint64_t request_id = 0;

  friend bool operator==(const StatsRequest&, const StatsRequest&) = default;
};

/// One folded counter in a StatsResponse.
struct WireCounter {
  std::string name;
  std::uint64_t value = 0;

  friend bool operator==(const WireCounter&, const WireCounter&) = default;
};

/// One gauge in a StatsResponse.
struct WireGauge {
  std::string name;
  std::int64_t value = 0;

  friend bool operator==(const WireGauge&, const WireGauge&) = default;
};

/// One folded histogram in a StatsResponse (obs::HistogramSummary shape).
struct WireHistogram {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;

  friend bool operator==(const WireHistogram&, const WireHistogram&) = default;
};

/// stats_response: the aggregator's MetricsSnapshot, instruments in sorted
/// name order (the snapshot's deterministic fold order).
struct StatsResponse {
  std::uint64_t request_id = 0;
  std::string aggregator_id;
  std::int64_t sim_now_ns = 0;
  std::vector<WireCounter> counters;
  std::vector<WireGauge> gauges;
  std::vector<WireHistogram> histograms;

  friend bool operator==(const StatsResponse&, const StatsResponse&) = default;
};

[[nodiscard]] std::vector<std::uint8_t> encode(const SubscribeRequest& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const SubscribeAck& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const RollupPush& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const Unsubscribe& m);

[[nodiscard]] SubscribeRequest decode_subscribe_request(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] SubscribeAck decode_subscribe_ack(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] RollupPush decode_rollup_push(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] Unsubscribe decode_unsubscribe(
    std::span<const std::uint8_t> bytes);

[[nodiscard]] std::vector<std::uint8_t> encode(const StatsRequest& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const StatsResponse& m);

[[nodiscard]] StatsRequest decode_stats_request(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] StatsResponse decode_stats_response(
    std::span<const std::uint8_t> bytes);

}  // namespace emon::core
