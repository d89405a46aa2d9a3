#pragma once
// Aggregator-side membership table (Figure 3 state).
//
// Home members register once ("a stationary device undergoes a single
// registration process in its lifetime"); roaming devices get temporary
// memberships that carry their master address so collected data can be
// routed home.  The home aggregator also tracks which of its members are
// currently away and through which host ("the home network retains the
// membership of the device at all times", §II-C).

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/records.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "store/sequence_dedup.hpp"
#include "store/tsdb.hpp"
#include "util/contracts.hpp"

namespace emon::core {

struct MemberEntry {
  DeviceId device_id;
  MembershipKind kind = MembershipKind::kHome;
  /// For temporary members: the device's home aggregator address.
  std::string master_addr;
  /// TDMA slot granted to the member.
  std::size_t slot = 0;
  /// Last time a report was accepted from this member.
  sim::SimTime last_seen{};
  /// For home members currently roaming: the aggregator hosting them
  /// (empty when at home).
  std::string roaming_host;
  /// Record sequences already accepted (duplicate suppression across
  /// QoS-1 retransmissions and probe/backlog overlaps), over the shared
  /// bounded window of store/sequence_dedup.hpp.
  store::SequenceDedup seen_sequences;
  /// Highest record sequence accepted (reported back in Acks).
  std::uint64_t last_sequence = 0;
  /// The member's `reported.<agg>.<id>` and `arrival.<agg>.<id>` series in
  /// its aggregator's trace and its series in the aggregator's Tsdb, all
  /// resolved on the first accepted record.
  sim::Trace::SeriesRef reported_series;
  sim::Trace::SeriesRef arrival_series;
  store::Tsdb::Writer tsdb_writer;
};

class MembershipTable {
 public:
  /// Adds a home member.  Fails (nullopt) if already present.
  std::optional<MemberEntry*> add_home(const DeviceId& id, std::size_t slot,
                                       sim::SimTime now);

  /// Adds a temporary member with its master address.
  std::optional<MemberEntry*> add_temporary(const DeviceId& id,
                                            const std::string& master_addr,
                                            std::size_t slot, sim::SimTime now);

  /// Removes a member of any kind.  Returns the removed entry.
  std::optional<MemberEntry> remove(const DeviceId& id);

  [[nodiscard]] const MemberEntry* find(const DeviceId& id) const;
  [[nodiscard]] MemberEntry* find(const DeviceId& id);
  [[nodiscard]] bool has(const DeviceId& id) const { return find(id) != nullptr; }

  [[nodiscard]] std::size_t size() const noexcept { return by_device_.size(); }
  /// Every member, in device-id order.  EMON_ORDER_INSENSITIVE: it walks
  /// the hashed table but sorts what it collected before returning.
  [[nodiscard]] std::vector<const MemberEntry*> all() const
      EMON_ORDER_INSENSITIVE;
  /// Temporary members, in device-id order.
  [[nodiscard]] std::vector<const MemberEntry*> temporaries() const;

  /// Temporary members with last_seen older than `cutoff` (expiry sweep),
  /// in device-id order.
  [[nodiscard]] std::vector<DeviceId> stale_temporaries(
      sim::SimTime cutoff) const;

 private:
  std::optional<MemberEntry*> add(const DeviceId& id, MembershipKind kind,
                                  const std::string& master_addr,
                                  std::size_t slot, sim::SimTime now);

  /// Hashed: one lookup per report.  Nodes are address-stable, so a
  /// MemberEntry* stays valid until its member is removed; the listing
  /// accessors above sort, so hash order never escapes.
  std::unordered_map<DeviceId, MemberEntry> by_device_;
};

}  // namespace emon::core
