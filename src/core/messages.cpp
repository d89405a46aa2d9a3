#include "core/messages.hpp"

#include "util/bytes.hpp"

namespace emon::core {

namespace {
/// A report or roam batch speaks for one device: a record naming another
/// would be stored, chained and billed as that device's consumption.
void require_own_records(const DeviceId& device,
                         const std::vector<ConsumptionRecord>& records,
                         const char* what) {
  for (const auto& record : records) {
    if (record.device_id != device) {
      throw util::DecodeError(std::string(what) + " for " + device +
                              " carries a record of " + record.device_id);
    }
  }
}
}  // namespace

const char* to_string(CtrlType t) noexcept {
  switch (t) {
    case CtrlType::kRegisterAccept:
      return "register-accept";
    case CtrlType::kRegisterReject:
      return "register-reject";
    case CtrlType::kReportAck:
      return "report-ack";
    case CtrlType::kReportNack:
      return "report-nack";
    case CtrlType::kMembershipRemoved:
      return "membership-removed";
  }
  return "?";
}

std::vector<std::uint8_t> encode(const RegisterRequest& m) {
  util::ByteWriter w;
  w.str(m.device_id);
  w.str(m.master_addr);
  return w.take();
}

RegisterRequest decode_register_request(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  RegisterRequest m;
  m.device_id = r.str();
  m.master_addr = r.str();
  return m;
}

std::vector<std::uint8_t> encode(const Report& m) {
  util::ByteWriter w;
  w.str(m.device_id);
  const auto records = serialize_records(m.records);
  w.u32(static_cast<std::uint32_t>(records.size()));
  w.raw(std::span<const std::uint8_t>(records.data(), records.size()));
  return w.take();
}

Report decode_report(std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  Report m;
  m.device_id = r.str();
  const std::uint32_t len = r.u32();
  m.records = deserialize_records(r.raw(len));
  require_own_records(m.device_id, m.records, "report");
  return m;
}

std::vector<std::uint8_t> encode(const CtrlMessage& m) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(m.type));
  w.str(m.device_id);
  w.str(m.assigned_addr);
  w.u8(static_cast<std::uint8_t>(m.membership));
  w.u32(m.slot);
  w.u64(m.ack_sequence);
  w.str(m.reason);
  return w.take();
}

CtrlMessage decode_ctrl(std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  CtrlMessage m;
  const std::uint8_t type = r.u8();
  if (type > static_cast<std::uint8_t>(CtrlType::kMembershipRemoved)) {
    throw util::DecodeError("bad ctrl type " + std::to_string(type));
  }
  m.type = static_cast<CtrlType>(type);
  m.device_id = r.str();
  m.assigned_addr = r.str();
  m.membership = static_cast<MembershipKind>(r.u8() & 1);
  m.slot = r.u32();
  m.ack_sequence = r.u64();
  m.reason = r.str();
  return m;
}

std::vector<std::uint8_t> encode(const Beacon& m) {
  util::ByteWriter w;
  w.str(m.aggregator_id);
  w.i64(m.master_time_ns);
  return w.take();
}

Beacon decode_beacon(std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  Beacon m;
  m.aggregator_id = r.str();
  m.master_time_ns = r.i64();
  return m;
}

std::vector<std::uint8_t> encode(const VerifyDeviceQuery& m) {
  util::ByteWriter w;
  w.str(m.device_id);
  w.str(m.origin);
  return w.take();
}

VerifyDeviceQuery decode_verify_query(std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  VerifyDeviceQuery m;
  m.device_id = r.str();
  m.origin = r.str();
  return m;
}

std::vector<std::uint8_t> encode(const VerifyDeviceResponse& m) {
  util::ByteWriter w;
  w.str(m.device_id);
  w.u8(m.known ? 1 : 0);
  w.str(m.master);
  return w.take();
}

VerifyDeviceResponse decode_verify_response(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  VerifyDeviceResponse m;
  m.device_id = r.str();
  m.known = r.u8() != 0;
  m.master = r.str();
  return m;
}

std::vector<std::uint8_t> encode(const RoamRecords& m) {
  util::ByteWriter w;
  w.str(m.device_id);
  w.str(m.collector);
  const auto records = serialize_records(m.records);
  w.u32(static_cast<std::uint32_t>(records.size()));
  w.raw(std::span<const std::uint8_t>(records.data(), records.size()));
  return w.take();
}

RoamRecords decode_roam_records(std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  RoamRecords m;
  m.device_id = r.str();
  m.collector = r.str();
  const std::uint32_t len = r.u32();
  m.records = deserialize_records(r.raw(len));
  require_own_records(m.device_id, m.records, "roam records");
  return m;
}

std::vector<std::uint8_t> encode(const TransferMembership& m) {
  util::ByteWriter w;
  w.str(m.device_id);
  w.str(m.new_master);
  return w.take();
}

TransferMembership decode_transfer(std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  TransferMembership m;
  m.device_id = r.str();
  m.new_master = r.str();
  return m;
}

std::vector<std::uint8_t> encode(const RemoveDevice& m) {
  util::ByteWriter w;
  w.str(m.device_id);
  w.str(m.reason);
  return w.take();
}

RemoveDevice decode_remove(std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  RemoveDevice m;
  m.device_id = r.str();
  m.reason = r.str();
  return m;
}

namespace {

/// Strict boolean byte: anything but 0/1 is a malformed frame, not a silent
/// truthy value (subscription frames come from arbitrary clients).
bool read_flag(util::ByteReader& r, const char* what) {
  const std::uint8_t v = r.u8();
  if (v > 1) {
    throw util::DecodeError(std::string("bad flag byte for ") + what);
  }
  return v != 0;
}

void write_aggregate(util::ByteWriter& w, const WireAggregate& a) {
  w.u64(a.count);
  w.i64(a.t_min_ns);
  w.i64(a.t_max_ns);
  w.f64(a.min_current_ma);
  w.f64(a.max_current_ma);
  w.f64(a.avg_current_ma);
  w.f64(a.sum_energy_mwh);
}

WireAggregate read_aggregate(util::ByteReader& r) {
  WireAggregate a;
  a.count = r.u64();
  a.t_min_ns = r.i64();
  a.t_max_ns = r.i64();
  a.min_current_ma = r.f64();
  a.max_current_ma = r.f64();
  a.avg_current_ma = r.f64();
  a.sum_energy_mwh = r.f64();
  return a;
}

}  // namespace

std::vector<std::uint8_t> encode(const SubscribeRequest& m) {
  util::ByteWriter w;
  w.str(m.client_id);
  w.u64(m.subscription_id);
  w.u32(static_cast<std::uint32_t>(m.devices.size()));
  for (const auto& id : m.devices) {
    w.str(id);
  }
  w.i64(m.window_ns);
  w.i64(m.slide_ns);
  w.i64(m.lateness_ns);
  w.u8(m.network ? 1 : 0);
  w.str(m.network ? *m.network : NetworkId{});
  w.u8(m.stored_offline ? 1 : 0);
  w.u8(m.stored_offline && *m.stored_offline ? 1 : 0);
  w.u8(m.include_per_device ? 1 : 0);
  return w.take();
}

SubscribeRequest decode_subscribe_request(std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  SubscribeRequest m;
  m.client_id = r.str();
  m.subscription_id = r.u64();
  const std::uint32_t n_devices = r.u32();
  m.devices.reserve(std::min<std::uint32_t>(n_devices, 1024));
  for (std::uint32_t i = 0; i < n_devices; ++i) {
    m.devices.push_back(r.str());
  }
  m.window_ns = r.i64();
  m.slide_ns = r.i64();
  m.lateness_ns = r.i64();
  const bool has_network = read_flag(r, "network");
  NetworkId network = r.str();
  if (has_network) {
    m.network = std::move(network);
  }
  const bool has_offline = read_flag(r, "stored_offline");
  const bool offline = read_flag(r, "stored_offline value");
  if (has_offline) {
    m.stored_offline = offline;
  }
  m.include_per_device = read_flag(r, "include_per_device");
  return m;
}

std::vector<std::uint8_t> encode(const SubscribeAck& m) {
  util::ByteWriter w;
  w.u64(m.subscription_id);
  w.u8(m.accepted ? 1 : 0);
  w.i64(m.anchor_ns);
  w.str(m.reason);
  return w.take();
}

SubscribeAck decode_subscribe_ack(std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  SubscribeAck m;
  m.subscription_id = r.u64();
  m.accepted = read_flag(r, "accepted");
  m.anchor_ns = r.i64();
  m.reason = r.str();
  return m;
}

std::vector<std::uint8_t> encode(const RollupPush& m) {
  util::ByteWriter w;
  w.u64(m.subscription_id);
  w.i64(m.t0_ns);
  w.i64(m.t1_ns);
  w.u64(m.device_count);
  write_aggregate(w, m.merged);
  w.u32(static_cast<std::uint32_t>(m.breakdown.size()));
  for (const auto& usage : m.breakdown) {
    w.str(usage.network);
    w.u64(usage.records);
    w.f64(usage.energy_mwh);
  }
  w.u32(static_cast<std::uint32_t>(m.per_device.size()));
  for (const auto& row : m.per_device) {
    w.str(row.device);
    write_aggregate(w, row.aggregate);
  }
  return w.take();
}

RollupPush decode_rollup_push(std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  RollupPush m;
  m.subscription_id = r.u64();
  m.t0_ns = r.i64();
  m.t1_ns = r.i64();
  m.device_count = r.u64();
  m.merged = read_aggregate(r);
  const std::uint32_t n_networks = r.u32();
  m.breakdown.reserve(std::min<std::uint32_t>(n_networks, 1024));
  for (std::uint32_t i = 0; i < n_networks; ++i) {
    WireNetworkUsage usage;
    usage.network = r.str();
    usage.records = r.u64();
    usage.energy_mwh = r.f64();
    m.breakdown.push_back(std::move(usage));
  }
  const std::uint32_t n_devices = r.u32();
  m.per_device.reserve(std::min<std::uint32_t>(n_devices, 1024));
  for (std::uint32_t i = 0; i < n_devices; ++i) {
    RollupPush::DeviceRow row;
    row.device = r.str();
    row.aggregate = read_aggregate(r);
    m.per_device.push_back(std::move(row));
  }
  return m;
}

std::vector<std::uint8_t> encode(const Unsubscribe& m) {
  util::ByteWriter w;
  w.u64(m.subscription_id);
  w.str(m.client_id);
  return w.take();
}

Unsubscribe decode_unsubscribe(std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  Unsubscribe m;
  m.subscription_id = r.u64();
  m.client_id = r.str();
  return m;
}

namespace {

std::uint64_t read_varint(util::ByteReader& r, const char* what) {
  const auto v = r.try_varint();
  if (!v) {
    throw util::DecodeError(std::string("truncated varint for ") + what);
  }
  return *v;
}

std::int64_t read_zigzag(util::ByteReader& r, const char* what) {
  const auto v = r.try_zigzag();
  if (!v) {
    throw util::DecodeError(std::string("truncated zigzag for ") + what);
  }
  return *v;
}

}  // namespace

std::vector<std::uint8_t> encode(const StatsRequest& m) {
  util::ByteWriter w;
  w.str(m.client_id);
  w.u64(m.request_id);
  return w.take();
}

StatsRequest decode_stats_request(std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  StatsRequest m;
  m.client_id = r.str();
  m.request_id = r.u64();
  return m;
}

std::vector<std::uint8_t> encode(const StatsResponse& m) {
  util::ByteWriter w;
  w.u64(m.request_id);
  w.str(m.aggregator_id);
  w.i64(m.sim_now_ns);
  w.u32(static_cast<std::uint32_t>(m.counters.size()));
  for (const auto& c : m.counters) {
    w.str(c.name);
    w.varint(c.value);
  }
  w.u32(static_cast<std::uint32_t>(m.gauges.size()));
  for (const auto& g : m.gauges) {
    w.str(g.name);
    w.zigzag(g.value);
  }
  w.u32(static_cast<std::uint32_t>(m.histograms.size()));
  for (const auto& h : m.histograms) {
    w.str(h.name);
    w.varint(h.count);
    w.varint(h.sum);
    w.varint(h.min);
    w.varint(h.max);
    w.varint(h.p50);
    w.varint(h.p95);
    w.varint(h.p99);
  }
  return w.take();
}

StatsResponse decode_stats_response(std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  StatsResponse m;
  m.request_id = r.u64();
  m.aggregator_id = r.str();
  m.sim_now_ns = r.i64();
  const std::uint32_t n_counters = r.u32();
  m.counters.reserve(std::min<std::uint32_t>(n_counters, 4096));
  for (std::uint32_t i = 0; i < n_counters; ++i) {
    WireCounter c;
    c.name = r.str();
    c.value = read_varint(r, "counter value");
    m.counters.push_back(std::move(c));
  }
  const std::uint32_t n_gauges = r.u32();
  m.gauges.reserve(std::min<std::uint32_t>(n_gauges, 4096));
  for (std::uint32_t i = 0; i < n_gauges; ++i) {
    WireGauge g;
    g.name = r.str();
    g.value = read_zigzag(r, "gauge value");
    m.gauges.push_back(std::move(g));
  }
  const std::uint32_t n_hists = r.u32();
  m.histograms.reserve(std::min<std::uint32_t>(n_hists, 4096));
  for (std::uint32_t i = 0; i < n_hists; ++i) {
    WireHistogram h;
    h.name = r.str();
    h.count = read_varint(r, "histogram count");
    h.sum = read_varint(r, "histogram sum");
    h.min = read_varint(r, "histogram min");
    h.max = read_varint(r, "histogram max");
    h.p50 = read_varint(r, "histogram p50");
    h.p95 = read_varint(r, "histogram p95");
    h.p99 = read_varint(r, "histogram p99");
    m.histograms.push_back(std::move(h));
  }
  return m;
}

}  // namespace emon::core
