#include "ledger.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "chain/block.hpp"
#include "chain/merkle.hpp"
#include "chain/permissioned.hpp"
#include "common.hpp"
#include "core/membership.hpp"
#include "core/protocol.hpp"
#include "core/records.hpp"
#include "net/channel.hpp"
#include "net/mqtt.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "store/rollup.hpp"
#include "store/tsdb.hpp"
#include "util/alloc_probe.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using emon::util::AllocProbe;

double per(double total, std::size_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

/// Parks `pending` events far in the future, so a replay's schedule/step
/// pairs run against a heap as deep as the run's.
void park_events(emon::sim::Kernel& kernel, std::size_t pending) {
  using namespace emon::sim;
  for (std::size_t i = 0; i < pending; ++i) {
    kernel.schedule_at(SimTime{} + hours(1000) + nanoseconds(std::int64_t(i)),
                       [] {});
  }
}

/// Kernel::schedule_in + step (every step pops the fresh event).
double replay_kernel(std::size_t events, std::size_t pending) {
  using namespace emon::sim;
  Kernel kernel;
  park_events(kernel, pending);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < events; ++i) {
    kernel.schedule_in(nanoseconds(1000 + 100 * std::int64_t(i % 7)), [] {});
    kernel.step();
  }
  return per(ns_since(t0), events);
}

}  // namespace

LedgerCosts replay_ledger(const LedgerStream& stream) {
  namespace core = emon::core;
  namespace store = emon::store;
  using emon::sim::Kernel;
  LedgerCosts c;
  const std::size_t n_records = stream.records;
  const std::size_t n_reports = stream.reports.size();

  // -- sim.kernel --------------------------------------------------------------
  c.kernel_ns_per_event = replay_kernel(n_records, stream.kernel_pending);

  // -- core.protocol: seal + decode_any ---------------------------------------
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(n_reports);
  std::size_t wire_bytes = 0;
  AllocProbe::arm();
  auto t0 = Clock::now();
  for (const auto& report : stream.reports) {
    frames.push_back(core::protocol::seal(report));
  }
  double seal_ns = ns_since(t0);
  std::uint64_t allocs = AllocProbe::disarm();
  frames.shrink_to_fit();
  for (const auto& f : frames) {
    wire_bytes += f.size();
  }
  std::size_t decoded_records = 0;
  AllocProbe::arm();
  t0 = Clock::now();
  for (const auto& f : frames) {
    auto msg = core::protocol::decode_any(f);
    if (msg) {
      decoded_records += std::get<core::Report>(msg.value()).records.size();
    }
  }
  const double decode_ns = ns_since(t0);
  allocs += AllocProbe::disarm();
  c.seal_ns_per_record = per(seal_ns, n_records);
  c.decode_ns_per_record = per(decode_ns, decoded_records);
  c.wire_bytes_per_record = per(double(wire_bytes), n_records);
  c.protocol_allocs_per_record = per(double(allocs), n_records);

  // -- net.channel: send + delivery step, minus the kernel event ------------
  {
    Kernel kernel;
    park_events(kernel, stream.kernel_pending);
    emon::net::ChannelParams params;
    params.loss_probability = 0.0;
    emon::net::Channel channel{kernel, params, emon::util::Rng{stream.seed}};
    std::uint64_t delivered = 0;
    AllocProbe::arm();
    t0 = Clock::now();
    for (const auto& f : frames) {
      channel.send(f.size(), [&delivered](std::uint64_t) { ++delivered; });
      kernel.step();
    }
    const double ns = ns_since(t0);
    c.channel_allocs_per_frame = per(double(AllocProbe::disarm()), n_reports);
    c.channel_ns_per_frame =
        std::max(0.0, per(ns, n_reports) - c.kernel_ns_per_event);
  }

  // -- net.mqtt: host publish to the aggregator's local subscriptions ---------
  {
    Kernel kernel;
    emon::net::MqttBroker broker{kernel, "agg-1"};
    std::uint64_t handled = 0;
    const auto noop = [&handled](const emon::net::MqttMessage&) { ++handled; };
    for (const auto filter :
         {core::protocol::kFilterRegister, core::protocol::kFilterReport,
          core::protocol::kTopicSubscribe, core::protocol::kTopicMetrics}) {
      broker.subscribe_local(std::string(filter), noop);
    }
    std::vector<emon::net::MqttMessage> messages;
    messages.reserve(n_reports);
    for (std::size_t i = 0; i < n_reports; ++i) {
      messages.push_back(emon::net::MqttMessage{
          core::protocol::topic_report(stream.reports[i].device_id), frames[i],
          1, ""});
    }
    AllocProbe::arm();
    t0 = Clock::now();
    for (auto& m : messages) {
      broker.publish_from_host(std::move(m));
    }
    const double ns = ns_since(t0);
    c.mqtt_allocs_per_msg = per(double(AllocProbe::disarm()), n_reports);
    c.mqtt_ns_per_msg = per(ns, n_reports);
  }

  // -- core.aggregator: membership lookup per report --------------------------
  {
    core::MembershipTable table;
    std::size_t slot = 0;
    for (const auto& report : stream.reports) {
      if (!table.has(report.device_id)) {
        (void)table.add_home(report.device_id, slot++, emon::sim::SimTime{});
      }
    }
    std::size_t found = 0;
    t0 = Clock::now();
    for (const auto& report : stream.reports) {
      found += table.find(report.device_id) != nullptr ? 1 : 0;
    }
    c.membership_find_ns = per(ns_since(t0), found);
  }

  // -- store.tsdb: ingest without a hook --------------------------------------
  double plain_ns = 0.0;
  {
    store::Tsdb db{stream.tsdb};
    AllocProbe::arm();
    t0 = Clock::now();
    for (const auto& report : stream.reports) {
      for (const auto& r : report.records) {
        db.ingest(r);
      }
    }
    plain_ns = ns_since(t0);
    c.tsdb_allocs_per_record = per(double(AllocProbe::disarm()), n_records);
    c.tsdb_ns_per_record = per(plain_ns, n_records);
    c.tsdb_sealed_bytes_per_record =
        per(double(db.stats().sealed_bytes), n_records);
  }

  // -- store.rollup: the aggregator's two maintained rollups as ingest hook ---
  {
    store::Tsdb db{stream.tsdb};
    store::RollupEngine engine{db};
    store::RollupSpec live;
    live.window_ns = 2'000'000'000;
    live.slide_ns = live.window_ns;
    live.lateness_ns = 2'000'000'000;
    live.filter.stored_offline = false;
    store::RollupSpec all = live;
    all.filter = {};
    const std::uint64_t ids[] = {engine.register_rollup(live),
                                 engine.register_rollup(all)};
    db.set_ingest_hook(&engine);
    double hooked_ns = 0.0;
    double drain_ns = 0.0;
    std::size_t windows = 0;
    std::size_t since_drain = 0;
    // Drains run every ~4096 records and are timed apart from ingest.
    t0 = Clock::now();
    for (const auto& report : stream.reports) {
      for (const auto& r : report.records) {
        db.ingest(r);
      }
      since_drain += report.records.size();
      if (since_drain >= 4096) {
        since_drain = 0;
        hooked_ns += ns_since(t0);
        t0 = Clock::now();
        for (const auto id : ids) {
          windows += engine.drain(id).size();
        }
        drain_ns += ns_since(t0);
        t0 = Clock::now();
      }
    }
    hooked_ns += ns_since(t0);
    db.set_ingest_hook(nullptr);
    c.rollup_hook_ns_per_record =
        std::max(0.0, per(hooked_ns - plain_ns, n_records));
    c.rollup_drain_ns_per_window = per(drain_ns, windows);
  }

  // -- sim.trace: the aggregator's two series appends per record --------------
  {
    emon::sim::Trace trace;
    std::vector<std::pair<std::string, std::string>> names;
    names.reserve(n_reports);
    for (const auto& report : stream.reports) {
      names.emplace_back("reported.agg-1." + report.device_id,
                         "arrival.agg-1." + report.device_id);
    }
    std::size_t appends = 0;
    t0 = Clock::now();
    for (std::size_t i = 0; i < n_reports; ++i) {
      for (const auto& r : stream.reports[i].records) {
        trace.append(names[i].first, emon::sim::SimTime{r.timestamp_ns},
                     r.current_ma);
        trace.append(names[i].second, emon::sim::SimTime{r.timestamp_ns},
                     r.current_ma);
        appends += 2;
      }
    }
    c.trace_ns_per_append = per(ns_since(t0), appends);
  }

  // -- chain: permissioned append (includes the Merkle root) and the Merkle
  //    root alone ---------------------------------------------------------------
  {
    const std::size_t block =
        stream.block_records > 0 ? stream.block_records : kDefaultBlockRecords;
    std::vector<std::vector<emon::chain::RecordBytes>> blocks(1);
    for (const auto& report : stream.reports) {
      for (const auto& r : report.records) {
        if (blocks.back().size() >= block) {
          blocks.emplace_back();
        }
        blocks.back().push_back(core::serialize_record(r));
      }
    }
    std::vector<std::vector<emon::chain::Digest>> leaves;
    leaves.reserve(blocks.size());
    for (const auto& b : blocks) {
      auto& l = leaves.emplace_back();
      for (const auto& bytes : b) {
        l.push_back(emon::chain::Sha256::hash(
            std::span<const std::uint8_t>(bytes.data(), bytes.size())));
      }
    }
    t0 = Clock::now();
    for (const auto& l : leaves) {
      (void)emon::chain::MerkleTree::root_of(l);
    }
    c.merkle_ns_per_record = per(ns_since(t0), n_records);

    emon::chain::PermissionedChain chain;
    chain.register_writer(emon::chain::WriterKey{"agg-1", "secret-agg-1"});
    std::int64_t ts = 0;
    t0 = Clock::now();
    for (auto& b : blocks) {
      (void)chain.append("agg-1", "secret-agg-1", std::move(b), ts);
      ts += 60'000'000'000;
    }
    c.chain_append_ns_per_record = per(ns_since(t0), n_records);
  }
  return c;
}

void add_ledger_metrics(std::map<std::string, double>& m, const LedgerCosts& c,
                        const PathCalls& k, double allocs_per_record) {
  m["sim.kernel.self_ns_per_event"] = c.kernel_ns_per_event;
  m["sim.trace.self_ns_per_append"] = c.trace_ns_per_append;
  m["protocol.seal_ns_per_record"] = c.seal_ns_per_record;
  m["protocol.decode_ns_per_record"] = c.decode_ns_per_record;
  m["protocol.wire_bytes_per_record"] = c.wire_bytes_per_record;
  m["protocol.allocs_per_record"] = c.protocol_allocs_per_record;
  m["net.channel.self_ns_per_frame"] = c.channel_ns_per_frame;
  m["net.channel.allocs_per_frame"] = c.channel_allocs_per_frame;
  m["net.mqtt.dispatch_ns_per_msg"] = c.mqtt_ns_per_msg;
  m["net.mqtt.allocs_per_msg"] = c.mqtt_allocs_per_msg;
  m["aggregator.membership_find_ns"] = c.membership_find_ns;
  m["tsdb.ingest_ns_per_record"] = c.tsdb_ns_per_record;
  m["tsdb.allocs_per_record"] = c.tsdb_allocs_per_record;
  m["tsdb.sealed_bytes_per_record"] = c.tsdb_sealed_bytes_per_record;
  m["rollup.hook_ns_per_record"] = c.rollup_hook_ns_per_record;
  m["rollup.drain_ns_per_window"] = c.rollup_drain_ns_per_window;
  m["chain.append_ns_per_record"] = c.chain_append_ns_per_record;
  m["chain.merkle_ns_per_record"] = c.merkle_ns_per_record;
  // The Merkle root is computed inside append, so only append is weighted.
  const double attributed =
      k.kernel_events * c.kernel_ns_per_event +
      k.seals * c.seal_ns_per_record + k.decodes * c.decode_ns_per_record +
      k.channel_frames * c.channel_ns_per_frame +
      k.mqtt_msgs * c.mqtt_ns_per_msg +
      k.membership_finds * c.membership_find_ns +
      k.tsdb_ingests * (c.tsdb_ns_per_record + c.rollup_hook_ns_per_record) +
      k.trace_appends * c.trace_ns_per_append +
      k.chain_records * c.chain_append_ns_per_record;
  m["path.allocs_per_record"] = allocs_per_record;
  m["path.attributed_ns_per_record"] = attributed;
}

}  // namespace perfbench
