// serve_mixed: the serving layers without the simulator.
//
// The traffic is metro_10k's steady-state report stream, taken from
// core::metro_fleet(32, 10000, seed): the spec's networks and device
// counts (devices numbered network by network, as core::Testbed numbers
// them), its metering interval (sys.device.t_measure; each device sends
// in its TDMA slot of the network's superframe) and its churn (a
// roamer_fraction share of devices visits another network as a temporary
// member for one dwell; records stamped in transit are offline-buffered).
// Every Report frame carries one record and no other record is
// offline-buffered: that is what metro_10k's aggregators accept once
// registration has settled (from 12 sim-s on, reports_accepted grows
// exactly with records_accepted and no record is stored_offline).
//
// Set-up generates the history and pre-loads it into a store::Tsdb with
// one maintained RollupEngine rollup (five times; setup_s is the median).
// The run then has one producer thread seal Report frames and push each
// through core::ServePipeline::submit_frame in a closed loop (the
// pipeline's ingest worker decodes and ingests them) while one query
// thread runs the dashboard mix for one network at a time over a trailing
// window of the live store, also in a closed loop (QueryEngine with one
// worker: three threads in all).  records_per_s is the median over rounds
// (one frame per device) of records ingested per host second.  The number
// of frames is fixed by --seconds through the workload's calibration.  The
// query thread stops when ingest ends; should it have fewer than
// kMinRefreshes refreshes by then (a host that slows it against the
// ingest worker), it tops up on the quiesced store, so the refresh p99
// always has ten samples beyond it, and says so on stderr.
//
// Records are a pure function of (seed, device, sequence), so the checks
// can rebuild any prefix of any device's history without keeping it.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/fleet.hpp"
#include "core/protocol.hpp"
#include "core/serve_pipeline.hpp"
#include "dashboard.hpp"
#include "ledger.hpp"
#include "store/query_engine.hpp"
#include "store/rollup.hpp"
#include "store/tsdb.hpp"
#include "util/alloc_probe.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = emon::core;
namespace store = emon::store;
using emon::util::AllocProbe;

constexpr std::uint64_t kPreload = 48;      // records per device pre-loaded
/// Run records per device per --seconds (reference-host calibration).
constexpr double kRunRecordsPerSecond = 32.0;
/// The replay ledger replays every 16th device's whole stream: per-device
/// depth as in the run, a sixteenth of the volume.
constexpr std::size_t kLedgerDeviceStride = 16;
const store::TsdbOptions kTsdbOptions{64, 32};
/// Dashboard refreshes a run needs for a p99 with ten samples beyond it.
constexpr std::size_t kMinRefreshes = 1000;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform in [lo, hi) from a hash.
double unit(std::uint64_t h, double lo, double hi) {
  return lo + (hi - lo) * double(h >> 11) * (1.0 / 9007199254740992.0);
}

std::string device_id(std::size_t d) { return "dev-" + std::to_string(d + 1); }
std::string network_id(std::size_t n) { return "wan-" + std::to_string(n + 1); }

/// Who reports from where, and when: the metro_fleet spec's shape.
struct Traffic {
  std::uint64_t seed = 1;
  std::size_t networks = 0;
  std::int64_t interval_ns = 0;
  std::vector<std::size_t> home;
  /// Offset of the device's TDMA slot in the superframe.
  std::vector<std::int64_t> slot_ns;
  /// A roamer's trip, in record timestamps: in transit from `depart_ns`,
  /// at `visited` from `arrive_ns` until `leave_ns`.
  struct Trip {
    std::int64_t depart_ns = 0;
    std::int64_t arrive_ns = 0;
    std::int64_t leave_ns = 0;
    std::size_t visited = 0;
  };
  std::vector<Trip> trips;  // per device; depart_ns < 0: never roams

  [[nodiscard]] std::size_t devices() const { return home.size(); }
};

Traffic metro_traffic(std::uint64_t seed) {
  const core::ScenarioSpec spec = core::metro_fleet(32, 10'000, seed);
  Traffic t;
  t.seed = seed;
  t.networks = spec.networks.size();
  t.interval_ns = spec.sys.device.t_measure.ns();
  const auto& churn = spec.churn;
  const double dwell_span_s =
      std::max(0.0, (churn.dwell_max - churn.dwell_min).to_seconds());
  for (std::size_t n = 0; n < t.networks; ++n) {
    const std::size_t count = spec.networks[n].device_count();
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t d = t.home.size();
      t.home.push_back(n);
      t.slot_ns.push_back(t.interval_ns * std::int64_t(k) /
                          std::int64_t(count));
      Traffic::Trip trip;
      trip.depart_ns = -1;
      const std::uint64_t h = mix(seed ^ mix(0xc4u + d));
      if (churn.enabled() && unit(h, 0.0, 1.0) < churn.roamer_fraction) {
        trip.depart_ns = (churn.first_departure +
                          emon::sim::seconds_f(unit(mix(h + 1), 0.0,
                                                    dwell_span_s)))
                             .ns();
        trip.arrive_ns = trip.depart_ns + churn.transit.ns();
        trip.leave_ns = trip.arrive_ns + churn.dwell_min.ns() +
                        emon::sim::seconds_f(unit(mix(h + 2), 0.0,
                                                  dwell_span_s))
                            .ns();
        trip.visited =
            (n + 1 + mix(h + 3) % (t.networks - 1)) % t.networks;
      }
      t.trips.push_back(trip);
    }
  }
  return t;
}

/// Record `seq` (1-based) of device `d`.
core::ConsumptionRecord make_record(const Traffic& t, std::size_t d,
                                    std::uint64_t seq) {
  const std::uint64_t h = mix(t.seed ^ mix(d * 0x100000001b3ULL + seq));
  core::ConsumptionRecord r;
  r.device_id = device_id(d);
  r.sequence = seq;
  r.interval_ns = t.interval_ns;
  const std::int64_t nominal = std::int64_t(seq) * t.interval_ns + t.slot_ns[d];
  r.timestamp_ns = nominal + std::int64_t(unit(mix(h + 1), -50e3, 50e3));
  r.current_ma = 150.0 + 40.0 * double(d % 7) + unit(mix(h + 2), -5.0, 5.0);
  r.bus_voltage_mv = 5000.0 + unit(mix(h + 3), -10.0, 10.0);
  r.energy_mwh = r.current_ma * 5.0 * (double(t.interval_ns) / 3.6e12);
  const Traffic::Trip& trip = t.trips[d];
  const bool roaming = trip.depart_ns >= 0 && nominal >= trip.depart_ns &&
                       nominal < trip.leave_ns;
  const bool visiting = roaming && nominal >= trip.arrive_ns;
  r.network = network_id(visiting ? trip.visited : t.home[d]);
  r.membership =
      visiting ? core::MembershipKind::kTemporary : core::MembershipKind::kHome;
  r.stored_offline = roaming && !visiting;
  return r;
}

/// Frame `k` after the pre-load: round k / devices, device-major.
core::Report run_report(const Traffic& t, std::size_t k) {
  const std::size_t d = k % t.devices();
  const std::uint64_t seq = kPreload + 1 + k / t.devices();
  return core::Report{device_id(d), {make_record(t, d, seq)}};
}

struct Setup {
  std::unique_ptr<store::Tsdb> db;
  std::unique_ptr<store::RollupEngine> rollups;
  std::uint64_t rollup_id = 0;
};

Setup setup(const Traffic& t) {
  Setup s;
  s.db = std::make_unique<store::Tsdb>(kTsdbOptions);
  s.rollups = std::make_unique<store::RollupEngine>(*s.db);
  s.db->set_ingest_hook(s.rollups.get());
  store::RollupSpec spec;
  spec.window_ns = 1'000'000'000;
  spec.slide_ns = 1'000'000'000;
  spec.lateness_ns = 500'000'000;
  s.rollup_id = s.rollups->register_rollup(spec);
  for (std::uint64_t seq = 1; seq <= kPreload; ++seq) {
    for (std::size_t d = 0; d < t.devices(); ++d) {
      s.db->ingest(make_record(t, d, seq));
    }
  }
  (void)s.rollups->drain(s.rollup_id);  // pre-load windows are history
  return s;
}

/// Rebuilds, single-threaded, the first `records_per_device[d]` records of
/// every device d into a fresh store.
std::unique_ptr<store::Tsdb> replay(
    const Traffic& t, const std::vector<std::uint64_t>& records_per_device) {
  auto db = std::make_unique<store::Tsdb>(kTsdbOptions);
  for (std::size_t d = 0; d < t.devices(); ++d) {
    for (std::uint64_t seq = 1; seq <= records_per_device[d]; ++seq) {
      db->ingest(make_record(t, d, seq));
    }
  }
  return db;
}

bool aggregates_equal(const store::DeviceAggregate& a,
                      const store::DeviceAggregate& b) {
  return a.count == b.count && a.t_min_ns == b.t_min_ns &&
         a.t_max_ns == b.t_max_ns && a.min_current_ma == b.min_current_ma &&
         a.max_current_ma == b.max_current_ma &&
         a.avg_current_ma == b.avg_current_ma &&
         a.sum_energy_mwh == b.sum_energy_mwh;
}

bool fleet_equal(const store::FleetAggregate& a,
                 const store::FleetAggregate& b) {
  if (a.per_device.size() != b.per_device.size() ||
      !aggregates_equal(a.merged, b.merged)) {
    return false;
  }
  for (std::size_t i = 0; i < a.per_device.size(); ++i) {
    if (a.per_device[i].first != b.per_device[i].first ||
        !aggregates_equal(a.per_device[i].second, b.per_device[i].second)) {
      return false;
    }
  }
  return true;
}

/// A live answer pinned for replay at its captured cut.
struct CutSample {
  store::QuerySpec spec;
  store::FleetCut cut;
  store::FleetAggregate answer;
};

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

RunResult run_serve(const Options& opt) {
  RunResult r;

  // -- Set-up (five times, keep the last) -----------------------------------
  std::vector<double> setups;
  Traffic traffic;
  Setup s;
  for (int i = 0; i < 5; ++i) {
    s = Setup{};
    const auto t0 = Clock::now();
    traffic = metro_traffic(opt.seed);
    s = setup(traffic);
    setups.push_back(seconds_since(t0));
  }
  r.end_to_end["setup_s"] = median(setups);
  const Traffic& t = traffic;
  const std::size_t devices = t.devices();
  const std::size_t rounds = std::max<std::size_t>(
      8, static_cast<std::size_t>(
             std::llround(kRunRecordsPerSecond * opt.seconds)));
  const std::size_t n_frames = rounds * devices;
  const std::uint64_t preload_records = s.db->stats().records_ingested;
  // The dashboard reads one network's (home) devices per round.
  std::vector<std::vector<core::DeviceId>> networks(t.networks);
  for (std::size_t d = 0; d < devices; ++d) {
    networks[t.home[d]].push_back(device_id(d));
  }
  for (auto& ids : networks) {
    std::sort(ids.begin(), ids.end());
  }

  // -- Run: closed-loop producer + closed-loop query thread -------------------
  emon::obs::MetricsRegistry registry;
  core::ServePipelineOptions popts;
  popts.metrics = &registry;
  core::ServePipeline pipeline{*s.db, s.rollups.get(), popts};
  std::uint64_t windows = 0;
  pipeline.add_window_sink(s.rollup_id,
                           [&windows](const store::ClosedWindow&) { ++windows; });
  pipeline.start();
  const emon::obs::Gauge depth_gauge = registry.gauge("serve_queue_depth");

  std::atomic<bool> done{false};
  QueryTally tally;
  std::vector<CutSample> cuts(3);
  std::size_t cuts_taken = 0;
  double query_wall_s = 0.0;
  std::size_t quiesced_refreshes = 0;
  const store::Tsdb& db = *s.db;
  std::thread reader([&] {
    const store::QueryEngine engine{db, store::QueryEngineOptions{1}};
    const auto t0 = Clock::now();
    for (std::size_t round = 0;
         !done.load(std::memory_order_acquire) ||
         (tally.refresh_us.size() < kMinRefreshes && tally.failed == 0);
         ++round) {
      if (done.load(std::memory_order_relaxed)) {
        ++quiesced_refreshes;
      }
      const auto wm = db.observed_max_ts();
      if (!wm) {
        continue;
      }
      const auto& ids = networks[round % t.networks];
      dashboard_round(engine, *wm, tally, &ids);
      if (round % 200 == 5 && cuts_taken < cuts.size()) {
        CutSample& c = cuts[cuts_taken++];
        c.spec.devices = ids;
        c.spec.t0_ns = *wm - 2'000'000'000;
        c.spec.t1_ns = *wm + 1;
        c.spec.capture_cut = &c.cut;
        c.answer = engine.aggregate(c.spec);
        c.spec.capture_cut = nullptr;
      }
    }
    query_wall_s = seconds_since(t0);
  });

  // Lag probes: every 32nd frame notes when it was submitted and how many
  // records the store must hold once it is in; the producer resolves them
  // against the store's ingest counter as it goes.  With the producer
  // keeping the queue full, this is the time a frame spends queued behind
  // a full queue plus its own ingest.
  struct Probe {
    Clock::time_point submitted;
    std::uint64_t needed;
  };
  std::vector<Probe> probes;
  std::size_t next_probe = 0;
  std::vector<double> lag_ms;
  std::vector<double> depth_samples;
  const auto resolve = [&](bool all) {
    const std::uint64_t have = db.stats().records_ingested;
    const auto now = Clock::now();
    while (next_probe < probes.size() &&
           (all || probes[next_probe].needed <= have)) {
      lag_ms.push_back(
          std::chrono::duration<double, std::milli>(
              now - probes[next_probe].submitted)
              .count());
      ++next_probe;
    }
  };
  std::vector<double> round_rates;
  double blocked_s = 0.0;
  const bool count_allocs = opt.traced;
  if (count_allocs) {
    AllocProbe::arm();
  }
  const auto run_t0 = Clock::now();
  std::uint64_t round_records0 = preload_records;
  Clock::time_point round_t0 = run_t0;
  std::vector<std::vector<std::uint8_t>> chunk;
  for (std::size_t k = 0; k < n_frames; ++k) {
    // The producer seals frames a chunk ahead; it stays faster than the
    // ingest worker, so the queue runs full (serve.queue_depth_p99).
    if (k % 256 == 0) {
      chunk.clear();
      for (std::size_t f = k; f < std::min(n_frames, k + 256); ++f) {
        chunk.push_back(core::protocol::seal(run_report(t, f)));
      }
    }
    const auto t0 = Clock::now();
    pipeline.submit_frame(std::move(chunk[k % 256]));
    blocked_s += seconds_since(t0);
    if (k % 32 == 0) {
      probes.push_back(Probe{t0, preload_records + k + 1});
      depth_samples.push_back(double(depth_gauge.value()));
      resolve(false);
    }
    if ((k + 1) % devices == 0) {
      // One round done: records the store took since the last round.
      const std::uint64_t have = db.stats().records_ingested;
      const auto now = Clock::now();
      round_rates.push_back(double(have - round_records0) /
                            std::chrono::duration<double>(now - round_t0)
                                .count());
      round_records0 = have;
      round_t0 = now;
    }
  }
  pipeline.flush();
  r.run_wall_s = seconds_since(run_t0);
  resolve(true);
  const std::uint64_t run_allocs = count_allocs ? AllocProbe::disarm() : 0;
  done.store(true, std::memory_order_release);
  reader.join();
  const core::ServePipelineStats ps = pipeline.stats();
  pipeline.stop();
  s.db->set_ingest_hook(nullptr);
  r.end_to_end["peak_rss_mb"] = peak_rss_mb();

  const double records_per_s = median(round_rates);
  r.end_to_end["records_per_s"] = records_per_s;
  r.end_to_end["ingest_lag_p50_ms"] = quantile(lag_ms, 0.50);
  r.end_to_end["ingest_lag_p99_ms"] = quantile(lag_ms, 0.99);
  const std::size_t n_queries = tally.queries();
  r.end_to_end["query_p50_us"] = quantile(tally.refresh_us, 0.50);
  r.end_to_end["query_p99_us"] = quantile(tally.refresh_us, 0.99);
  r.end_to_end["queries_per_s"] = double(n_queries) / query_wall_s;

  const std::uint64_t frames_failed = n_frames - ps.frames_ingested;
  r.attempted = n_frames + n_queries + tally.failed;
  r.failed = frames_failed + tally.failed;

  // -- Correctness -------------------------------------------------------------
  r.check("every_frame_ingested", frames_failed == 0 &&
                                      ps.malformed_frames == 0 &&
                                      ps.unexpected_frames == 0);
  r.check("every_record_accepted",
          ps.records_accepted == n_frames && ps.records_duplicate == 0);
  r.check("query_p99_has_10_beyond",
          tally.refresh_us.size() >= kMinRefreshes && tally.failed == 0);
  std::vector<std::uint64_t> full(devices,
                                 kPreload + rounds);
  const auto clean = replay(t, full);
  const store::QueryEngine quiesced{*s.db, store::QueryEngineOptions{1}};
  const store::QueryEngine oracle{*clean, store::QueryEngineOptions{1}};
  const store::FleetAggregate answer = quiesced.aggregate(store::QuerySpec{});
  r.check("quiesced_store_equals_clean_replay",
          fleet_equal(answer, oracle.aggregate(store::QuerySpec{})));
  bool cuts_ok = cuts_taken > 0;
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t d = 0; d < devices; ++d) {
    index[device_id(d)] = d;
  }
  for (std::size_t i = 0; i < cuts_taken; ++i) {
    std::vector<std::uint64_t> prefix(devices, 0);
    for (const auto& [id, n] : cuts[i].cut.per_device) {
      prefix.at(index.at(id)) = n;
    }
    const auto at_cut = replay(t, prefix);
    const store::QueryEngine cut_oracle{*at_cut, store::QueryEngineOptions{1}};
    cuts_ok = cuts_ok && fleet_equal(cuts[i].answer,
                                     cut_oracle.aggregate(cuts[i].spec));
  }
  r.check("live_answers_replay_at_cut", cuts_ok);

  std::uint64_t digest = 0xcbf29ce484222325ULL;
  digest = fnv(digest, answer.merged.count);
  digest = fnv(digest, std::uint64_t(answer.merged.t_min_ns));
  digest = fnv(digest, std::uint64_t(answer.merged.t_max_ns));
  std::uint64_t energy_bits = 0;
  static_assert(sizeof energy_bits == sizeof answer.merged.sum_energy_mwh);
  std::memcpy(&energy_bits, &answer.merged.sum_energy_mwh, sizeof energy_bits);
  digest = fnv(digest, energy_bits);
  r.counts["frames"] = std::to_string(n_frames);
  r.counts["records_accepted"] = std::to_string(ps.records_accepted);
  r.counts["store_digest"] = std::to_string(digest);
  std::cerr << "serve_mixed: " << devices << " devices, " << preload_records
            << " pre-loaded records, " << n_frames << " frames submitted, "
            << ps.frames_ingested
            << " frames ingested, " << n_queries << " queries answered, "
            << windows << " rollup windows pushed; digest " << digest << '\n';
  if (quiesced_refreshes > 0) {
    std::cerr << "serve_mixed: " << quiesced_refreshes
              << " dashboard refreshes ran after ingest ended\n";
  }

  // -- Per-layer ---------------------------------------------------------------
  // Layers this workload never runs (the simulator, radio, broker,
  // aggregator, chain, mobility) read 0.
  auto& m = r.per_layer;
  for (const char* name :
       {"sim.kernel.events_per_record", "sim.kernel.callbacks_stored_per_record",
        "sim.shard.sync_rounds_per_sim_s", "sim.shard.cross_posts_per_record",
        "sim.shard.event_imbalance", "sim.trace.points_per_record",
        "sim.trace.series", "aggregator.seen_sequences",
        "aggregator.nacks_per_report", "chain.blocks",
        "chain.replica_copies_per_record", "mobility.roam_records_received",
        "mobility.registrations_temporary", "backhaul.frames_per_roam",
        "state.trace_points", "state.ledger_replica_records",
        "state.seen_sequences"}) {
    m[name] = 0.0;
  }
  const auto ts = s.db->stats();
  m["state.tsdb_records"] = double(ts.records_ingested);
  m["tsdb.duplicates_dropped"] = double(ts.duplicates_dropped);
  const auto* rs = s.rollups->stats(s.rollup_id);
  m["rollup.late_drops"] = rs == nullptr ? 0.0 : double(rs->records_dropped_late);
  for (std::size_t k = 0; k < kQueryKinds.size(); ++k) {
    m[std::string("query.ns_per_query.") + kQueryKinds[k]] =
        tally.count_by_kind[k] == 0
            ? 0.0
            : tally.ns_by_kind[k] / double(tally.count_by_kind[k]);
  }
  m["query.records_scanned_per_query"] =
      n_queries == 0 ? 0.0 : double(tally.records_matched) / double(n_queries);
  m["serve.producer_blocked_s"] = blocked_s;
  m["serve.queue_depth_p99"] = quantile(depth_samples, 0.99);
  const auto pump = registry.histogram("serve_pump_ns").summary();
  m["serve.pump_ns"] = pump.count == 0 ? 0.0 : double(pump.sum) / pump.count;
  m["path.wall_ns_per_record"] = 1e9 / records_per_s;

  if (opt.traced) {
    LedgerStream stream;
    stream.seed = opt.seed;
    stream.tsdb = kTsdbOptions;
    for (std::size_t k = 0; k < n_frames; k += kLedgerDeviceStride) {
      stream.reports.push_back(run_report(t, k));
      stream.records += stream.reports.back().records.size();
    }
    const LedgerCosts costs = replay_ledger(stream);
    // The producer seals on its own thread, off the ingest worker's path;
    // the worker decodes and ingests.
    PathCalls calls;
    calls.decodes = 1.0;
    calls.tsdb_ingests = 1.0;
    add_ledger_metrics(m, costs, calls,
                       double(run_allocs) / double(n_frames));
  }
  return r;
}

}  // namespace perfbench
