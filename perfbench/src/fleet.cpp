// Fleet workloads: a whole core::Testbed (devices, radio, brokers,
// aggregators, stores, chain) on the discrete-event kernel.
//
//   metro_10k   metro_fleet(32, 10000) on one shard; its traced run also
//               runs the same spec and seed on four shards, whose trace
//               digest must equal the one-shard run's
//   roam_soak   metro_fleet(8, 400) with heavy churn, an AP outage and a
//               backhaul partition, over several block intervals; not a
//               benchmark workload of its own: perfbench/run.py runs it
//               beside metro_10k's traced run for the chain, mobility and
//               history layers metro_10k barely touches
//
// Set-up builds the testbed repeatedly; setup_s is the median over eleven
// samples, each timing enough consecutive builds to last at least 50 ms.
// The run starts the testbed, advances it untimed through the registration
// warm-up, then through the measured phase in equal slices of simulated
// time; records_per_s is the median over those slices of records accepted
// per host second.  The measured phase's length is fixed by --seconds
// through the workload's calibration (simulated seconds per host second on
// the reference host), so a run does a fixed, seed-determined amount of
// work and every count it reports is exact.  After every measured slice
// the benchmark reads the first aggregator's store with the dashboard
// query mix (kernel parked, untimed by the slice); after the run it checks
// the run's outputs.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/billing.hpp"
#include "core/fleet.hpp"
#include "core/scenario.hpp"
#include "store/segment.hpp"
#include "dashboard.hpp"
#include "ledger.hpp"
#include "util/alloc_probe.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = emon::core;
namespace sim = emon::sim;
using emon::util::AllocProbe;

core::ScenarioSpec metro_spec(std::uint64_t seed) {
  return core::metro_fleet(32, 10'000, seed);
}

/// metro_fleet(8, 400) with heavy churn (a quarter of the fleet makes six
/// short trips, until ~140 s) plus one AP outage and one backhaul
/// partition.
core::ScenarioSpec roam_soak_spec(std::uint64_t seed) {
  core::ScenarioSpec spec = core::metro_fleet(8, 400, seed);
  spec.name = "roam_soak";
  core::ChurnSpec churn;
  churn.roamer_fraction = 0.25;
  churn.trips_per_roamer = 6;
  churn.first_departure = sim::seconds(20);
  churn.dwell_min = sim::seconds(5);
  churn.dwell_max = sim::seconds(15);
  churn.transit = sim::seconds(5);
  spec.churn = churn;
  core::FaultSpec outage;
  outage.kind = core::FaultSpec::Kind::kApOutage;
  outage.at = sim::SimTime{} + sim::seconds(60);
  outage.duration = sim::seconds(5);
  outage.network = 2;
  core::FaultSpec partition;
  partition.kind = core::FaultSpec::Kind::kBackhaulPartition;
  partition.at = sim::SimTime{} + sim::seconds(100);
  partition.duration = sim::seconds(10);
  partition.network = 5;
  spec.faults = {outage, partition};
  // Blocks every 30 s, so a run spans several block intervals.
  spec.sys.aggregator.block_interval = sim::seconds(30);
  return spec;
}

struct FleetWorkload {
  const char* name;
  core::ScenarioSpec (*spec)(std::uint64_t);
  /// Shards of the parity run the traced binary makes after the measured
  /// run (0: none).
  std::size_t parity_shards;
  /// Untimed simulated seconds before the measured phase.
  double warmup_sim_s;
  /// Measured simulated seconds per --seconds (reference-host calibration).
  double sim_per_second;
  /// Floor so the correctness checks stay meaningful on short runs.
  double min_sim_s;
  /// Simulated seconds per measured slice.
  double slice_sim_s;
};

// metro: registration and the flush of the devices' offline buffers end
// by ~12 sim-s; from then on every device sends one record per report.
// roam_soak: its 400 devices have registered by 10 sim-s; the churn, the
// outage and the partition all fall in the measured phase, which is 140
// sim-s whatever --seconds says: the lag tail grows with the run, so a
// longer phase would move ingest_lag_p99_ms.
constexpr FleetWorkload kWorkloads[] = {
    {"metro_10k", metro_spec, 4, 12.0, 0.4, 2.0, 0.25},
    {"roam_soak", roam_soak_spec, 0, 10.0, 0.0, 140.0, 1.0},
};

const FleetWorkload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

std::unique_ptr<core::Testbed> build(const FleetWorkload& w,
                                     std::uint64_t seed) {
  return std::make_unique<core::Testbed>(w.spec(seed),
                                         core::TestbedOptions{1});
}

struct Totals {
  std::uint64_t records_accepted = 0;
  std::uint64_t reports_accepted = 0;
  std::uint64_t nacks = 0;
  std::uint64_t malformed = 0;
  std::uint64_t unexpected = 0;
  std::uint64_t roam_records = 0;
  std::uint64_t registrations_temporary = 0;
  std::uint64_t tsdb_records = 0;
  std::uint64_t tsdb_duplicates = 0;
  std::uint64_t replica_records = 0;
  std::uint64_t seen_sequences = 0;
  std::uint64_t mqtt_routed = 0;
  std::uint64_t late_drops = 0;
};

/// Cumulative counters behind the path's call weights.
struct PathSnapshot {
  Totals t;
  std::uint64_t events = 0;
  std::uint64_t trace_points = 0;
  std::uint64_t chain_records = 0;
};

std::uint64_t records_accepted(core::Testbed& bed) {
  std::uint64_t n = 0;
  for (std::size_t a = 0; a < bed.network_count(); ++a) {
    n += bed.aggregator(a).stats().records_accepted;
  }
  return n;
}

Totals totals(core::Testbed& bed) {
  Totals t;
  for (std::size_t n = 0; n < bed.network_count(); ++n) {
    core::Aggregator& agg = bed.aggregator(n);
    const core::AggregatorStats& s = agg.stats();
    t.records_accepted += s.records_accepted;
    t.reports_accepted += s.reports_accepted;
    t.nacks += s.nacks_sent;
    t.malformed += s.malformed_frames;
    t.unexpected += s.unexpected_frames;
    t.roam_records += s.roam_records_received;
    t.registrations_temporary += s.registrations_temporary;
    const auto ts = agg.tsdb().stats();
    t.tsdb_records += ts.records_ingested;
    t.tsdb_duplicates += ts.duplicates_dropped;
    t.replica_records += agg.replica().record_count();
    for (const core::MemberEntry* m : agg.members().all()) {
      t.seen_sequences += m->seen_sequences.size();
    }
    t.mqtt_routed += agg.broker().messages_routed();
    // Rollup ids are handed out from 1; the aggregator registers a few.
    for (std::uint64_t id = 1; id <= 16; ++id) {
      if (const auto* rs = agg.rollup_engine().stats(id)) {
        t.late_drops += rs->records_dropped_late;
      }
    }
  }
  return t;
}

PathSnapshot path_snapshot(core::Testbed& bed) {
  return PathSnapshot{totals(bed), bed.executed_events(),
                      bed.trace().total_points(),
                      bed.chain().ledger().record_count()};
}

/// Sim-time staleness of every record when it lands in an aggregator's
/// store, from the trace's paired reported./arrival. series: the aggregator
/// appends one point to each for every record it accepts from a device, and
/// again when a roamed record forwarded home lands there.  Negative lags
/// (device clock ahead) are skipped, as agg_ingest_lag_ns skips them.
std::vector<double> ingest_lags_ms(core::Testbed& bed) {
  const sim::Trace& trace = bed.trace();
  const std::string prefix = "reported.";
  std::vector<double> lags;
  for (const auto& name : trace.series_names()) {
    if (name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const auto& reported = trace.series(name);
    const auto& arrival = trace.series("arrival." + name.substr(prefix.size()));
    const std::size_t n = std::min(reported.size(), arrival.size());
    for (std::size_t k = 0; k < n; ++k) {
      const std::int64_t lag = arrival[k].time.ns() - reported[k].time.ns();
      if (lag >= 0) {
        lags.push_back(static_cast<double>(lag) / 1e6);
      }
    }
  }
  return lags;
}

std::size_t devices_reporting(core::Testbed& bed) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < bed.device_count(); ++i) {
    n += bed.device(i).state() == core::DeviceState::kReporting ? 1 : 0;
  }
  return n;
}

std::uint64_t lag_histogram_count(core::Testbed& bed) {
  std::uint64_t n = 0;
  for (std::size_t a = 0; a < bed.network_count(); ++a) {
    n += bed.aggregator(a)
             .metrics()
             .histogram("agg_ingest_lag_ns")
             .summary()
             .count;
  }
  return n;
}

/// Dashboard reads of the first network's home devices in its aggregator's
/// store, interleaved with the measured phase: after every measured slice
/// (the kernel is parked) one block of refreshes, so the samples spread
/// over the whole phase instead of one burst at the end, and host load
/// that comes and goes over seconds lands on every run alike.  Each block
/// starts with one untimed warm-up refresh: the slice before it has
/// evicted the store from the caches, and those cold first refreshes, one
/// per block, would otherwise make up the p99.  At least kRefreshes timed
/// refreshes in all, so the refresh p99 has 15 samples beyond it.  Always
/// the same devices, so every sample times the same reads: rotating over
/// networks whose populations differ (roam_soak's churn) made the
/// percentiles jump between the networks' modes.
constexpr std::size_t kRefreshes = 1500;

class DashboardReads {
 public:
  explicit DashboardReads(core::Testbed& bed)
      : engine_(bed.aggregator(0).query_engine()) {
    for (std::size_t i = 0; i < bed.device_count(); ++i) {
      if (bed.home_of(i) == 0) {
        home_.push_back(bed.device(i).id());
      }
    }
    std::sort(home_.begin(), home_.end());
  }

  /// One untimed warm-up refresh, then `n` timed ones.
  void block(std::size_t n) {
    QueryTally warmup;
    round(warmup);
    tally.failed += warmup.failed;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      round(tally);
    }
    wall_s += seconds_since(t0);
  }

  QueryTally tally;
  double wall_s = 0.0;

 private:
  void round(QueryTally& into) const {
    if (const auto wm = engine_.tsdb().observed_max_ts()) {
      dashboard_round(engine_, *wm, into, &home_);
    }
  }

  const emon::store::QueryEngine& engine_;
  std::vector<core::DeviceId> home_;
};

/// Median host seconds per build over `samples` samples, each timing
/// enough consecutive builds (teardown excluded) to last at least 50 ms,
/// so every sample sits well above timer and page-fault noise.  Leaves the
/// last build in `bed`.
double time_setup(const FleetWorkload& w, std::uint64_t seed,
                  std::unique_ptr<core::Testbed>& bed, int samples) {
  const auto timed_build = [&] {
    bed.reset();
    const auto t0 = Clock::now();
    bed = build(w, seed);
    return seconds_since(t0);
  };
  const double first = timed_build();  // warm-up, sizes the groups
  const int group =
      std::max(1, static_cast<int>(std::ceil(0.05 / std::max(first, 1e-6))));
  std::vector<double> per_build;
  for (int i = 0; i < samples; ++i) {
    double total = 0.0;
    for (int b = 0; b < group; ++b) {
      total += timed_build();
    }
    per_build.push_back(total / group);
  }
  return median(per_build);
}

/// The store-backed invoice of every device at its home aggregator must
/// equal an audit replay of the chain.  Devices are unplugged first and the
/// fleet runs one more block interval, so every accepted record is
/// committed before the comparison.
bool billing_matches_chain(core::Testbed& bed) {
  for (std::size_t i = 0; i < bed.device_count(); ++i) {
    bed.device(i).unplug();
  }
  const auto& agg_cfg = bed.spec().sys.aggregator;
  bed.run_for(agg_cfg.block_interval + agg_cfg.chain_commit_latency +
              sim::seconds(5));
  core::BillingService audit{"audit", core::Tariff{}};
  audit.ingest_ledger(bed.chain().ledger());
  bool ok = audit.foreign_records_skipped() == 0;
  std::uint64_t compared = 0;
  for (std::size_t i = 0; i < bed.device_count(); ++i) {
    const std::string& id = bed.device(i).id();
    const core::Invoice live =
        bed.aggregator(bed.home_of(i)).billing().invoice_for(id);
    const core::Invoice replay = audit.invoice_for(id);
    std::uint64_t live_records = 0;
    std::uint64_t replay_records = 0;
    for (const auto& line : live.lines) {
      live_records += line.records;
    }
    for (const auto& line : replay.lines) {
      replay_records += line.records;
    }
    // The store keeps energy in fixed point (store/segment.hpp): each
    // record may round by kEnergyToleranceMwh.
    const double tol =
        double(replay_records) * emon::store::kEnergyToleranceMwh +
        1e-9 * std::abs(replay.total_energy_mwh);
    if (live_records != replay_records ||
        std::abs(live.total_energy_mwh - replay.total_energy_mwh) > tol) {
      if (ok) {
        std::cerr << "billing mismatch for " << id << ": store "
                  << live_records << " records / " << live.total_energy_mwh
                  << " mWh, chain " << replay_records << " records / "
                  << replay.total_energy_mwh << " mWh\n";
      }
      ok = false;
    }
    compared += replay_records;
  }
  return ok && compared > 0;
}

/// The sharded kernel's layer metrics of `bed` after `sim_s` simulated
/// seconds (a one-shard testbed reads one sync round per slice and no
/// imbalance).
void add_shard_metrics(std::map<std::string, double>& m, core::Testbed& bed,
                       double sim_s) {
  std::uint64_t max_shard = 0;
  for (std::size_t s = 0; s < bed.shard_count(); ++s) {
    max_shard = std::max(max_shard, bed.engine().shard(s).executed());
  }
  const double mean_shard =
      double(bed.executed_events()) / double(bed.shard_count());
  const double accepted =
      double(std::max<std::uint64_t>(1, records_accepted(bed)));
  m["sim.shard.sync_rounds_per_sim_s"] =
      double(bed.engine().sync_rounds()) / sim_s;
  m["sim.shard.cross_posts_per_record"] =
      double(bed.engine().cross_posts()) / accepted;
  m["sim.shard.event_imbalance"] =
      mean_shard > 0 ? double(max_shard) / mean_shard : 0.0;
}

struct StateSample {
  double sim_s = 0.0;
  std::uint64_t tsdb_records = 0;
  std::uint64_t trace_points = 0;
  std::uint64_t replica_records = 0;
  std::uint64_t seen_sequences = 0;
};

StateSample sample_state(core::Testbed& bed, double sim_s) {
  const Totals t = totals(bed);
  return StateSample{sim_s, t.tsdb_records, bed.trace().total_points(),
                     t.replica_records, t.seen_sequences};
}

/// The run's record stream, read back out of the aggregators' stores and
/// cut into reports of `batch` records, round-robin by device.
LedgerStream stream_from_stores(core::Testbed& bed, std::size_t batch,
                                std::uint64_t seed) {
  std::vector<std::vector<core::Report>> per_series;
  for (std::size_t a = 0; a < bed.network_count(); ++a) {
    const auto& db = bed.aggregator(a).tsdb();
    for (const auto& device : db.devices()) {
      auto records = db.scan(device, INT64_MIN, INT64_MAX);
      auto& reports = per_series.emplace_back();
      for (std::size_t i = 0; i < records.size(); i += batch) {
        core::Report report{device, {}};
        for (std::size_t j = i; j < std::min(records.size(), i + batch); ++j) {
          report.records.push_back(std::move(records[j]));
        }
        reports.push_back(std::move(report));
      }
    }
  }
  LedgerStream stream;
  stream.seed = seed;
  for (std::size_t k = 0;; ++k) {
    bool any = false;
    for (auto& reports : per_series) {
      if (k < reports.size()) {
        stream.records += reports[k].records.size();
        stream.reports.push_back(std::move(reports[k]));
        any = true;
      }
    }
    if (!any) {
      break;
    }
  }
  for (std::size_t s = 0; s < bed.shard_count(); ++s) {
    stream.kernel_pending += bed.engine().shard(s).pending();
  }
  const auto& ledger = bed.chain().ledger();
  stream.block_records = ledger.empty() ? 0 : ledger.record_count() / ledger.size();
  return stream;
}

}  // namespace

std::vector<std::string> fleet_workload_names() {
  std::vector<std::string> names;
  for (const auto& w : kWorkloads) {
    names.emplace_back(w.name);
  }
  return names;
}

RunResult run_fleet(const Options& opt) {
  const FleetWorkload& w = *find_workload(opt.workload);
  const std::int64_t slice_ms = std::llround(w.slice_sim_s * 1000.0);
  const int warmup_slices =
      static_cast<int>(std::llround(w.warmup_sim_s / w.slice_sim_s));
  const int measured_slices = static_cast<int>(std::ceil(
      std::max(w.min_sim_s, w.sim_per_second * opt.seconds) / w.slice_sim_s));
  const int slices = warmup_slices + measured_slices;
  const double sim_s = double(slices * slice_ms) / 1000.0;
  RunResult r;

  // -- Set-up -----------------------------------------------------------------
  std::unique_ptr<core::Testbed> bed;
  r.end_to_end["setup_s"] = time_setup(w, opt.seed, bed, 11);

  // -- Run ------------------------------------------------------------------
  // Only the measured slices are timed (and, in the traced run, counted by
  // the allocation probe); the checks between slices and the traced run's
  // once-per-sim-minute state samples fall outside them.
  std::vector<double> slice_rates;
  std::uint64_t measured_records = 0;
  std::uint64_t measured_allocs = 0;
  std::size_t peak_reporting = 0;
  std::vector<StateSample> samples;
  PathSnapshot at_measure;
  DashboardReads reads{*bed};
  const std::size_t refreshes_per_slice =
      (kRefreshes + measured_slices - 1) / measured_slices;
  bed->start();
  for (int i = 1; i <= slices; ++i) {
    const bool measured = i > warmup_slices;
    if (i == warmup_slices + 1) {
      at_measure = path_snapshot(*bed);
    }
    const std::uint64_t before = measured ? records_accepted(*bed) : 0;
    if (measured && opt.traced) {
      AllocProbe::arm();
    }
    const auto t0 = Clock::now();
    bed->run_for(sim::milliseconds(slice_ms));
    const double wall_s = seconds_since(t0);
    if (measured) {
      measured_allocs += opt.traced ? AllocProbe::disarm() : 0;
      const std::uint64_t n = records_accepted(*bed) - before;
      r.run_wall_s += wall_s;
      measured_records += n;
      slice_rates.push_back(double(n) / wall_s);
      reads.block(refreshes_per_slice);
    }
    const std::int64_t now_ms = i * slice_ms;
    if (now_ms % 10'000 == 0 || i == slices) {
      peak_reporting = std::max(peak_reporting, devices_reporting(*bed));
    }
    if (opt.traced && (now_ms % 60'000 == 0 || i == slices)) {
      samples.push_back(sample_state(*bed, double(now_ms) / 1000.0));
    }
  }
  r.end_to_end["peak_rss_mb"] = peak_rss_mb();
  const double records_per_s = median(slice_rates);
  r.end_to_end["records_per_s"] = records_per_s;

  const Totals t = totals(*bed);
  const double accepted = static_cast<double>(std::max<std::uint64_t>(
      1, t.records_accepted));

  std::vector<double> lags = ingest_lags_ms(*bed);
  const std::size_t lag_count = lags.size();
  r.end_to_end["ingest_lag_p50_ms"] = quantile(lags, 0.50);
  r.end_to_end["ingest_lag_p99_ms"] = quantile(lags, 0.99);
  lags = {};

  QueryTally& q = reads.tally;
  const std::size_t n_queries = q.queries();
  r.end_to_end["query_p50_us"] = quantile(q.refresh_us, 0.50);
  r.end_to_end["query_p99_us"] = quantile(q.refresh_us, 0.99);
  r.end_to_end["queries_per_s"] = double(n_queries) / reads.wall_s;

  // -- Operation counts --------------------------------------------------------
  std::uint64_t sampled = 0;
  for (std::size_t i = 0; i < bed->device_count(); ++i) {
    sampled += bed->device(i).stats().samples;
  }
  const std::size_t reporting = devices_reporting(*bed);
  // Operations: report frames delivered to an aggregator (one that fails
  // to decode or arrives on the wrong path failed; a nack is the
  // protocol's answer to a visiting device, not a failure) and dashboard
  // queries (one that threw failed).
  r.attempted = t.reports_accepted + t.nacks + t.malformed + t.unexpected +
                n_queries + q.failed;
  r.failed = t.malformed + t.unexpected + q.failed;

  const std::uint64_t events = bed->executed_events();
  const std::uint64_t digest = bed->trace().digest();
  r.counts["records_accepted"] = std::to_string(t.records_accepted);
  r.counts["reports_accepted"] = std::to_string(t.reports_accepted);
  r.counts["records_sampled"] = std::to_string(sampled);
  r.counts["nacks"] = std::to_string(t.nacks);
  r.counts["kernel_events"] = std::to_string(events);
  r.counts["trace_digest"] = std::to_string(digest);
  r.counts["ingest_lag_samples"] = std::to_string(lag_count);
  r.counts["devices_reporting"] = std::to_string(reporting);
  r.counts["sim_seconds"] = std::to_string(sim_s);
  std::cerr << opt.workload << ": " << bed->device_count() << " devices, "
            << sim_s << " sim-s, " << bed->shard_count() << " shard(s); "
            << sampled << " records sampled, " << t.records_accepted
            << " accepted, " << t.nacks << " nacks; " << reporting
            << " devices reporting; " << events << " kernel events; digest "
            << digest << '\n';

  // -- Correctness ---------------------------------------------------------------
  // The fleet formed: at some 10 s mark at least 90 % of devices were
  // reporting.  (roam_soak ends mid-churn, with roamers in transit or
  // waiting for a slot, so the last instant is not the test.)
  r.check("devices_reporting_ge_90pct",
          peak_reporting * 10 >= bed->device_count() * 9);
  r.check("chain_valid", bed->chain().validate().ok);
  bool replicas_ok = true;
  for (std::size_t a = 0; a < bed->network_count(); ++a) {
    replicas_ok = replicas_ok && bed->aggregator(a).replica().validate().ok;
  }
  r.check("replicas_valid", replicas_ok);
  // Every device acceptance is in agg_ingest_lag_ns; the trace adds at
  // most one landing per roamed record forwarded home.
  const std::uint64_t lag_recorded = lag_histogram_count(*bed);
  if (lag_count < lag_recorded || lag_count > lag_recorded + t.roam_records) {
    std::cerr << "ingest lag: " << lag_count << " trace-derived samples, "
              << lag_recorded << " in agg_ingest_lag_ns, " << t.roam_records
              << " roamed records forwarded\n";
  }
  r.check("ingest_lag_consistent_with_histograms",
          lag_count > 0 && lag_count >= lag_recorded &&
              lag_count <= lag_recorded + t.roam_records);
  r.check("query_p99_has_10_beyond",
          q.refresh_us.size() >= 1000 && q.failed == 0);

  // -- Per-layer counts (public accessors) -------------------------------------
  auto& m = r.per_layer;
  std::uint64_t callbacks = 0;
  for (std::size_t s = 0; s < bed->shard_count(); ++s) {
    callbacks += bed->engine().shard(s).callbacks_stored();
  }
  m["sim.kernel.events_per_record"] = double(events) / accepted;
  m["sim.kernel.callbacks_stored_per_record"] = double(callbacks) / accepted;
  add_shard_metrics(m, *bed, sim_s);
  const double trace_points = double(bed->trace().total_points());
  m["sim.trace.points_per_record"] = trace_points / accepted;
  m["sim.trace.series"] = double(bed->trace().series_names().size());
  m["aggregator.seen_sequences"] = double(t.seen_sequences);
  m["aggregator.nacks_per_report"] =
      double(t.nacks) / double(std::max<std::uint64_t>(1, t.reports_accepted));
  m["tsdb.duplicates_dropped"] = double(t.tsdb_duplicates);
  m["rollup.late_drops"] = double(t.late_drops);
  const auto& ledger = bed->chain().ledger();
  m["chain.blocks"] = double(ledger.size());
  m["chain.replica_copies_per_record"] =
      ledger.record_count() == 0
          ? 0.0
          : double(t.replica_records) / double(ledger.record_count());
  m["mobility.roam_records_received"] = double(t.roam_records);
  m["mobility.registrations_temporary"] = double(t.registrations_temporary);
  m["backhaul.frames_per_roam"] =
      double(bed->backhaul().transport_stats().frames_sent) /
      double(std::max<std::uint64_t>(1, t.registrations_temporary));
  for (std::size_t k = 0; k < kQueryKinds.size(); ++k) {
    m[std::string("query.ns_per_query.") + kQueryKinds[k]] =
        q.count_by_kind[k] == 0 ? 0.0 : q.ns_by_kind[k] / q.count_by_kind[k];
  }
  m["query.records_scanned_per_query"] =
      n_queries == 0 ? 0.0 : double(q.records_matched) / double(n_queries);
  m["serve.producer_blocked_s"] = 0.0;
  m["serve.queue_depth_p99"] = 0.0;
  m["serve.pump_ns"] = 0.0;
  m["path.wall_ns_per_record"] = 1e9 / records_per_s;

  if (opt.traced) {
    for (const auto& s : samples) {
      std::cerr << "state @" << s.sim_s << " sim-s: tsdb_records "
                << s.tsdb_records << ", trace_points " << s.trace_points
                << ", ledger_replica_records " << s.replica_records
                << ", seen_sequences " << s.seen_sequences << '\n';
    }
    const StateSample& last = samples.back();
    m["state.tsdb_records"] = double(last.tsdb_records);
    m["state.trace_points"] = double(last.trace_points);
    m["state.ledger_replica_records"] = double(last.replica_records);
    m["state.seen_sequences"] = double(last.seen_sequences);

    // Calls per record over the measured phase, the phase the path wall
    // time comes from; the replayed reports have that phase's mean size.
    const PathSnapshot end = path_snapshot(*bed);
    const double n = double(std::max<std::uint64_t>(1, measured_records));
    const auto per_record = [n](std::uint64_t a, std::uint64_t b) {
      return double(b - a) / n;
    };
    const double reports =
        per_record(at_measure.t.reports_accepted, end.t.reports_accepted);
    const std::size_t batch = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(1.0 / std::max(reports, 1e-9))));
    const LedgerStream stream = stream_from_stores(*bed, batch, opt.seed);
    const LedgerCosts costs = replay_ledger(stream);
    PathCalls calls;
    calls.kernel_events = per_record(at_measure.events, end.events);
    calls.seals = 1.0;
    calls.decodes = 1.0;
    // Per report: the uplink PUBLISH, its PUBACK and the Ack ctrl message.
    calls.channel_frames =
        3.0 * per_record(at_measure.t.reports_accepted, end.t.reports_accepted);
    calls.mqtt_msgs = per_record(at_measure.t.mqtt_routed, end.t.mqtt_routed);
    calls.membership_finds =
        per_record(at_measure.t.reports_accepted + at_measure.t.nacks,
                   end.t.reports_accepted + end.t.nacks);
    calls.tsdb_ingests =
        per_record(at_measure.t.tsdb_records, end.t.tsdb_records);
    calls.trace_appends = per_record(at_measure.trace_points, end.trace_points);
    calls.chain_records = per_record(at_measure.chain_records, end.chain_records);
    add_ledger_metrics(m, costs, calls, double(measured_allocs) / n);
  } else {
    m["state.tsdb_records"] = double(t.tsdb_records);
    m["state.trace_points"] = trace_points;
    m["state.ledger_replica_records"] = double(t.replica_records);
    m["state.seen_sequences"] = double(t.seen_sequences);
  }

  // -- Checks that run the fleet further ---------------------------------------
  if (opt.traced && w.parity_shards > 1) {
    // Parity: the same spec and seed on several shards, run after this
    // testbed is gone and without the dashboard reads, must produce the
    // same trace digest.  Its kernel gives the sharded-kernel metrics.
    bed.reset();
    core::Testbed sharded{w.spec(opt.seed),
                          core::TestbedOptions{w.parity_shards}};
    sharded.start();
    for (int i = 1; i <= slices; ++i) {
      sharded.run_for(sim::milliseconds(slice_ms));
    }
    r.check("digest_equals_" + std::to_string(w.parity_shards) + "shard",
            sharded.trace().digest() == digest);
    add_shard_metrics(m, sharded, sim_s);
  }
  if (!opt.traced && std::string(w.name) == "roam_soak") {
    r.check("billing_store_equals_chain_replay", billing_matches_chain(*bed));
  }
  return r;
}

bool alloc_probe_selfcheck() {
  std::uint64_t allocs = 0;
  {
    core::Testbed bed{core::metro_fleet(2, 50, 1)};
    AllocProbe::arm();
    bed.start();
    bed.run_for(sim::seconds(1));
    allocs = AllocProbe::disarm();
  }  // teardown under the shim is what used to crash
  return allocs > 0;
}

}  // namespace perfbench
