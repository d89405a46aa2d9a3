#pragma once
// Replay cost ledger: exclusive (self) host time, heap allocations and wire
// bytes per call for each layer of the metered-record path, measured by
// replaying a workload's own record stream through each layer's public
// entry point in isolation.
//
// The stream is the workload's: the same device ids, report batch sizes
// and record count the run produced (fleet workloads read it back out of
// the aggregators' stores; serve_mixed replays a subset of its devices'
// whole streams).  Self
// time comes from timing whole replay loops with a steady clock;
// allocations come from util::AllocProbe, which counts only in the traced
// binary (the one linking alloc_shim.cpp) and reads 0 elsewhere.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/messages.hpp"
#include "store/tsdb.hpp"

namespace perfbench {

struct LedgerStream {
  /// Reports in replay order (round-robin across devices, batch by batch).
  std::vector<emon::core::Report> reports;
  std::size_t records = 0;
  /// Pending-event depth of the run's kernel queue (the kernel replay
  /// schedules against a heap of this size).
  std::size_t kernel_pending = 0;
  /// Records per chain block in the run (0: none committed; the chain
  /// replay then uses kDefaultBlockRecords).
  std::size_t block_records = 0;
  /// Options of the store the run ingested into.
  emon::store::TsdbOptions tsdb{};
  std::uint64_t seed = 1;
};

inline constexpr std::size_t kDefaultBlockRecords = 1024;

/// Per-call self costs.  `*_ns_*` are host nanoseconds.
struct LedgerCosts {
  double kernel_ns_per_event = 0.0;
  double channel_ns_per_frame = 0.0;  // send + delivery, minus the kernel event
  double channel_allocs_per_frame = 0.0;
  double mqtt_ns_per_msg = 0.0;
  double mqtt_allocs_per_msg = 0.0;
  double seal_ns_per_record = 0.0;
  double decode_ns_per_record = 0.0;
  double wire_bytes_per_record = 0.0;
  double protocol_allocs_per_record = 0.0;
  double membership_find_ns = 0.0;
  double tsdb_ns_per_record = 0.0;
  double tsdb_allocs_per_record = 0.0;
  double tsdb_sealed_bytes_per_record = 0.0;
  double rollup_hook_ns_per_record = 0.0;
  double rollup_drain_ns_per_window = 0.0;
  double trace_ns_per_append = 0.0;
  double chain_append_ns_per_record = 0.0;
  double merkle_ns_per_record = 0.0;
};

[[nodiscard]] LedgerCosts replay_ledger(const LedgerStream& stream);

/// How often the measured run called each layer, per accepted record — the
/// weights that turn replayed per-call costs into a share of the run's
/// wall time per record.
struct PathCalls {
  double kernel_events = 0.0;
  double seals = 0.0;
  double decodes = 0.0;
  double channel_frames = 0.0;
  double mqtt_msgs = 0.0;
  double membership_finds = 0.0;
  double tsdb_ingests = 0.0;
  double trace_appends = 0.0;
  double chain_records = 0.0;
};

/// Adds every replay metric plus path.allocs_per_record and
/// path.attributed_ns_per_record (the sum of replayed self time x calls) to
/// `per_layer`.  perfbench/run.py subtracts the latter from the untraced
/// run's path.wall_ns_per_record to get path.unattributed_ns_per_record.
void add_ledger_metrics(std::map<std::string, double>& per_layer,
                        const LedgerCosts& c, const PathCalls& calls,
                        double allocs_per_record);

}  // namespace perfbench
