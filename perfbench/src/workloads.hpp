#pragma once
// The three benchmark workloads.  Fleet workloads (metro_10k, roam_soak)
// drive a core::Testbed; serve_mixed drives core::ServePipeline with a
// concurrent query thread.

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

[[nodiscard]] std::vector<std::string> fleet_workload_names();
[[nodiscard]] RunResult run_fleet(const Options& opt);
[[nodiscard]] RunResult run_serve(const Options& opt);

/// Allocation-probe self-check: the metro_fleet(2, 50) shape for 1 sim-s,
/// which once segfaulted in Testbed teardown when the counting operator new
/// shared a translation unit with inlined Testbed code.  Returns true when
/// it ran, tore down cleanly and the probe counted allocations.
[[nodiscard]] bool alloc_probe_selfcheck();

}  // namespace perfbench
