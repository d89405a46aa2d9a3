#pragma once
// Shared plumbing for the repository benchmark: command-line options, host
// clocks, exact percentiles and the one-line JSON result the wrapper script
// (perfbench/run.py) reads back.
//
// Every layer is measured from outside: the workloads only call public
// entry points of the emon library and read its public accessors.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] inline double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced build only: run the replay ledger and report per-layer metrics.
  bool traced = false;
};

/// Process peak resident set size (getrusage high-water mark), MiB.
[[nodiscard]] double peak_rss_mb();

/// Exact quantile of `v` by linear interpolation between order statistics
/// (sorts `v` in place).  0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double>& v, double q);

/// Median of a small sample (copies).
[[nodiscard]] double median(std::vector<double> v);

/// Everything one run reports.  `counts` are the exact, deterministic
/// outcomes a traced run must reproduce bit for bit (printed as strings so
/// 64-bit digests survive JSON).
struct RunResult {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::map<std::string, std::string> counts;
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Host seconds of the measured run phase (the tracing-overhead base).
  double run_wall_s = 0.0;

  void check(std::string name, bool ok) {
    checks.emplace_back(std::move(name), ok);
  }
  [[nodiscard]] bool all_ok() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const auto& c) { return c.second; });
  }
};

/// Writes `r` as one JSON object on a single line of stdout.
void print_result(const std::string& workload, const RunResult& r);

}  // namespace perfbench
