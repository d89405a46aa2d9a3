// emon repository benchmark — one workload per invocation.
//
//   perfbench --workload NAME --seed N --seconds S
//
// Prints human-readable progress on stderr and one JSON result line on
// stdout (see common.hpp); perfbench/run.py turns it into the benchmark's
// result.  The traced binary (perfbench_traced) runs the same workload and
// adds the replay cost ledger and allocation counts.  Exit status: 0 when
// every correctness check passed, 1 when one failed, 2 on bad usage.

#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

int main(int argc, char** argv) {
  using namespace perfbench;
  emon::util::LogConfig::set_level(emon::util::LogLevel::kError);
  Options opt;
  opt.traced = PERFBENCH_TRACED != 0;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else {
        std::cerr << "unknown flag " << flag << '\n';
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "bad argument: " << e.what() << '\n';
    return 2;
  }
  if (argc % 2 == 0 || opt.seconds <= 0.0) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S\n";
    return 2;
  }

  RunResult result;
  const bool probe_ok = !opt.traced || alloc_probe_selfcheck();
  bool fleet = false;
  for (const auto& name : fleet_workload_names()) {
    fleet = fleet || name == opt.workload;
  }
  if (fleet) {
    result = run_fleet(opt);
  } else if (opt.workload == "serve_mixed") {
    result = run_serve(opt);
  } else {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  if (opt.traced) {
    result.check("alloc_probe_selfcheck", probe_ok);
  }
  print_result(opt.workload, result);
  for (const auto& [name, ok] : result.checks) {
    if (!ok) {
      std::cerr << "CHECK FAILED: " << name << '\n';
    }
  }
  return result.all_ok() ? 0 : 1;
}
