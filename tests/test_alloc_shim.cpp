// The counting operator new (tests/support/alloc_shim.cpp) under a whole
// simulation: a small metro fleet runs one simulated second with the probe
// armed, then tears down.  With the shim expanded in a translation unit
// that also inlines Testbed code, GCC 12 at -O1+ miscompiled exactly this
// teardown into a segfault; this target is the guard that the shim's own
// object (built without the malloc/free builtins) keeps it clean.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/fleet.hpp"
#include "core/scenario.hpp"
#include "util/alloc_probe.hpp"
#include "util/log.hpp"

namespace emon::core {
namespace {

TEST(AllocShim, TestbedRunsAndTearsDownUnderTheCountingNew) {
  std::uint64_t allocs = 0;
  {
    Testbed bed{metro_fleet(2, 50, 1)};
    util::AllocProbe::arm();
    bed.start();
    bed.run_for(sim::seconds(1));
    allocs = util::AllocProbe::disarm();
  }  // Testbed teardown runs under the shim here.
  // The probe saw the simulation allocate: the shim is the operator new
  // this binary actually calls.
  EXPECT_GT(allocs, 0u);
}

// Allocation ratchet of the whole simulated record path (sample, seal,
// radio, broker, aggregator, store, verification query, chain, trace) in
// steady state: metro_fleet(2, 50) warms up for 12 sim-s, then [12, 16)
// sim-s is counted.  The pinned bound is this revision's measured count
// (Release and Debug+ASan agree: 60.0 per record over the 800 accepted).  Lower it when a
// change removes allocations; never raise it.  The window's record count is
// pinned too, so the bound cannot be met by doing less work.
constexpr std::uint64_t kSimPathAllocRatchet = 47968;

TEST(AllocShim, SimPathAllocationsStayAtOrBelowTheRatchet) {
  const util::LogLevel saved_level = util::LogConfig::level();
  util::LogConfig::set_level(util::LogLevel::kError);
  Testbed bed{metro_fleet(2, 50, 1)};
  bed.start();
  bed.run_for(sim::seconds(12));
  const auto accepted = [&bed] {
    std::uint64_t n = 0;
    for (std::size_t a = 0; a < bed.network_count(); ++a) {
      n += bed.aggregator(a).stats().records_accepted;
    }
    return n;
  };
  const std::uint64_t accepted_before = accepted();
  util::AllocProbe::arm();
  bed.run_for(sim::seconds(4));
  const std::uint64_t allocs = util::AllocProbe::disarm();
  const std::uint64_t records = accepted() - accepted_before;
  util::LogConfig::set_level(saved_level);
  EXPECT_EQ(records, 800u);
  EXPECT_LE(allocs, kSimPathAllocRatchet)
      << records << " records accepted in the window";
}

}  // namespace
}  // namespace emon::core
