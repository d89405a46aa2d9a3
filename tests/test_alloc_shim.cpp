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

}  // namespace
}  // namespace emon::core
