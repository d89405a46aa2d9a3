// The counting global operator new/delete for the traced binary.
//
// It lives alone in this translation unit, which the build compiles with
// -fno-builtin-malloc -fno-builtin-free: with the shim in a translation unit
// that also inlined Testbed code, GCC 12 at -O1 and above miscompiled
// Testbed teardown into a segfault.  The untraced binary does not link this
// file, so its end-to-end numbers carry no counting cost.

#include "util/alloc_probe.hpp"

EMON_DEFINE_ALLOC_COUNTING_NEW
