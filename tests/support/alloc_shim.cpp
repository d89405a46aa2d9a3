// The counting global operator new/delete (util/alloc_probe.hpp) for the
// binaries that measure allocations: test_hot_alloc, test_alloc_shim and
// bench/alloc_count link this object instead of expanding the macro
// themselves.
//
// It lives alone in this translation unit, which the build compiles with
// -fno-builtin-malloc -fno-builtin-free: with the shim in a translation
// unit that also inlined Testbed code, GCC 12 at -O1 and above miscompiled
// Testbed teardown into a segfault.  It sits outside src/ (the library
// globs src/*.cpp, and a second shim there would collide with any binary
// that brings its own) and outside bench/ (every file there becomes an
// executable).

#include "util/alloc_probe.hpp"

EMON_DEFINE_ALLOC_COUNTING_NEW
