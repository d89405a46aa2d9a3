#pragma once
// Operator-new counting probe — the dynamic witness behind the EMON_HOT
// contract (util/contracts.hpp, tools/emon_lint.py hot-alloc rule).
//
// The lint proves the *text* of an EMON_HOT body allocation-free; this
// probe proves the *runtime*: a harness warms the store past its capacity
// growth (chunk doublings, dedup-ring growth, first-seen interning), turns
// the counter on, replays a steady-state window of the serve workload and
// asserts the count stayed at zero.  tests/test_hot_alloc.cpp gates it in
// ctest; bench/alloc_count.cpp reports allocs-per-record into the CI
// trajectory.
//
// Usage: exactly one translation unit in the binary says
//
//     EMON_DEFINE_ALLOC_COUNTING_NEW
//
// at namespace scope, which replaces the global operator new/delete with
// malloc/free shims that bump AllocProbe when armed.  Give that unit
// nothing else and compile it with -fno-builtin-malloc -fno-builtin-free
// (tests/support/alloc_shim.cpp is the one the main build links): GCC 12
// at -O1+ miscompiled Testbed teardown when the shim shared a unit that
// inlined Testbed code.  The probe is
// process-global and NOT reentrancy-guarded — arm it only around
// single-threaded measurement windows (the ingest path is single-writer by
// contract anyway).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace emon::util {

struct AllocProbe {
  /// Armed flag and count. Relaxed everywhere: the measurement window is
  /// opened and closed on the measuring thread itself.
  static inline std::atomic<bool> armed{false};
  static inline std::atomic<std::uint64_t> count{0};

  static void arm() {
    count.store(0, std::memory_order_relaxed);
    armed.store(true, std::memory_order_relaxed);
  }
  /// Disarms and returns the number of operator-new calls observed.
  static std::uint64_t disarm() {
    armed.store(false, std::memory_order_relaxed);
    return count.load(std::memory_order_relaxed);
  }
  static void note() {
    if (armed.load(std::memory_order_relaxed)) {
      count.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

}  // namespace emon::util

// Defines the replacement global allocation functions.  malloc/free (not
// the default operator new) so the shims stay valid under ASan, whose
// malloc interceptor still sees every call.
#define EMON_DEFINE_ALLOC_COUNTING_NEW                                       \
  void* operator new(std::size_t size) {                                     \
    ::emon::util::AllocProbe::note();                                        \
    if (void* p = std::malloc(size ? size : 1)) {                            \
      return p;                                                              \
    }                                                                        \
    throw std::bad_alloc{};                                                  \
  }                                                                          \
  void* operator new[](std::size_t size) { return ::operator new(size); }    \
  void* operator new(std::size_t size, std::align_val_t align) {             \
    ::emon::util::AllocProbe::note();                                        \
    const auto a = static_cast<std::size_t>(align);                          \
    const std::size_t rounded = (size + a - 1) / a * a;                      \
    if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) {            \
      return p;                                                              \
    }                                                                        \
    throw std::bad_alloc{};                                                  \
  }                                                                          \
  void* operator new[](std::size_t size, std::align_val_t align) {           \
    return ::operator new(size, align);                                      \
  }                                                                          \
  void operator delete(void* p) noexcept { std::free(p); }                   \
  void operator delete[](void* p) noexcept { std::free(p); }                 \
  void operator delete(void* p, std::size_t) noexcept { std::free(p); }      \
  void operator delete[](void* p, std::size_t) noexcept { std::free(p); }    \
  void operator delete(void* p, std::align_val_t) noexcept {                 \
    std::free(p);                                                            \
  }                                                                          \
  void operator delete[](void* p, std::align_val_t) noexcept {               \
    std::free(p);                                                            \
  }                                                                          \
  void operator delete(void* p, std::size_t, std::align_val_t) noexcept {    \
    std::free(p);                                                            \
  }                                                                          \
  void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {  \
    std::free(p);                                                            \
  }
