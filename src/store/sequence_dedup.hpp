#pragma once
// The one per-device duplicate filter over record sequences.
//
// Both the aggregator edge (MemberEntry::seen_sequences) and the store
// (Tsdb's per-series writer state) drop QoS-1 retransmissions, probe/backlog
// overlaps and double roam-forwards with this class, so "is this record a
// duplicate?" has one answer everywhere.
//
// Window semantics: the filter remembers the highest kWindow sequences it has
// admitted.  A sequence inside the window that was already admitted is a
// duplicate; any other sequence is admitted.  A sequence below the window's
// floor (once the window is full) is admitted but not remembered — every
// real duplicate source re-arrives near the high-water mark.  Memory is
// bounded at kWindow * 8 bytes = 32 KB per device, however long the run.
//
// Implementation: a sorted circular window.  The ring's capacity grows
// geometrically (16 -> ... -> kWindow, power of two) and then never again;
// arrivals are near-monotonic, so the common admit is an append at the back
// and eviction is a head advance — both O(1) with no allocation, which is
// what the EMON_HOT zero-allocation contract on Tsdb::ingest() needs
// (tools/emon_lint.py checks the body statically, tests/test_hot_alloc.cpp
// counts operator new at runtime).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace emon::store {

class SequenceDedup {
 public:
  /// Sequences remembered per device.  At 10 Hz reporting this covers ~7
  /// minutes of re-arrival horizon.
  static constexpr std::size_t kWindow = 4096;

  /// True when `seq` is first-seen inside the window (accept the record),
  /// false for a duplicate.
  EMON_HOT bool admit(std::uint64_t seq) {
    // Binary search over the logical (sorted) window.
    std::size_t lo = 0;
    std::size_t hi = size_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (slot(mid) < seq) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < size_ && slot(lo) == seq) {
      return false;
    }
    if (size_ == kWindow) {
      if (lo == 0) {
        return true;  // below the floor: accepted, not remembered
      }
      begin_ = (begin_ + 1) & (slots_.size() - 1);
      --size_;
      --lo;
    }
    if (size_ + 1 > slots_.size()) {
      grow();
    }
    for (std::size_t i = size_; i > lo; --i) {
      slot(i) = slot(i - 1);
    }
    slot(lo) = seq;
    ++size_;
    return true;
  }

  /// Sequences currently remembered (<= kWindow).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  [[nodiscard]] std::uint64_t& slot(std::size_t logical) noexcept {
    return slots_[(begin_ + logical) & (slots_.size() - 1)];
  }
  /// Cold: doubles the ring and linearizes it; runs at most
  /// log2(kWindow / 16) + 1 times per device, during warmup.
  void grow() {
    std::vector<std::uint64_t> bigger(
        std::max<std::size_t>(16, slots_.size() * 2));
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = slot(i);
    }
    slots_ = std::move(bigger);
    begin_ = 0;
  }

  std::vector<std::uint64_t> slots_;
  std::size_t begin_ = 0;
  std::size_t size_ = 0;
};

}  // namespace emon::store
