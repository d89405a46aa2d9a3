#pragma once
// The dashboard read mix both workload families time, for one network's
// devices: a verification read (live-only current_stats over the trailing
// 2 s), a 1 s downsample and a network breakdown over the trailing 10 s.
// Windows trail the store's watermark, so the work per query stays bounded
// however long the store's history grows.

#include <array>
#include <cstdint>
#include <vector>

#include "store/query_engine.hpp"

namespace perfbench {

inline constexpr std::array<const char*, 3> kQueryKinds = {
    "current_stats", "downsample", "network_breakdown"};

struct QueryTally {
  /// Latency of every dashboard refresh (one round of the three queries,
  /// all answered), microseconds.
  std::vector<double> refresh_us;
  std::uint64_t answered = 0;
  std::array<double, kQueryKinds.size()> ns_by_kind{};
  std::array<std::uint64_t, kQueryKinds.size()> count_by_kind{};
  /// Records the answers covered (current_stats count, window counts,
  /// breakdown records) — the work a query had to do.
  std::uint64_t records_matched = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] std::uint64_t queries() const { return answered; }
};

/// Runs the three queries once against `engine` at watermark `wm_ns` over
/// `devices` (sorted and unique; null reads every device in the store).
void dashboard_round(const emon::store::QueryEngine& engine,
                     std::int64_t wm_ns, QueryTally& tally,
                     const std::vector<emon::store::DeviceId>* devices =
                         nullptr);

}  // namespace perfbench
