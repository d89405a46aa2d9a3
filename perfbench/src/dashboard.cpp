#include "dashboard.hpp"

#include <exception>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kSecond = 1'000'000'000;

/// Times one query into `tally`; returns its latency in ns, or a negative
/// value when it threw.
template <typename Fn>
double timed(QueryTally& tally, std::size_t kind, Fn&& fn) {
  const auto t0 = Clock::now();
  std::uint64_t matched = 0;
  try {
    matched = fn();
  } catch (const std::exception&) {
    ++tally.failed;
    return -1.0;
  }
  const double ns = ns_since(t0);
  ++tally.answered;
  tally.ns_by_kind[kind] += ns;
  ++tally.count_by_kind[kind];
  tally.records_matched += matched;
  return ns;
}

}  // namespace

void dashboard_round(const emon::store::QueryEngine& engine,
                     std::int64_t wm_ns, QueryTally& tally,
                     const std::vector<emon::store::DeviceId>* devices) {
  using emon::store::QuerySpec;
  const auto scoped = [devices] {
    QuerySpec spec;
    spec.borrowed_devices = devices;
    spec.devices_presorted = devices != nullptr;
    return spec;
  };
  const double verify_ns = timed(tally, 0, [&] {
    QuerySpec spec = scoped();
    spec.t0_ns = wm_ns - 2 * kSecond;
    spec.t1_ns = wm_ns + 1;
    spec.filter.stored_offline = false;
    return std::uint64_t(engine.current_stats(spec).merged.count());
  });
  const double windows_ns = timed(tally, 1, [&] {
    QuerySpec spec = scoped();
    spec.window_ns = kSecond;
    spec.t0_ns = (wm_ns - 10 * kSecond) / kSecond * kSecond;
    spec.t1_ns = wm_ns + 1;
    std::uint64_t n = 0;
    for (const auto& w : engine.downsample(spec).merged) {
      n += w.count;
    }
    return n;
  });
  const double breakdown_ns = timed(tally, 2, [&] {
    QuerySpec spec = scoped();
    spec.t0_ns = wm_ns - 10 * kSecond;
    std::uint64_t n = 0;
    for (const auto& [network, usage] : engine.network_breakdown(spec).merged) {
      (void)network;
      n += usage.records;
    }
    return n;
  });
  if (verify_ns >= 0 && windows_ns >= 0 && breakdown_ns >= 0) {
    tally.refresh_us.push_back((verify_ns + windows_ns + breakdown_ns) /
                               1000.0);
  }
}

}  // namespace perfbench
