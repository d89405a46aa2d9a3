#pragma once
// Time-series trace recorder.
//
// The repository's stand-in for the paper's Grafana dashboards: components
// append (time, series, value) points; benches dump series as CSV or bin
// them for ASCII charts (Figures 5 and 6).
//
// Series handles.  Appending by name builds the name and walks a map of
// every series (60 k of them at fleet scale, with long shared prefixes).
// Per-record writers instead keep a `SeriesRef` and append through it: one
// push_back, no lookup.  The contract:
//
//   - Resolve on first append, never earlier.  A handle names a series, and
//     `series_ref()` creates the series if it is missing; resolving at
//     construction or bind time would create empty series, which show in
//     `series_names()` and `digest()`.  Callers keep a default (null)
//     handle and resolve it just before its first append.
//   - A handle belongs to the one Trace that issued it, and stays valid
//     until that Trace's `clear()` (series nodes never move before then,
//     however many other series are created).  Rebinding a writer to
//     another Trace (bind_trace(), DeviceApp::adopt()) resets its handles.
//   - `clear()` invalidates every outstanding handle.  Appending through a
//     stale handle, or through one another Trace issued, throws
//     std::logic_error; appending through a null handle does too.
//   - Handle and by-name appends to a series are interchangeable: a trace
//     built through handles equals the by-name trace point for point.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace emon::sim {

struct TracePoint {
  SimTime time;
  double value = 0.0;
};

/// Named time-series store.  Series are created on first append.
class Trace {
 public:
  /// Opaque handle to one series of one Trace (see the contract above).
  /// Default-constructed handles are null: resolve them with series_ref().
  class SeriesRef {
   public:
    SeriesRef() = default;
    explicit operator bool() const noexcept { return points_ != nullptr; }

   private:
    friend class Trace;
    SeriesRef(std::vector<TracePoint>* points, std::uint64_t epoch) noexcept
        : points_(points), handle_epoch_(epoch) {}
    std::vector<TracePoint>* points_ = nullptr;
    std::uint64_t handle_epoch_ = 0;
  };

  Trace();
  // Handles point into this object's series; a copy or move would leave
  // them naming the wrong Trace.
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// The handle of `series`, creating the series (empty) if it is missing.
  [[nodiscard]] SeriesRef series_ref(std::string_view series);

  /// Appends through a handle this Trace issued since its last clear().
  void append(SeriesRef series, SimTime t, double value) {
    if (series.handle_epoch_ != handle_epoch_) {
      throw_stale_handle();
    }
    series.points_->push_back(TracePoint{t, value});
    ++points_;
  }
  void append(std::string_view series, SimTime t, double value) {
    append(series_ref(series), t, value);
  }

  /// Bulk append preserving order — the per-shard trace merge path.
  void append_points(std::string_view series,
                     const std::vector<TracePoint>& points);

  [[nodiscard]] bool has(std::string_view series) const;
  [[nodiscard]] const std::vector<TracePoint>& series(
      std::string_view name) const;
  [[nodiscard]] std::vector<std::string> series_names() const;
  [[nodiscard]] std::size_t total_points() const noexcept { return points_; }

  /// Sums values of a series within [from, to).
  [[nodiscard]] double sum_in(std::string_view series, SimTime from,
                              SimTime to) const;

  /// Means of a series within [from, to); returns 0 for empty windows.
  [[nodiscard]] double mean_in(std::string_view series, SimTime from,
                               SimTime to) const;

  /// Order-sensitive FNV-1a digest of every (series, time, value) point —
  /// the reproducibility fingerprint of a run (same scenario + seed ==>
  /// same digest).
  [[nodiscard]] std::uint64_t digest() const noexcept;

  // Long-format dump schema (shared by both writers): one row/object per
  // point, series in sorted name order, points in append order within a
  // series.  Fields: time_s (sim time, seconds, double), series (name
  // string), value (double).
  //
  /// Writes "time_s,series,value" rows for all series (long format).
  void write_csv(std::ostream& out) const;
  /// Writes the same long format as JSON: an array of
  /// {"time_s":..,"series":"..","value":..} objects — the bench-artifact
  /// style shared with the obs metrics exporters (BENCH_obs.json).
  void write_json(std::ostream& out) const;

  /// Drops every series and invalidates every outstanding handle.
  void clear() noexcept;

 private:
  [[noreturn]] static void throw_stale_handle();

  std::map<std::string, std::vector<TracePoint>, std::less<>> series_;
  std::size_t points_ = 0;
  /// Issuer stamp of this Trace's handles: unique per Trace and per
  /// clear(), so a stale or foreign handle never matches.
  std::uint64_t handle_epoch_;
};

}  // namespace emon::sim
