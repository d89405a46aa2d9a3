#include "sim/trace.hpp"

#include <atomic>
#include <bit>
#include <stdexcept>

namespace emon::sim {

namespace {
/// Process-wide source of handle epochs (never 0, the null handle's).
std::uint64_t next_epoch() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

Trace::Trace() : handle_epoch_(next_epoch()) {}

Trace::SeriesRef Trace::series_ref(std::string_view series) {
  auto it = series_.find(series);
  if (it == series_.end()) {
    it = series_.emplace(std::string(series), std::vector<TracePoint>{}).first;
  }
  return SeriesRef{&it->second, handle_epoch_};
}

void Trace::throw_stale_handle() {
  throw std::logic_error(
      "Trace::SeriesRef used on a Trace that did not issue it, or after "
      "clear()");
}

void Trace::append_points(std::string_view series,
                          const std::vector<TracePoint>& points) {
  std::vector<TracePoint>& dest = *series_ref(series).points_;
  dest.insert(dest.end(), points.begin(), points.end());
  points_ += points.size();
}

bool Trace::has(std::string_view series) const {
  return series_.find(series) != series_.end();
}

const std::vector<TracePoint>& Trace::series(std::string_view name) const {
  const auto it = series_.find(name);
  if (it == series_.end()) {
    throw std::out_of_range("no trace series named '" + std::string(name) +
                            "'");
  }
  return it->second;
}

std::vector<std::string> Trace::series_names() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, _] : series_) {
    names.push_back(name);
  }
  return names;
}

double Trace::sum_in(std::string_view name, SimTime from, SimTime to) const {
  const auto it = series_.find(name);
  if (it == series_.end()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const auto& p : it->second) {
    if (p.time >= from && p.time < to) {
      sum += p.value;
    }
  }
  return sum;
}

double Trace::mean_in(std::string_view name, SimTime from, SimTime to) const {
  const auto it = series_.find(name);
  if (it == series_.end()) {
    return 0.0;
  }
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& p : it->second) {
    if (p.time >= from && p.time < to) {
      sum += p.value;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

void Trace::write_csv(std::ostream& out) const {
  out << "time_s,series,value\n";
  for (const auto& [name, points] : series_) {
    for (const auto& p : points) {
      out << p.time.to_seconds() << ',' << name << ',' << p.value << '\n';
    }
  }
}

void Trace::write_json(std::ostream& out) const {
  out << "[";
  bool first = true;
  for (const auto& [name, points] : series_) {
    for (const auto& p : points) {
      if (!first) out << ',';
      first = false;
      out << "{\"time_s\":" << p.time.to_seconds() << ",\"series\":\"";
      for (const char c : name) {
        if (c == '"' || c == '\\') out << '\\';
        out << c;
      }
      out << "\",\"value\":" << p.value << '}';
    }
  }
  out << "]";
}

std::uint64_t Trace::digest() const noexcept {
  // FNV-1a over (name, time, value-bits) of every point, in the map's
  // deterministic (sorted) series order.  Two runs of the same scenario and
  // seed must produce the same digest — the determinism contract the fleet
  // tests pin down.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [name, points] : series_) {
    for (const char c : name) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
    for (const auto& p : points) {
      mix(static_cast<std::uint64_t>(p.time.ns()));
      mix(std::bit_cast<std::uint64_t>(p.value));
    }
  }
  return h;
}

void Trace::clear() noexcept {
  series_.clear();
  points_ = 0;
  handle_epoch_ = next_epoch();
}

}  // namespace emon::sim
