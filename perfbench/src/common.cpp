#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + '"';
}

template <typename Map, typename Fn>
std::string object(const Map& m, Fn value) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    out += (first ? "" : ", ") + quoted(k) + ": " + value(v);
    first = false;
  }
  return out + "}";
}

}  // namespace

void print_result(const std::string& workload, const RunResult& r) {
  std::ostringstream os;
  os << "{\"workload\": " << quoted(workload)
     << ", \"correct\": " << (r.all_ok() ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"run_wall_s\": " << number(r.run_wall_s)
     << ", \"end_to_end\": " << object(r.end_to_end, number)
     << ", \"per_layer\": " << object(r.per_layer, number)
     << ", \"counts\": " << object(r.counts, quoted) << ", \"checks\": "
     << object(r.checks, [](bool ok) { return ok ? "true" : "false"; })
     << "}";
  std::cout << os.str() << std::endl;
}

}  // namespace perfbench
