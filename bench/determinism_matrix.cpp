// Scenario × seed determinism matrix — the whole-system reproducibility
// gate behind the emon_lint determinism rules (wall-clock, unordered-iter-
// escape, unseeded-rng, ptr-order): every canned scenario, at two seeds
// and at {1, 4} shards, runs to two digests — the Trace::digest() and a
// verification digest over every aggregator's verification_history() (the
// paper's verify-against-the-feeder output, which the trace does not
// record) — and each of them
//
//   * is bit-identical between 1-shard and 4-shard execution (hard gate
//     here — the conservative-lookahead contract), and
//   * matches the checked-in table tools/determinism_matrix.json across
//     revisions (tools/check_determinism_matrix.py diffs the artifact; a
//     digest drift means a behavioural change that must be intentional
//     and re-pinned with --update).
//
// Also gates that the two seeds differ (a scenario whose digest ignores
// the seed has lost its stochastic wiring).
//
// Writes BENCH_determinism.json (digests as hex strings — JSON numbers
// cannot carry 64 bits exactly).
//
// Flags: --duration-s X   simulated seconds per run (default 10)
//        --scenario NAME  restrict to one canned scenario (repeatable)
//        --out FILE       (default BENCH_determinism.json)

#include <bit>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "util/log.hpp"

namespace {

using Clock = std::chrono::steady_clock;

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

struct Entry {
  std::string scenario;
  std::uint64_t seed = 0;
  std::size_t shards = 0;
  std::uint64_t digest = 0;
  std::uint64_t verify_digest = 0;
  double wall_s = 0.0;
};

/// FNV-1a over every aggregator's verification history, in aggregator
/// order: window bounds, the double fields as bit patterns, `anomalous`,
/// `suspect` and the per-device `scores` (in their map's sorted order).
std::uint64_t verification_digest(emon::core::Testbed& bed) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto put8 = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  const auto put64 = [&put8](std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      put8(static_cast<std::uint8_t>(w >> (8 * i)));
    }
  };
  const auto put_double = [&put64](double d) {
    put64(std::bit_cast<std::uint64_t>(d));
  };
  const auto put_string = [&put8, &put64](const std::string& s) {
    put64(s.size());
    for (const char c : s) {
      put8(static_cast<std::uint8_t>(c));
    }
  };
  for (std::size_t a = 0; a < bed.network_count(); ++a) {
    const auto& history = bed.aggregator(a).verification_history();
    put64(history.size());
    for (const auto& v : history) {
      put64(static_cast<std::uint64_t>(v.window_start.ns()));
      put64(static_cast<std::uint64_t>(v.window_end.ns()));
      put_double(v.feeder_ma);
      put_double(v.reported_sum_ma);
      put_double(v.expected_feeder_ma);
      put_double(v.residual_ma);
      put8(v.anomalous ? 1 : 0);
      put_string(v.suspect);
      put64(v.scores.size());
      for (const auto& [device, score] : v.scores) {
        put_string(device);
        put_double(score);
      }
    }
  }
  return h;
}

Entry run_one(const std::string& name, std::uint64_t seed, std::size_t shards,
              double duration_s) {
  using namespace emon;
  Entry e;
  e.scenario = name;
  e.seed = seed;
  e.shards = shards;
  const auto t0 = Clock::now();
  core::Testbed bed{core::canned_scenario(name, seed),
                    core::TestbedOptions{shards}};
  bed.start();
  bed.run_for(sim::seconds_f(duration_s));
  e.digest = bed.trace().digest();
  e.verify_digest = verification_digest(bed);
  e.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace emon;
  util::LogConfig::set_level(util::LogLevel::kError);

  double duration_s = 10.0;
  std::vector<std::string> scenarios;
  std::string out_path = "BENCH_determinism.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--duration-s") {
      duration_s = std::stod(value);
    } else if (flag == "--scenario") {
      scenarios.push_back(value);
    } else if (flag == "--out") {
      out_path = value;
    } else {
      std::cerr << "unknown flag " << flag << '\n';
      return 2;
    }
  }
  if (scenarios.empty()) {
    scenarios = core::canned_scenario_names();
  }
  const std::vector<std::uint64_t> seeds = {1, 2};
  const std::vector<std::size_t> shard_counts = {1, 4};

  std::vector<Entry> entries;
  bool shard_parity = true;
  bool seed_sensitivity = true;
  for (const auto& name : scenarios) {
    for (const std::uint64_t seed : seeds) {
      std::vector<Entry> per_shards;
      for (const std::size_t shards : shard_counts) {
        per_shards.push_back(run_one(name, seed, shards, duration_s));
        const Entry& e = per_shards.back();
        std::cout << name << " seed=" << seed << " shards=" << shards
                  << " digest=" << hex64(e.digest)
                  << " verify=" << hex64(e.verify_digest) << " ("
                  << e.wall_s << " s)\n";
      }
      for (std::size_t i = 1; i < per_shards.size(); ++i) {
        const Entry& a = per_shards[0];
        const Entry& b = per_shards[i];
        if (b.digest != a.digest || b.verify_digest != a.verify_digest) {
          shard_parity = false;
          std::cerr << "SHARD PARITY FAIL: " << name << " seed=" << seed
                    << ": shards=" << a.shards << " -> " << hex64(a.digest)
                    << "/" << hex64(a.verify_digest) << " but shards="
                    << b.shards << " -> " << hex64(b.digest) << "/"
                    << hex64(b.verify_digest) << '\n';
        }
      }
      entries.insert(entries.end(), per_shards.begin(), per_shards.end());
    }
    // The two seeds' 1-shard digests must differ.
    std::uint64_t d1 = 0;
    std::uint64_t d2 = 0;
    for (const Entry& e : entries) {
      if (e.scenario == name && e.shards == shard_counts[0]) {
        (e.seed == seeds[0] ? d1 : d2) = e.digest;
      }
    }
    if (d1 == d2) {
      seed_sensitivity = false;
      std::cerr << "SEED SENSITIVITY FAIL: " << name
                << " ignores its seed (digest " << hex64(d1) << ")\n";
    }
  }

  std::ofstream json(out_path);
  json << "{\n  \"duration_s\": " << duration_s << ",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    json << "    {\"scenario\": \"" << e.scenario << "\", \"seed\": "
         << e.seed << ", \"shards\": " << e.shards << ", \"digest\": \""
         << hex64(e.digest) << "\", \"verify_digest\": \""
         << hex64(e.verify_digest) << "\", \"wall_s\": " << e.wall_s << "}"
         << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"shard_parity\": " << (shard_parity ? "true" : "false")
       << ",\n  \"seed_sensitivity\": "
       << (seed_sensitivity ? "true" : "false") << "\n}\n";
  std::cout << "json: " << out_path << '\n';

  std::cout << "gates: shard parity " << (shard_parity ? "PASS" : "FAIL")
            << "; seed sensitivity "
            << (seed_sensitivity ? "PASS" : "FAIL") << '\n';
  return (shard_parity && seed_sensitivity) ? 0 : 1;
}
