// Shared plumbing of the benchmark program: command-line options, the run
// result every workload fills in, and small statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "support/bytes.hpp"
#include "support/crc32.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Median of a copy (the mean of the two middle values for even sizes).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Nearest-rank percentile over a sorted vector (p in [0, 1]).
template <typename T>
T percentile_sorted(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return T{};
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

inline std::uint32_t crc_of(const std::string& text) {
  return wideleak::crc32(wideleak::BytesView(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

/// splitmix64: derives independent sub-seeds from the --seed argument.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Options {
  Clock::time_point start = Clock::now();
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;           // the run's measuring budget, set-up included
  bool trace = false;
  std::string trace_dir = ".bench_build";  // Chrome trace JSON lands here
  std::size_t threads = 4;                 // load threads, never above nproc

  /// When the run's measuring budget ends.
  Clock::time_point deadline() const {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  }
};

/// The default seed: committed output checksums are checked at this seed.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: outcome accounting, output checks and metrics.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;

  /// Count one operation; a failed one is also a failed check.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      check_failures.push_back(what);
    }
  }
  /// An output check that is not itself an operation.
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  bool correct() const { return check_failures.empty() && failed == 0; }
};

/// Samples of the end-to-end metrics, collected over a run; each metric is
/// reported as the median of its samples.
class Samples {
 public:
  void add(const std::string& name, double value) { values_[name].push_back(value); }
  void add(const std::string& name, const std::vector<double>& values) {
    auto& into = values_[name];
    into.insert(into.end(), values.begin(), values.end());
  }
  /// Adds the median of `name`'s samples to `result` and prints the sample
  /// count and range beside it.
  void report(RunResult& result, const std::string& name, const std::string& unit) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return;  // main() names a metric nobody measured
    const double value = median(it->second);
    const auto [lo, hi] = std::minmax_element(it->second.begin(), it->second.end());
    std::cout << "  " << name << ": median " << value << " " << unit << " of "
              << it->second.size() << " samples (min " << *lo << ", max " << *hi << ")\n";
    result.metric(name, value, unit);
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Runs `legs` round-robin, a whole round at a time, until `deadline` has
/// passed and at least `min_rounds` rounds are done. The host's speed
/// drifts over seconds, so interleaving spreads every leg's samples over
/// the whole run instead of giving each leg one stretch of it.
inline void run_rounds(Clock::time_point deadline, std::size_t min_rounds,
                       const std::vector<std::function<void()>>& legs) {
  for (std::size_t round = 0; round < min_rounds || Clock::now() < deadline; ++round) {
    for (const auto& leg : legs) leg();
  }
}

}  // namespace perfbench
