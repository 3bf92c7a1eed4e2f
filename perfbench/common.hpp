// Shared vocabulary of the repo benchmark: run options, the metric list
// a workload returns, and the small statistics and fingerprint helpers
// every workload uses. See README.md for what each metric means.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

/// The command line: `--workload W --seed N --seconds S --trace 0|1`.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Worker threads of the engine and the service: one core of a 4-core
/// machine stays free for the caller or the open-loop generator.
inline constexpr std::size_t kWorkers = 3;

/// Set-up repetitions per run: at least kSetupReps, and more while
/// their summed time is under kSetupMinSeconds, so a sub-millisecond
/// set-up still yields a steady median. setup_s reports the median.
inline constexpr int kSetupReps = 5;
inline constexpr double kSetupMinSeconds = 0.25;
inline constexpr int kSetupMaxReps = 1000;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one workload run reports. `attempted` and `failed` count the
/// workload's operations (table rows, panels, requests); a refused
/// request is a failed one. `problems` lists the first failed
/// correctness checks, one line each.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void fail_check(std::string what) {
    correct = false;
    if (problems.size() < kMaxProblems) problems.push_back(std::move(what));
  }

  static constexpr std::size_t kMaxProblems = 20;
};

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Quantile by linear interpolation between order statistics; 0 for an
/// empty sample. Infinite values (failed requests) sort last.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || values[hi] == values[lo]) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Builds a workload's set-up repeatedly (see kSetupReps), timing each
/// build, and keeps the last one; `median_s` receives the median.
/// `make(rep)` returns an Expected owner. A failed build is reported on
/// `result` and yields an empty owner.
template <class Make>
auto set_up(const Make& make, RunResult& result, double& median_s) {
  using Owner = std::remove_cvref_t<decltype(make(0).value())>;
  Owner owner{};
  std::vector<double> seconds;
  double total_s = 0.0;
  for (int rep = 0; rep < kSetupReps ||
                    (total_s < kSetupMinSeconds && rep < kSetupMaxReps);
       ++rep) {
    owner = Owner{};
    const auto t0 = Clock::now();
    auto made = make(rep);
    seconds.push_back(seconds_between(t0, Clock::now()));
    total_s += seconds.back();
    if (!made.has_value()) {
      result.attempted += 1;
      result.failed += 1;
      result.fail_check("set-up: " + made.error().describe());
      return Owner{};
    }
    owner = std::move(made).value();
  }
  median_s = median(seconds);
  return owner;
}

/// FNV-1a over the exact bit patterns of the results a workload
/// produced, so a traced and an untraced run can be compared bit for
/// bit.
class Fingerprint {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Prints the run's context (machine fingerprint, seed) as one JSON
/// line, and the result as the final JSON line.
void print_context(const Options& options);
void print_result(const RunResult& result);

}  // namespace perfbench
