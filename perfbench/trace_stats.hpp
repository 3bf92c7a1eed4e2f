// The benchmark's trace consumer: turns the begin/end, async and instant
// events a TraceSession collected into per-layer exclusive (self) time,
// span counts, wait times and instant counts.
//
// Self time of a span is its duration minus the time its direct child
// spans on the same thread cover. Summed over every layer, the self
// times of one thread equal the time its top-level spans cover; the
// summary re-derives both sums independently and reports any thread
// where they differ, or whose spans do not nest, as a problem.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/metrics.hpp"
#include "obs/span.hpp"

namespace perfbench {

struct TraceSummary {
  std::array<std::uint64_t, biosens::kLayerCount> self_ns{};
  std::array<std::uint64_t, biosens::kLayerCount> spans{};
  /// Completed spans by base name (the span name up to its first space,
  /// so "measure <sensor>" counts as "measure").
  std::map<std::string, std::uint64_t> span_names;
  std::map<std::string, std::uint64_t> instants;
  /// Begin-to-end durations of async pairs, in seconds, by name.
  std::map<std::string, std::vector<double>> async_waits_s;
  /// Summed over threads: time covered by each thread's top-level spans.
  std::uint64_t thread_ns = 0;
  /// Part of [window_begin, window_end] that no span on any thread
  /// covers.
  std::uint64_t uncovered_ns = 0;
  /// Time from the window's start to the first engine "job" span: the
  /// caller's serial work before the batch fans out. 0 without jobs.
  std::uint64_t prefill_ns = 0;
  std::vector<std::string> problems;

  [[nodiscard]] double self_s(biosens::Layer layer) const {
    return static_cast<double>(self_ns[static_cast<std::size_t>(layer)]) *
           1e-9;
  }
  [[nodiscard]] std::uint64_t count(const std::string& span_name) const {
    const auto it = span_names.find(span_name);
    return it == span_names.end() ? 0 : it->second;
  }
  [[nodiscard]] std::uint64_t instant_count(const std::string& name) const {
    const auto it = instants.find(name);
    return it == instants.end() ? 0 : it->second;
  }

  /// Adds another summary's totals (per-call summaries into a run's).
  void merge(const TraceSummary& other);
};

/// Summarizes one recording window. Timestamps are the session's
/// nanoseconds since its start().
[[nodiscard]] TraceSummary summarize(
    const std::vector<biosens::obs::ThreadTrack>& tracks,
    std::uint64_t window_begin_ns, std::uint64_t window_end_ns);

struct RunResult;

/// Adds the trace-derived per-layer metrics of `summary`, divided by
/// `calls` so they read per timed call (one Table 2, one panel batch,
/// one clinic window). Also fails the run on any nesting problem.
void add_layer_metrics(RunResult& result, const TraceSummary& summary,
                       double calls);

/// Adds the engine's per-call work and waste metrics, averaged over
/// the untraced calls' Engine::snapshot()s.
void add_engine_metrics(
    RunResult& result,
    const std::vector<biosens::engine::MetricsSnapshot>& snapshots);

}  // namespace perfbench
