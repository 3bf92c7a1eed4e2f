#include "trace_stats.hpp"

#include <algorithm>
#include <utility>

#include "common.hpp"

namespace perfbench {
namespace {

using biosens::obs::EventPhase;
using biosens::obs::SpanEvent;

std::string base_name(const std::string& name) {
  return name.substr(0, name.find(' '));
}

struct Frame {
  const SpanEvent* begin = nullptr;
  std::uint64_t child_ns = 0;
};

/// Length of [lo, hi] that the given intervals do not cover.
std::uint64_t uncovered(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
    std::uint64_t lo, std::uint64_t hi) {
  if (hi <= lo) return 0;
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t cursor = lo;
  for (auto [b, e] : intervals) {
    b = std::max(b, cursor);
    e = std::min(e, hi);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return (hi - lo) - covered;
}

}  // namespace

void TraceSummary::merge(const TraceSummary& other) {
  for (std::size_t i = 0; i < self_ns.size(); ++i) {
    self_ns[i] += other.self_ns[i];
    spans[i] += other.spans[i];
  }
  for (const auto& [k, v] : other.span_names) span_names[k] += v;
  for (const auto& [k, v] : other.instants) instants[k] += v;
  for (const auto& [k, v] : other.async_waits_s) {
    auto& dst = async_waits_s[k];
    dst.insert(dst.end(), v.begin(), v.end());
  }
  thread_ns += other.thread_ns;
  uncovered_ns += other.uncovered_ns;
  prefill_ns += other.prefill_ns;
  problems.insert(problems.end(), other.problems.begin(),
                  other.problems.end());
}

TraceSummary summarize(const std::vector<biosens::obs::ThreadTrack>& tracks,
                       std::uint64_t window_begin_ns,
                       std::uint64_t window_end_ns) {
  TraceSummary out;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> top_level;
  std::vector<const SpanEvent*> async_events;
  std::uint64_t first_job_ns = UINT64_MAX;

  for (const auto& track : tracks) {
    std::vector<Frame> stack;
    std::uint64_t thread_self_ns = 0;
    std::uint64_t thread_top_ns = 0;
    for (const SpanEvent& ev : track.events) {
      switch (ev.phase) {
        case EventPhase::kBegin:
          stack.push_back(Frame{&ev, 0});
          if (ev.layer == biosens::Layer::kEngine &&
              base_name(ev.name) == "job") {
            first_job_ns = std::min(first_job_ns, ev.ts_ns);
          }
          break;
        case EventPhase::kEnd: {
          if (stack.empty() || stack.back().begin->name != ev.name ||
              ev.ts_ns < stack.back().begin->ts_ns) {
            out.problems.push_back("thread " + std::to_string(track.tid) +
                                   ": span '" + ev.name +
                                   "' ends without a matching begin");
            stack.clear();
            break;
          }
          const Frame frame = stack.back();
          stack.pop_back();
          const std::uint64_t dur = ev.ts_ns - frame.begin->ts_ns;
          if (frame.child_ns > dur) {
            out.problems.push_back("thread " + std::to_string(track.tid) +
                                   ": children of '" + ev.name +
                                   "' outlast it");
            break;
          }
          const auto layer = static_cast<std::size_t>(ev.layer);
          out.self_ns[layer] += dur - frame.child_ns;
          out.spans[layer] += 1;
          out.span_names[base_name(ev.name)] += 1;
          thread_self_ns += dur - frame.child_ns;
          if (stack.empty()) {
            thread_top_ns += dur;
            top_level.emplace_back(frame.begin->ts_ns, ev.ts_ns);
          } else {
            stack.back().child_ns += dur;
          }
          break;
        }
        case EventPhase::kInstant:
          out.instants[ev.name] += 1;
          break;
        case EventPhase::kAsyncBegin:
        case EventPhase::kAsyncEnd:
          async_events.push_back(&ev);
          break;
      }
    }
    if (!stack.empty()) {
      out.problems.push_back("thread " + std::to_string(track.tid) + ": " +
                             std::to_string(stack.size()) +
                             " spans never ended");
    }
    if (thread_self_ns != thread_top_ns) {
      out.problems.push_back(
          "thread " + std::to_string(track.tid) + ": self times sum to " +
          std::to_string(thread_self_ns) + " ns but top-level spans cover " +
          std::to_string(thread_top_ns) + " ns");
    }
    out.thread_ns += thread_top_ns;
  }
  out.uncovered_ns = uncovered(std::move(top_level), window_begin_ns,
                               window_end_ns);
  if (first_job_ns != UINT64_MAX && first_job_ns > window_begin_ns) {
    out.prefill_ns = first_job_ns - window_begin_ns;
  }

  // Async pairs begin and end on different threads; match them in time
  // order by (name, id). An id may be reused by a later batch, so a
  // begin is consumed by the first end that follows it.
  std::stable_sort(async_events.begin(), async_events.end(),
                   [](const SpanEvent* a, const SpanEvent* b) {
                     if (a->ts_ns != b->ts_ns) return a->ts_ns < b->ts_ns;
                     return a->phase == EventPhase::kAsyncBegin &&
                            b->phase == EventPhase::kAsyncEnd;
                   });
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> open;
  for (const SpanEvent* ev : async_events) {
    const auto key = std::make_pair(ev->name, ev->id);
    if (ev->phase == EventPhase::kAsyncBegin) {
      open[key] = ev->ts_ns;
      continue;
    }
    const auto it = open.find(key);
    if (it == open.end()) continue;  // begun before the window opened
    out.async_waits_s[ev->name].push_back(
        static_cast<double>(ev->ts_ns - it->second) * 1e-9);
    open.erase(it);
  }
  return out;
}

void add_layer_metrics(RunResult& result, const TraceSummary& summary,
                       double calls) {
  using biosens::Layer;
  for (const std::string& problem : summary.problems) {
    result.fail_check("trace: " + problem);
  }
  std::uint64_t self_total_ns = 0;
  for (const std::uint64_t ns : summary.self_ns) self_total_ns += ns;
  if (self_total_ns != summary.thread_ns) {
    result.fail_check("trace: layer self times sum to " +
                      std::to_string(self_total_ns) + " ns, thread time is " +
                      std::to_string(summary.thread_ns) + " ns");
  }
  const auto per_call = [calls](double v) { return v / calls; };
  for (const Layer layer :
       {Layer::kChem, Layer::kTransport, Layer::kElectrochem, Layer::kFet,
        Layer::kReadout, Layer::kAnalysis, Layer::kCore, Layer::kEngine,
        Layer::kService}) {
    result.add(std::string(biosens::to_string(layer)) + ".self_s", "s",
               per_call(summary.self_s(layer)));
  }
  const auto spans = [&](Layer layer) {
    return per_call(static_cast<double>(
        summary.spans[static_cast<std::size_t>(layer)]));
  };
  result.add("transport.spans", "count", spans(Layer::kTransport));
  result.add("electrochem.sweeps", "count", spans(Layer::kElectrochem));
  result.add("readout.acquisitions", "count", spans(Layer::kReadout));
  result.add("analysis.fits", "count", spans(Layer::kAnalysis));
  result.add("fet.transduce", "count", spans(Layer::kFet));
  result.add("core.measures", "count",
             per_call(static_cast<double>(summary.count("measure"))));
  result.add("engine.jobs", "count",
             per_call(static_cast<double>(summary.count("job"))));
  result.add("engine.attempts", "count",
             per_call(static_cast<double>(summary.count("attempt"))));

  const double hits =
      static_cast<double>(summary.instant_count("sim-cache-hit"));
  const double misses =
      static_cast<double>(summary.instant_count("sim-cache-miss"));
  result.add("engine.cache_hits", "count", per_call(hits));
  result.add("engine.cache_misses", "count", per_call(misses));
  result.add("engine.cache_hit_frac", "frac",
             hits + misses > 0 ? hits / (hits + misses) : 0.0);

  const auto waits = [&summary](const std::string& name) {
    const auto it = summary.async_waits_s.find(name);
    return it == summary.async_waits_s.end() ? std::vector<double>{}
                                             : it->second;
  };
  result.add("engine.prefill_s", "s",
             per_call(static_cast<double>(summary.prefill_ns) * 1e-9));
  result.add("engine.queue_wait_p99_ms", "ms",
             1e3 * quantile(waits("queue-wait"), 0.99));
  result.add("service.queue_wait_p50_us", "us",
             1e6 * quantile(waits("svc-queue"), 0.50));
  result.add("service.queue_wait_p99_us", "us",
             1e6 * quantile(waits("svc-queue"), 0.99));

  result.add("bench.thread_s", "s",
             per_call(static_cast<double>(summary.thread_ns) * 1e-9));
  result.add("bench.unattributed_s", "s",
             per_call(static_cast<double>(summary.uncovered_ns) * 1e-9));
}

void add_engine_metrics(
    RunResult& result,
    const std::vector<biosens::engine::MetricsSnapshot>& snapshots) {
  double attempts = 0.0, succeeded = 0.0, retries = 0.0, busy = 0.0,
         utilization = 0.0;
  for (const auto& s : snapshots) {
    attempts += static_cast<double>(s.attempts);
    succeeded += static_cast<double>(s.jobs_succeeded);
    retries += static_cast<double>(s.retries);
    busy += s.busy_seconds;
    utilization += s.utilization();
  }
  const double n =
      static_cast<double>(std::max<std::size_t>(snapshots.size(), 1));
  result.add("engine.useful_frac", "frac",
             attempts > 0 ? succeeded / attempts : 0.0);
  result.add("engine.retries", "count", retries / n);
  result.add("engine.busy_s", "s", busy / n);
  result.add("engine.utilization", "workers", utilization / n);
}

}  // namespace perfbench
