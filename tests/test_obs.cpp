// Observability subsystem: span/session mechanics, histogram edge
// contract, exporter structure, flight recorder, sampler, health model,
// watchdog, and the central non-perturbation guarantee — observing must
// never change batch results.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/platform.hpp"
#include "engine/engine.hpp"
#include "obs/export_chrome.hpp"
#include "obs/export_jsonl.hpp"
#include "obs/export_prometheus.hpp"
#include "obs/health.hpp"
#include "obs/instruments.hpp"
#include "obs/recorder.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"

namespace biosens::obs {
namespace {

TEST(LatencyHistogramEdges, BucketEdgesAreStrictlyIncreasing) {
  double previous = 0.0;
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    const double edge = LatencyHistogram::bucket_edge(b);
    EXPECT_GT(edge, previous) << "bucket " << b;
    previous = edge;
  }
  EXPECT_NEAR(LatencyHistogram::bucket_edge(0), 1e-6 * 1.54, 1e-6);
  EXPECT_NEAR(
      LatencyHistogram::bucket_edge(LatencyHistogram::kBuckets - 1), 1e3,
      1.0);
}

TEST(LatencyHistogramEdges, EmptyHistogramReportsZeroEverywhere) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(1.0), 0.0);
  EXPECT_EQ(h.max_seconds(), 0.0);
  EXPECT_EQ(h.total_seconds(), 0.0);
}

TEST(LatencyHistogramEdges, SingleSampleQuantiles) {
  LatencyHistogram h;
  h.record(0.002);
  // Every q > 0 lands on the single sample's bucket edge; q <= 0 is 0.
  const double edge = h.quantile(1.0);
  EXPECT_GT(edge, 0.002 / 1.6);
  EXPECT_LT(edge, 0.002 * 1.6);
  EXPECT_EQ(h.quantile(0.001), edge);
  EXPECT_EQ(h.quantile(0.5), edge);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(-3.0), 0.0);
  EXPECT_EQ(h.quantile(7.0), edge);  // clamped to q=1
}

TEST(LatencyHistogramEdges, BucketCountsMatchRecordings) {
  LatencyHistogram h;
  h.record(1e-5);
  h.record(1e-5);
  h.record(10.0);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    total += h.bucket_count(b);
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets + 7), 0u);
}

TEST(TraceSessionTest, SpansAreNoOpsWithoutASession) {
  ASSERT_EQ(TraceSession::current(), nullptr);
  {
    ObsSpan span(Layer::kChem, "orphan");
    EXPECT_FALSE(span.enabled());
    span.annotate("ignored");
  }
  TraceSession::instant(Layer::kEngine, "orphan-instant");
  // Nothing to assert beyond "did not crash": there is no session to
  // accumulate anything into.
}

TEST(TraceSessionTest, RecordsBalancedSpansAndLayerLatency) {
  TraceSession session;
  session.start();
  {
    ObsSpan outer(Layer::kCore, "outer");
    ObsSpan inner(Layer::kChem, "inner");
    EXPECT_TRUE(inner.enabled());
  }
  TraceSession::instant(Layer::kEngine, "tick", "note");
  session.stop();

  EXPECT_EQ(session.span_count(), 2u);
  EXPECT_EQ(session.failed_span_count(), 0u);
  EXPECT_EQ(session.event_count(), 5u);  // 2 B + 2 E + 1 instant
  EXPECT_EQ(session.layer_latency(Layer::kCore).count(), 1u);
  EXPECT_EQ(session.layer_latency(Layer::kChem).count(), 1u);
  EXPECT_EQ(session.layer_latency(Layer::kReadout).count(), 0u);

  const auto tracks = session.tracks();
  ASSERT_EQ(tracks.size(), 1u);
  int depth = 0;
  for (const SpanEvent& event : tracks[0].events) {
    if (event.phase == EventPhase::kBegin) ++depth;
    if (event.phase == EventPhase::kEnd) {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceSessionTest, FailedSpanCarriesErrorDescription) {
  TraceSession session;
  session.start();
  {
    ObsSpan span(Layer::kAnalysis, "fit");
    span.fail(make_error(ErrorCode::kAnalysis, Layer::kAnalysis,
                         "calibrate", "slope is not positive"));
  }
  session.stop();
  EXPECT_EQ(session.failed_span_count(), 1u);
  EXPECT_EQ(session.layer_failures(Layer::kAnalysis), 1u);

  const auto tracks = session.tracks();
  ASSERT_EQ(tracks.size(), 1u);
  const SpanEvent& end = tracks[0].events.back();
  EXPECT_EQ(end.phase, EventPhase::kEnd);
  EXPECT_TRUE(end.failed);
  EXPECT_NE(end.detail.find("[analysis/calibrate]"), std::string::npos);
  EXPECT_NE(end.detail.find("slope is not positive"), std::string::npos);
}

TEST(TraceSessionTest, WatchMarksFailureAndPassesValueThrough) {
  TraceSession session;
  session.start();
  {
    ObsSpan span(Layer::kReadout, "stage");
    Expected<int> good = span.watch(Expected<int>(7));
    EXPECT_EQ(good.value(), 7);
    Expected<int> bad = span.watch(Expected<int>(make_error(
        ErrorCode::kNumerics, Layer::kReadout, "acquire", "saturated")));
    EXPECT_FALSE(bad.has_value());
  }
  session.stop();
  EXPECT_EQ(session.failed_span_count(), 1u);
}

TEST(TraceSessionTest, RestartClearsPreviousEvents) {
  TraceSession session;
  session.start();
  { ObsSpan span(Layer::kCore, "first"); }
  session.stop();
  EXPECT_EQ(session.event_count(), 2u);

  session.start();
  session.stop();
  EXPECT_EQ(session.event_count(), 0u);
  EXPECT_EQ(session.span_count(), 0u);
  EXPECT_EQ(session.layer_latency(Layer::kCore).count(), 0u);
}

TEST(ExporterTest, ChromeTraceHasMetadataAndBalancedPairs) {
  TraceSession session;
  session.start();
  {
    ObsSpan span(Layer::kElectrochem, "cv-sweep");
    ObsSpan nested(Layer::kChem, "validate \"x\"\n");
  }
  TraceSession::async_begin(Layer::kEngine, "queue-wait", 3);
  TraceSession::async_end(Layer::kEngine, "queue-wait", 3);
  session.stop();

  const std::string json = chrome_trace_json(session);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"electrochem\""), std::string::npos);
  // Escaped quote and newline from the span detail.
  EXPECT_NE(json.find("validate \\\"x\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0x3\""), std::string::npos);

  std::size_t begins = 0, ends = 0, pos = 0;
  while ((pos = json.find("\"ph\":\"B\"", pos)) != std::string::npos) {
    ++begins;
    pos += 8;
  }
  pos = 0;
  while ((pos = json.find("\"ph\":\"E\"", pos)) != std::string::npos) {
    ++ends;
    pos += 8;
  }
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);
}

TEST(ExporterTest, JsonlEmitsOneLinePerEvent) {
  TraceSession session;
  session.start();
  { ObsSpan span(Layer::kCore, "measure"); }
  TraceSession::instant(Layer::kEngine, "sim-cache-hit");
  session.stop();

  const std::string jsonl = jsonl_events(session);
  std::size_t lines = 0;
  for (char c : jsonl) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, session.event_count());
  EXPECT_NE(jsonl.find("\"phase\":\"instant\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"failed\":false"), std::string::npos);
}

TEST(ExporterTest, PrometheusHistogramIsCumulativeWithInfBucket) {
  LatencyHistogram h;
  h.record(1e-5);
  h.record(1e-4);
  h.record(1e-4);

  PrometheusWriter writer;
  writer.histogram("test_seconds", "help text", h, "layer=\"chem\"");
  const std::string text = writer.text();

  EXPECT_NE(text.find("# HELP test_seconds help text"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("test_seconds_sum{layer=\"chem\"}"),
            std::string::npos);
  EXPECT_NE(text.find("test_seconds_count{layer=\"chem\"} 3"),
            std::string::npos);

  // Bucket samples must be cumulative: the +Inf value equals count().
  std::uint64_t previous = 0;
  std::size_t pos = 0;
  while ((pos = text.find("test_seconds_bucket", pos)) !=
         std::string::npos) {
    const std::size_t space = text.find(' ', text.find('}', pos));
    const std::uint64_t value = std::stoull(text.substr(space + 1));
    EXPECT_GE(value, previous);
    previous = value;
    pos = space;
  }
  EXPECT_EQ(previous, 3u);
}

TEST(ExporterTest, HelpAndTypeEmittedOncePerFamily) {
  PrometheusWriter writer;
  writer.counter("biosens_failures_total", "failures", 1, "code=\"spec\"");
  writer.counter("biosens_failures_total", "failures", 2,
                 "code=\"numerics\"");
  const std::string text = writer.text();
  EXPECT_EQ(text.find("# HELP biosens_failures_total"),
            text.rfind("# HELP biosens_failures_total"));
  EXPECT_NE(text.find("biosens_failures_total{code=\"numerics\"} 2"),
            std::string::npos);
}

TEST(ExporterTest, BuildInfoGaugeCarriesVersionAndCompiler) {
  PrometheusWriter writer;
  append_build_info(writer);
  const std::string text = writer.text();
  EXPECT_NE(text.find("# HELP biosens_build_info"), std::string::npos);
  EXPECT_NE(text.find("# TYPE biosens_build_info gauge"),
            std::string::npos);
  EXPECT_NE(text.find("biosens_build_info{version="), std::string::npos);
  EXPECT_NE(text.find("compiler="), std::string::npos);
  EXPECT_NE(text.find("cxx_std="), std::string::npos);
  EXPECT_NE(text.find("} 1"), std::string::npos);
}

// -- per-thread buffer cap under contention (8 writers) ---------------

TEST(TraceSessionStress, EightThreadsHitTheirBufferCapsExactly) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 500;
  constexpr std::size_t kCap = 64;

  TraceSessionOptions options;
  options.max_events_per_thread = kCap;
  TraceSession session(options);
  session.start();
  {
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          TraceSession::instant(Layer::kEngine,
                                "stress-" + std::to_string(t));
        }
      });
    }
    for (std::thread& w : writers) w.join();
  }
  session.stop();

  // The cap is per thread and exact: each writer stores kCap events and
  // drops the rest, with nothing lost or double-counted across threads.
  EXPECT_EQ(session.event_count(), kThreads * kCap);
  EXPECT_EQ(session.dropped_events(), kThreads * (kPerThread - kCap));

  // A session saturated at its cap must still export cleanly: one JSONL
  // line per surviving event, and a parsable Chrome trace envelope.
  const std::string jsonl = jsonl_events(session);
  std::size_t lines = 0;
  for (char c : jsonl) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, session.event_count());
  const std::string chrome = chrome_trace_json(session);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(chrome.back(), '\n');
}

// -- flight recorder --------------------------------------------------

TEST(FlightRecorderTest, NoOpWithoutAnInstalledRecorder) {
  ASSERT_EQ(FlightRecorder::current(), nullptr);
  { ObsSpan span(Layer::kChem, "orphan"); }
  FlightRecorder::trigger_overload("tenant", "nothing listening");
  FlightRecorder::trigger_job_failure("job", "nothing listening");
  // No recorder, no crash — and nothing to observe.
}

TEST(FlightRecorderTest, RecordsSpanEndsAndInstantsWithDurations) {
  FlightRecorder recorder;
  recorder.install();
  {
    ObsSpan span(Layer::kTransport, "crank-step");
  }
  TraceSession::instant(Layer::kEngine, "cache-hit", "warm");
  recorder.uninstall();

  EXPECT_EQ(recorder.recorded_events(), 2u);
  const RecorderDump dump = recorder.dump();
  ASSERT_EQ(dump.events.size(), 2u);
  EXPECT_EQ(dump.events[0].name, "crank-step");
  EXPECT_EQ(dump.events[0].phase, EventPhase::kEnd);
  EXPECT_EQ(dump.events[1].name, "cache-hit");
  EXPECT_EQ(dump.events[1].phase, EventPhase::kInstant);
  EXPECT_EQ(dump.events[1].dur_ns, 0u);
  EXPECT_EQ(dump.reason, "manual");
  const std::string json = dump.to_json();
  EXPECT_NE(json.find("\"name\":\"crank-step\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"instant\""), std::string::npos);
}

TEST(FlightRecorderTest, RingOverwritesOldestWithExactAccounting) {
  FlightRecorderOptions options;
  options.ring_capacity_per_thread = 8;
  FlightRecorder recorder(options);
  recorder.install();
  for (int i = 0; i < 20; ++i) {
    TraceSession::instant(Layer::kCore, "tick-" + std::to_string(i));
  }
  recorder.uninstall();

  EXPECT_EQ(recorder.recorded_events(), 20u);
  EXPECT_EQ(recorder.overwritten_events(), 12u);
  const RecorderDump dump = recorder.dump();
  ASSERT_EQ(dump.events.size(), 8u);
  // The survivors are exactly the newest eight, still in time order.
  EXPECT_EQ(dump.events.front().name, "tick-12");
  EXPECT_EQ(dump.events.back().name, "tick-19");
  for (std::size_t i = 1; i < dump.events.size(); ++i) {
    EXPECT_GE(dump.events[i].ts_ns, dump.events[i - 1].ts_ns);
  }
}

TEST(FlightRecorderTest, ScopedContextAttributesAndNests) {
  FlightRecorder recorder;
  recorder.install();
  {
    FlightRecorder::ScopedContext outer("tenant-a", 7);
    TraceSession::instant(Layer::kService, "outer-event");
    {
      FlightRecorder::ScopedContext inner("tenant-b", 9);
      TraceSession::instant(Layer::kService, "inner-event");
    }
    TraceSession::instant(Layer::kService, "outer-again");
  }
  TraceSession::instant(Layer::kService, "unattributed");
  recorder.uninstall();

  const RecorderDump dump = recorder.dump("manual", "tenant-a");
  ASSERT_EQ(dump.events.size(), 4u);
  EXPECT_EQ(dump.events[0].tenant, "tenant-a");
  EXPECT_EQ(dump.events[0].session_id, 7u);
  EXPECT_EQ(dump.events[1].tenant, "tenant-b");
  EXPECT_EQ(dump.events[1].session_id, 9u);
  EXPECT_EQ(dump.events[2].tenant, "tenant-a");
  EXPECT_EQ(dump.events[3].tenant, "");
  // The tenant tail keeps only tenant-a's events.
  ASSERT_EQ(dump.tenant_tail.size(), 2u);
  EXPECT_EQ(dump.tenant_tail[0].name, "outer-event");
  EXPECT_EQ(dump.tenant_tail[1].name, "outer-again");
}

TEST(FlightRecorderTest, FirstTriggerLatchesAndAutoDumps) {
  const std::string path = "/tmp/biosens_test_recorder_dump.json";
  std::remove(path.c_str());
  FlightRecorderOptions options;
  options.auto_dump_path = path;
  FlightRecorder recorder(options);
  recorder.install();
  {
    FlightRecorder::ScopedContext tenant("clinic-x", 3);
    TraceSession::instant(Layer::kService, "pre-incident");
    FlightRecorder::trigger_overload("clinic-x", "queue full");
  }
  FlightRecorder::trigger_overload("clinic-y", "second incident");
  recorder.uninstall();

  EXPECT_TRUE(recorder.triggered());
  EXPECT_EQ(recorder.trigger_count(), 2u);
  // The first trigger wins: the latched dump names clinic-x.
  const RecorderDump first = recorder.first_trigger_dump();
  EXPECT_EQ(first.reason, "overloaded");
  EXPECT_EQ(first.tenant, "clinic-x");
  EXPECT_FALSE(first.tenant_tail.empty());
  for (const SpanEvent& ev : first.tenant_tail) {
    EXPECT_EQ(ev.tenant, "clinic-x");
  }
  // And it was written to disk.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"reason\":\"overloaded\""),
            std::string::npos);
  EXPECT_NE(buffer.str().find("\"tenant\":\"clinic-x\""),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, DisabledTriggerKindsOnlyCount) {
  FlightRecorderOptions options;
  options.trigger_on_job_failure = false;
  FlightRecorder recorder(options);
  recorder.install();
  FlightRecorder::trigger_job_failure("job-1", "transient fault");
  // A disabled trigger kind is a complete no-op: no latch, no count.
  EXPECT_FALSE(recorder.triggered());
  EXPECT_EQ(recorder.trigger_count(), 0u);
  FlightRecorder::trigger_overload("tenant-z", "queue full");
  EXPECT_TRUE(recorder.triggered());
  EXPECT_EQ(recorder.trigger_count(), 1u);
  EXPECT_EQ(recorder.first_trigger_dump().reason, "overloaded");
  recorder.uninstall();
}

TEST(FlightRecorderTest, EngineJobFailureTriggersTheRecorder) {
  FlightRecorder recorder;
  recorder.install();
  engine::Engine engine;  // serial
  std::vector<engine::JobSpec> jobs(1);
  jobs[0].name = "doomed";
  jobs[0].body = [](engine::JobContext&) -> Expected<bool> {
    return make_error(ErrorCode::kNumerics, Layer::kEngine, "doomed",
                      "synthetic fault");
  };
  engine::BatchOptions options;
  options.retry.max_attempts = 1;
  (void)engine.run(jobs, options);
  recorder.uninstall();

  EXPECT_TRUE(recorder.triggered());
  const RecorderDump dump = recorder.first_trigger_dump();
  EXPECT_EQ(dump.reason, "job-failure");
  EXPECT_EQ(dump.tenant, "doomed");
  EXPECT_FALSE(dump.tenant_tail.empty());
}

// -- metrics sampler --------------------------------------------------

TEST(MetricsSamplerTest, RatesComeFromWindowDeltas) {
  std::uint64_t submitted = 0, rejected = 0;
  double p99 = 0.001;
  MetricsSampler sampler([&] {
    MetricsSample s;
    s.submitted = submitted;
    s.completed = submitted;
    s.rejected = rejected;
    s.queue_p99_s = p99;
    return s;
  });
  sampler.sample_now();
  submitted = 8;
  rejected = 2;
  p99 = 0.004;
  sampler.sample_now();

  const WindowRates rates = sampler.rates();
  EXPECT_EQ(rates.samples, 2u);
  EXPECT_GT(rates.window_s, 0.0);
  EXPECT_NEAR(rates.rejection_ratio, 0.2, 1e-12);
  EXPECT_NEAR(rates.queue_p99_now_s, 0.004, 1e-12);
  EXPECT_NEAR(rates.queue_p99_trend_s, 0.003, 1e-12);
  EXPECT_GT(rates.submitted_per_s, 0.0);
}

TEST(MetricsSamplerTest, WindowEvictsOldestSamples) {
  std::uint64_t submitted = 0;
  MetricsSampler sampler(
      [&] {
        MetricsSample s;
        s.submitted = submitted;
        return s;
      },
      MetricsSamplerOptions{2, 0.0});
  for (submitted = 1; submitted <= 5; ++submitted) sampler.sample_now();
  // sample_count() is the lifetime total; the ring keeps the newest two.
  EXPECT_EQ(sampler.sample_count(), 5u);
  ASSERT_EQ(sampler.window().size(), 2u);
  EXPECT_EQ(sampler.window().front().submitted, 4u);
  EXPECT_EQ(sampler.window().back().submitted, 5u);
}

// -- health model -----------------------------------------------------

TEST(HealthModelTest, QuietInputsAreHealthy) {
  const HealthReport report = evaluate_health(HealthInputs{});
  EXPECT_EQ(report.state, HealthState::kHealthy);
  EXPECT_TRUE(report.reasons.empty());
  EXPECT_NE(report.to_json().find("\"state\":\"healthy\""),
            std::string::npos);
}

TEST(HealthModelTest, DrainAndRejectionsDegrade) {
  HealthInputs inputs;
  inputs.draining = true;
  inputs.rejected_since_baseline = 3;
  inputs.submitted_since_baseline = 100;
  const HealthReport report = evaluate_health(inputs);
  EXPECT_EQ(report.state, HealthState::kDegraded);
  EXPECT_TRUE(report.has_reason("drain"));
  EXPECT_TRUE(report.has_reason("queue-saturation"));
  EXPECT_FALSE(report.has_reason("watchdog"));
}

TEST(HealthModelTest, QueueUtilizationAloneDegrades) {
  HealthInputs inputs;
  inputs.queue_utilization = 0.9;
  const HealthReport report = evaluate_health(inputs);
  EXPECT_EQ(report.state, HealthState::kDegraded);
  EXPECT_TRUE(report.has_reason("queue-saturation"));
}

TEST(HealthModelTest, HeavyBurnIsUnhealthy) {
  HealthInputs inputs;
  inputs.rejected_since_baseline = 60;
  inputs.submitted_since_baseline = 40;
  EXPECT_EQ(evaluate_health(inputs).state, HealthState::kUnhealthy);

  HealthInputs failures;
  failures.failed = 9;
  failures.finished = 10;
  const HealthReport report = evaluate_health(failures);
  EXPECT_EQ(report.state, HealthState::kUnhealthy);
  EXPECT_TRUE(report.has_reason("failure-burn"));
}

TEST(HealthModelTest, WatchdogThresholdsEscalate) {
  HealthInputs inputs;
  inputs.watchdog_overdue = 1;
  EXPECT_EQ(evaluate_health(inputs).state, HealthState::kDegraded);
  inputs.watchdog_overdue = 4;
  const HealthReport report = evaluate_health(inputs);
  EXPECT_EQ(report.state, HealthState::kUnhealthy);
  EXPECT_TRUE(report.has_reason("watchdog"));
}

// -- watchdog ---------------------------------------------------------

TEST(WatchdogTest, DisabledWatchdogHandsOutNullTokens) {
  Watchdog watchdog(WatchdogOptions{0.0, 16});
  EXPECT_FALSE(watchdog.enabled());
  const std::uint64_t token = watchdog.begin("ignored");
  EXPECT_EQ(token, 0u);
  watchdog.end(token);  // no-op, no crash
  EXPECT_EQ(watchdog.in_flight(), 0u);
  EXPECT_TRUE(watchdog.overdue().empty());
}

TEST(WatchdogTest, OverdueWorkIsListedAndTripsOnCompletion) {
  Watchdog watchdog(WatchdogOptions{1e-9, 16});
  const std::uint64_t token = watchdog.begin("slow-measurement");
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const std::vector<Watchdog::Overdue> overdue = watchdog.overdue();
  ASSERT_EQ(overdue.size(), 1u);
  EXPECT_EQ(overdue[0].label, "slow-measurement");
  EXPECT_GT(overdue[0].elapsed_s, 0.0);
  EXPECT_EQ(watchdog.in_flight(), 1u);
  watchdog.end(token);
  EXPECT_EQ(watchdog.trips(), 1u);
  EXPECT_EQ(watchdog.in_flight(), 0u);
  {
    Watchdog::Scoped guard(watchdog, "scoped-measurement");
    EXPECT_EQ(watchdog.in_flight(), 1u);
  }
  EXPECT_EQ(watchdog.in_flight(), 0u);
}

// -- introspection ----------------------------------------------------

TEST(IntrospectionTest, EngineReportReflectsFailureBurn) {
  engine::Engine engine;
  std::vector<engine::JobSpec> jobs(1);
  jobs[0].name = "doomed";
  jobs[0].body = [](engine::JobContext&) -> Expected<bool> {
    return make_error(ErrorCode::kNumerics, Layer::kEngine, "doomed",
                      "synthetic fault");
  };
  engine::BatchOptions options;
  options.retry.max_attempts = 1;
  (void)engine.run(jobs, options);

  IntrospectionReport report = engine.introspection_report();
  EXPECT_EQ(report.component, "engine");
  EXPECT_EQ(report.health.state, HealthState::kUnhealthy);
  EXPECT_TRUE(report.health.has_reason("failure-burn"));
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"component\":\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"failure-burn\""), std::string::npos);
  EXPECT_NE(json.find("\"recorder\""), std::string::npos);
  EXPECT_NE(report.to_text().find("unhealthy"), std::string::npos);
}

TEST(IntrospectionTest, RecorderStatsSurfaceWhenInstalled) {
  IntrospectionReport cold;
  fill_recorder_stats(cold);
  EXPECT_FALSE(cold.recorder_installed);

  FlightRecorder recorder;
  recorder.install();
  TraceSession::instant(Layer::kCore, "blip");
  IntrospectionReport warm;
  fill_recorder_stats(warm);
  recorder.uninstall();
  EXPECT_TRUE(warm.recorder_installed);
  EXPECT_EQ(warm.recorder_events, 1u);
  EXPECT_FALSE(warm.recorder_triggered);
}

// -- one sink, many windows ------------------------------------------

// Cycles the trace session and the recorder on and off over the same
// pool threads. Each window clears the previous window's buffers, so a
// thread still writing through a pointer cached in an earlier window
// would lose its events (or touch freed memory under ASan): every
// window must hold exactly its own events, all of them.
TEST(EventLogTest, WindowsNeverReuseStaleThreadBuffers) {
  constexpr std::size_t kJobs = 32;
  constexpr int kCycles = 6;
  engine::Engine engine(engine::EngineOptions{.workers = 4});
  TraceSession session;
  FlightRecorder recorder;

  const auto count = [](const std::vector<SpanEvent>& events,
                        const std::string& name, EventPhase phase) {
    std::size_t n = 0;
    for (const SpanEvent& ev : events) {
      if (ev.name == name && ev.phase == phase) ++n;
    }
    return n;
  };
  const auto cycle_names = [](const std::vector<SpanEvent>& events) {
    std::set<std::string> names;
    for (const SpanEvent& ev : events) {
      if (ev.name.rfind("cycle-", 0) == 0) names.insert(ev.name);
    }
    return names;
  };

  for (int cycle = 0; cycle < kCycles; ++cycle) {
    // Trace only, recorder only, both — twice round.
    const bool tracing = cycle % 3 != 1;
    const bool recording = cycle % 3 != 0;
    const std::string name = "cycle-" + std::to_string(cycle);
    if (tracing) session.start();
    if (recording) recorder.install();
    std::vector<engine::JobSpec> jobs(kJobs);
    for (engine::JobSpec& job : jobs) {
      job.name = name;
      job.body = [&name](engine::JobContext&) {
        const ObsSpan span(Layer::kCore, name);
        TraceSession::instant(Layer::kCore, name);
        return true;
      };
    }
    (void)engine.run(jobs);
    recorder.uninstall();
    session.stop();

    if (tracing) {
      std::vector<SpanEvent> all;
      for (const ThreadTrack& track : session.tracks()) {
        all.insert(all.end(), track.events.begin(), track.events.end());
      }
      EXPECT_EQ(count(all, name, EventPhase::kInstant), kJobs) << name;
      EXPECT_EQ(count(all, name, EventPhase::kEnd), kJobs) << name;
      EXPECT_EQ(cycle_names(all), std::set<std::string>{name});
      EXPECT_EQ(session.dropped_events(), 0u);
    }
    if (recording) {
      const RecorderDump dump = recorder.dump();
      EXPECT_EQ(count(dump.events, name, EventPhase::kInstant), kJobs)
          << name;
      EXPECT_EQ(count(dump.events, name, EventPhase::kEnd), kJobs) << name;
      EXPECT_EQ(cycle_names(dump.events), std::set<std::string>{name});
      EXPECT_EQ(dump.overwritten, 0u);
      EXPECT_EQ(dump.recorded, dump.events.size());
    }
  }
}

// -- non-perturbation: recorder edition -------------------------------

TEST(FlightRecorderTest, RecorderDoesNotPerturbEngineResults) {
  core::MeasurementOptions poc;
  poc.chrono.duration = Time::seconds(2.0);
  poc.chrono.dt = Time::milliseconds(100.0);
  poc.chrono.grid_nodes = 24;
  poc.voltammetry.points_per_sweep = 40;
  core::Platform platform;
  platform.add_sensor(core::entry_or_throw("MWCNT/Nafion + GOD (this work)"),
                      poc);
  Rng rng(77);
  core::ProtocolOptions protocol;
  protocol.blank_repeats = 4;
  protocol.replicates = 1;
  platform.calibrate_all(rng, protocol);

  std::vector<chem::Sample> cohort;
  for (int i = 0; i < 4; ++i) {
    chem::Sample s = chem::blank_sample();
    s.set("glucose", Concentration::milli_molar(0.2 + 0.1 * i));
    cohort.push_back(std::move(s));
  }
  core::PanelBatchOptions batch;
  batch.seed = 99;

  const auto fingerprint = [](const std::vector<core::PanelReport>& rs) {
    std::string out;
    char cell[64];
    for (const core::PanelReport& report : rs) {
      for (const core::AssayResult& r : report.results) {
        std::snprintf(cell, sizeof(cell), "%.17g;", r.response_a);
        out += cell;
      }
    }
    return out;
  };

  engine::Engine bare;
  const std::string reference =
      fingerprint(platform.run_panel_batch(cohort, bare, batch).reports);

  FlightRecorder recorder;
  recorder.install();
  engine::Engine observed;
  const std::string recorded =
      fingerprint(platform.run_panel_batch(cohort, observed, batch).reports);
  recorder.uninstall();
  EXPECT_GT(recorder.recorded_events(), 0u);
  EXPECT_EQ(recorded, reference);
}

}  // namespace
}  // namespace biosens::obs

namespace biosens::core {
namespace {

Platform small_platform() {
  Platform p;
  p.add_sensor(entry_or_throw("MWCNT/Nafion + GOD (this work)"));
  return p;
}

std::string fingerprint(const std::vector<PanelReport>& reports) {
  std::string out;
  char cell[64];
  for (const PanelReport& report : reports) {
    for (const AssayResult& r : report.results) {
      std::snprintf(cell, sizeof(cell), "%.17g|%.17g;", r.response_a,
                    r.estimated.milli_molar());
      out += cell;
    }
    out += '\n';
  }
  return out;
}

std::vector<chem::Sample> glucose_samples(std::size_t count) {
  std::vector<chem::Sample> samples;
  Rng levels(77);
  for (std::size_t i = 0; i < count; ++i) {
    chem::Sample s = chem::blank_sample();
    s.set("glucose", Concentration::milli_molar(levels.uniform(0.2, 0.8)));
    samples.push_back(std::move(s));
  }
  return samples;
}

class TracedBatch : public ::testing::Test {
 protected:
  void SetUp() override {
    platform_ = small_platform();
    ProtocolOptions o;
    o.blank_repeats = 8;
    o.replicates = 1;
    Rng rng(2012);
    platform_.calibrate_all(rng, o);
    samples_ = glucose_samples(6);
  }

  Platform platform_;
  std::vector<chem::Sample> samples_;
};

TEST_F(TracedBatch, TracingDoesNotPerturbResults) {
  PanelBatchOptions options;
  options.seed = 99;

  engine::Engine untraced;
  const std::string baseline =
      fingerprint(platform_.run_panel_batch(samples_, untraced, options)
                      .reports);

  for (const std::size_t workers : {std::size_t{0}, std::size_t{1},
                                    std::size_t{8}}) {
    obs::TraceSession session;
    engine::EngineOptions eo;
    eo.workers = workers;
    eo.trace = &session;
    engine::Engine traced(eo);
    const std::string fp = fingerprint(
        platform_.run_panel_batch(samples_, traced, options).reports);
    EXPECT_EQ(fp, baseline) << "tracing perturbed results at " << workers
                            << " workers";
    EXPECT_GT(session.span_count(), 0u);
  }
}

TEST_F(TracedBatch, BothSinksAtOnceStayConsistentAndInvisible) {
  PanelBatchOptions options;
  options.seed = 99;
  constexpr std::size_t kWorkers = 4;

  engine::Engine bare(engine::EngineOptions{.workers = kWorkers});
  const std::string baseline =
      fingerprint(platform_.run_panel_batch(samples_, bare, options).reports);

  obs::TraceSession session;
  obs::FlightRecorder recorder;
  session.start();
  recorder.install();
  engine::Engine observed(engine::EngineOptions{.workers = kWorkers});
  const std::string fp = fingerprint(
      platform_.run_panel_batch(samples_, observed, options).reports);
  recorder.uninstall();
  session.stop();
  EXPECT_EQ(fp, baseline) << "trace + recorder perturbed results";

  // Every thread's trace track nests begin/end pairs by name.
  using Key = std::tuple<obs::EventPhase, std::string, Layer, bool>;
  std::map<Key, std::size_t> trace_events;
  for (const obs::ThreadTrack& track : session.tracks()) {
    std::vector<std::string> open;
    for (const obs::SpanEvent& ev : track.events) {
      if (ev.phase == obs::EventPhase::kBegin) open.push_back(ev.name);
      if (ev.phase == obs::EventPhase::kEnd) {
        ASSERT_FALSE(open.empty()) << "end without begin: " << ev.name;
        EXPECT_EQ(open.back(), ev.name);
        open.pop_back();
      }
      ++trace_events[Key{ev.phase, ev.name, ev.layer, ev.failed}];
    }
    EXPECT_TRUE(open.empty()) << "unbalanced track " << track.tid;
  }

  // The recorder saw the same window: each ring entry is a completed
  // span (kEnd) or an instant the trace holds too.
  const obs::RecorderDump dump = recorder.dump();
  ASSERT_FALSE(dump.events.empty());
  for (const obs::SpanEvent& ev : dump.events) {
    EXPECT_TRUE(ev.phase == obs::EventPhase::kEnd ||
                ev.phase == obs::EventPhase::kInstant)
        << obs::to_string(ev.phase);
    std::size_t& left = trace_events[Key{ev.phase, ev.name, ev.layer,
                                         ev.failed}];
    EXPECT_GT(left, 0u) << "ring entry missing from the trace: "
                        << ev.name;
    if (left > 0) --left;
  }
}

TEST_F(TracedBatch, EngineStartsAndStopsItsTraceSession) {
  obs::TraceSession session;
  engine::EngineOptions eo;
  eo.trace = &session;
  engine::Engine engine(eo);

  EXPECT_FALSE(session.active());
  platform_.run_panel_batch(samples_, engine, {});
  EXPECT_FALSE(session.active());  // stopped after the batch...
  EXPECT_GT(session.event_count(), 0u);  // ...with the events retained

  // The trace covers every instrumented layer of the glucose pipeline.
  for (const Layer layer :
       {Layer::kChem, Layer::kTransport, Layer::kElectrochem,
        Layer::kReadout, Layer::kCore, Layer::kEngine}) {
    EXPECT_GT(session.layer_latency(layer).count(), 0u)
        << "no spans recorded for layer " << to_string(layer);
  }
}

TEST_F(TracedBatch, QueueWaitIsRecordedIndependentlyOfTracing) {
  engine::Engine engine(engine::EngineOptions{.workers = 2});
  platform_.run_panel_batch(samples_, engine, {});
  const engine::MetricsSnapshot s = engine.snapshot();
  EXPECT_EQ(engine.metrics().queue_wait.count(), samples_.size());
  EXPECT_GE(s.queue_p95_s, s.queue_p50_s);
  EXPECT_GE(s.queue_max_s, s.queue_p99_s);
}

TEST_F(TracedBatch, PrometheusTextCoversMetricsAndLayers) {
  obs::TraceSession session;
  engine::EngineOptions eo;
  eo.sim_cache_capacity = 64;
  eo.trace = &session;
  engine::Engine engine(eo);
  platform_.run_panel_batch(samples_, engine, {});

  const std::string text = engine.prometheus_text();
  EXPECT_NE(text.find("biosens_jobs_succeeded_total"), std::string::npos);
  EXPECT_NE(text.find("biosens_sim_cache_hits_total"), std::string::npos);
  EXPECT_NE(text.find("biosens_sim_cache_misses_total"),
            std::string::npos);
  EXPECT_NE(text.find("biosens_attempt_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("biosens_queue_wait_seconds_count"),
            std::string::npos);
  EXPECT_NE(text.find("biosens_layer_span_seconds_bucket{layer=\"core\""),
            std::string::npos);
}

TEST(MetricsGuards, ZeroWallClockYieldsFiniteRates) {
  engine::MetricsRegistry metrics;
  metrics.jobs_succeeded.increment(10);
  metrics.add_busy_seconds(1.0);
  for (const double wall : {0.0, 1e-12, -1.0}) {
    const engine::MetricsSnapshot s = metrics.snapshot(wall);
    EXPECT_EQ(s.jobs_per_second(), 0.0) << "wall=" << wall;
    EXPECT_EQ(s.utilization(), 0.0) << "wall=" << wall;
  }
}

}  // namespace
}  // namespace biosens::core
