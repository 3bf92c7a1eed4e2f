// Cross-layer tracing: RAII spans through the measurement stack, and
// the one per-thread event sink both consumers of those spans share.
//
// An EventLog is that sink: installed as the process-wide log of its
// retention policy, it collects events into one buffer per emitting
// thread (a mutex is taken only at registration and at export, so
// worker threads never contend). Two facades own one each:
//   - TraceSession (below) is the opt-in recording window. Its buffers
//     append up to a cap and count the overflow as dropped; it also
//     feeds per-layer latency histograms. Exporters (export_chrome/
//     export_jsonl/export_prometheus) render its tracks.
//   - FlightRecorder (obs/recorder.hpp) is the always-on recorder. Its
//     buffers are rings that overwrite their oldest event.
// Every ObsSpan constructed anywhere in the library (chem validation,
// transport stepping, electrochem sweeps, the readout chain, analysis,
// the engine's job lifecycle) reaches whichever is installed. While
// neither is, constructing an ObsSpan costs two atomic loads and
// allocates nothing — the overhead contract that lets the spans live
// permanently in the hot measurement pipeline (docs/observability.md).
//
// Failed spans are annotated from the Expected ErrorInfo that caused
// the failure — the stage/context vocabulary of docs/errors.md — so a
// trace shows *where time went* and *where errors came from* in the
// same terms.
//
// Raw event emission (emit_span_event) is confined to this subsystem:
// the only way to open and close a span outside src/obs/ is the ObsSpan
// RAII type (enforced by access control here and by the span-discipline
// lint in ci/check.sh).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "obs/instruments.hpp"

namespace biosens::obs {

/// What one recorded event marks. Begin/End always come in nested pairs
/// per thread (RAII); async pairs (queue wait) are correlated by id and
/// may begin and end on different threads; instants are points.
enum class EventPhase : std::uint8_t {
  kBegin,
  kEnd,
  kInstant,
  kAsyncBegin,
  kAsyncEnd,
};

[[nodiscard]] std::string_view to_string(EventPhase phase);

/// One recorded event, in whichever log it landed.
struct SpanEvent {
  EventPhase phase = EventPhase::kInstant;
  bool failed = false;      ///< kEnd only: the span's operation failed
  Layer layer = Layer::kCommon;
  std::string name;
  std::uint64_t ts_ns = 0;  ///< steady-clock ns since the log's install
  std::uint64_t id = 0;     ///< async correlation id (job index)
  std::string detail;       ///< ErrorInfo::describe() or an annotation
  std::uint64_t dur_ns = 0;  ///< kEnd: the span's duration; 0 otherwise
  /// Flight recorder only: the FlightRecorder::ScopedContext active on
  /// the recording thread ("" and 0 = none).
  std::string tenant;
  std::uint64_t session_id = 0;
};

/// All events one thread's buffer retained, oldest first.
struct ThreadTrack {
  std::uint64_t tid = 0;  ///< stable registration order, 1-based
  std::vector<SpanEvent> events;
  std::uint64_t lost = 0;  ///< emitted but not retained (dropped/overwritten)
};

/// What a thread's full buffer does with the next event.
enum class Retention : std::uint8_t {
  kBoundedAppend,  ///< keep the first N, count later ones (tracing)
  kOverwriteRing,  ///< keep the newest N, count overwritten (recorder)
};

/// The per-thread event sink. At most one log per retention policy is
/// installed at a time; install() clears the previous window's events
/// and restarts the clock, uninstall() keeps the events for export.
/// install()/uninstall() must not race with in-flight instrumented
/// work — call them at batch boundaries.
class EventLog {
 public:
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  [[nodiscard]] bool installed() const {
    return installed_log(retention_) == this;
  }

  /// Steady-clock nanoseconds since the last install().
  [[nodiscard]] std::uint64_t now_ns() const;
  [[nodiscard]] std::uint64_t ns_since_epoch(
      std::chrono::steady_clock::time_point tp) const;

  /// Snapshot of every thread's retained events, ordered by tid. Safe
  /// while installed (locks each buffer briefly); call after the
  /// instrumented work completed for a consistent picture.
  [[nodiscard]] std::vector<ThreadTrack> tracks() const;

 protected:
  EventLog(Retention retention, std::size_t capacity_per_thread);
  ~EventLog() = default;

  /// The installed log of `retention`, or nullptr. One atomic load.
  [[nodiscard]] static EventLog* installed_log(Retention retention) {
    return installed_[static_cast<std::size_t>(retention)].load(
        std::memory_order_acquire);
  }

  void install();
  void uninstall();

  /// The raw emission primitive: stamps `event` at `at` on this log's
  /// clock and stores it under the retention policy. Reachable outside
  /// src/obs/ only through ObsSpan and TraceSession's static helpers.
  void emit_span_event(SpanEvent&& event,
                       std::chrono::steady_clock::time_point at);

  struct Counts {
    std::uint64_t retained = 0;
    std::uint64_t lost = 0;
  };
  [[nodiscard]] Counts counts() const;

 private:
  /// Events live in fixed-size chunks that never move once allocated:
  /// a growing vector would copy every stored event again on each
  /// doubling, into freshly faulted pages, which dominates the cost of
  /// a long trace window.
  static constexpr std::size_t kChunkEvents = 256;

  struct ThreadBuffer {
    std::mutex mutex;
    std::uint64_t tid = 0;
    std::vector<std::vector<SpanEvent>> chunks;
    std::size_t size = 0;       ///< events stored (<= capacity_)
    std::uint64_t emitted = 0;  ///< every event this thread emitted
    SpanEvent& at(std::size_t i) {
      return chunks[i / kChunkEvents][i % kChunkEvents];
    }
  };

  ThreadBuffer* buffer_for_this_thread();

  static inline std::array<std::atomic<EventLog*>, 2> installed_{};

  const Retention retention_;
  const std::size_t capacity_;
  std::uint64_t generation_ = 0;
  std::chrono::steady_clock::time_point epoch_{};
  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

struct TraceSessionOptions {
  /// Hard cap per thread buffer; events beyond it are counted in
  /// dropped_events() instead of growing without bound.
  std::size_t max_events_per_thread = 1u << 20;
};

class FlightRecorder;

/// A bounded recording window: the bounded-append EventLog plus
/// per-layer span latency. start() installs it as the process-wide
/// session and clears any previously collected events and statistics;
/// stop() uninstalls it and leaves the events in place for export.
/// Engine::run does both for EngineOptions::trace.
class TraceSession : private EventLog {
 public:
  explicit TraceSession(TraceSessionOptions options = {});
  ~TraceSession();

  void start();
  void stop();
  [[nodiscard]] bool active() const { return installed(); }

  /// The installed session, or nullptr while tracing is disabled. One
  /// atomic load: half the disabled-path cost of a span.
  [[nodiscard]] static TraceSession* current() {
    return static_cast<TraceSession*>(
        installed_log(Retention::kBoundedAppend));
  }

  using EventLog::now_ns;
  using EventLog::ns_since_epoch;
  using EventLog::tracks;

  /// Point event on the calling thread's track; also lands in the
  /// flight recorder when one is installed. No-ops when neither is
  /// active. Used for sim-cache hits/misses and retry backoffs.
  static void instant(Layer layer, std::string_view name,
                      std::string_view detail = {});

  /// Async interval correlated by (name, id); begin and end may run on
  /// different threads (queue wait: submitted on the producer, started
  /// on a worker). No-ops when no session is installed.
  static void async_begin(Layer layer, std::string_view name,
                          std::uint64_t id);
  static void async_end(Layer layer, std::string_view name,
                        std::uint64_t id);

  /// Inclusive latency of completed spans per layer — the attribution
  /// the Prometheus exporter exposes. Nested spans each count toward
  /// their own layer (a chem span inside an electrochem span adds to
  /// both), so layer totals are inclusive, not a partition.
  [[nodiscard]] const LatencyHistogram& layer_latency(Layer layer) const;
  [[nodiscard]] std::uint64_t layer_failures(Layer layer) const;

  [[nodiscard]] std::uint64_t span_count() const {
    return spans_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t failed_span_count() const {
    return failed_spans_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t event_count() const {
    return counts().retained;
  }
  [[nodiscard]] std::uint64_t dropped_events() const {
    return counts().lost;
  }

 private:
  friend class ObsSpan;

  /// Hands one event to every given log: the recorder gets it
  /// attributed to the calling thread's tenant, the session as is.
  static void publish(TraceSession* session, FlightRecorder* recorder,
                      SpanEvent&& event,
                      std::chrono::steady_clock::time_point at);
  void record_span(Layer layer, std::uint64_t dur_ns, bool failed);

  std::array<LatencyHistogram, kLayerCount> layer_latency_{};
  std::array<Counter, kLayerCount> layer_failures_{};
  std::atomic<std::uint64_t> spans_{0};
  std::atomic<std::uint64_t> failed_spans_{0};
};

/// RAII span: begin event at construction, end event at destruction,
/// duration into the session's per-layer histogram; when a
/// FlightRecorder is installed the completed span (one kEnd event with
/// its duration) also lands in the recorder's ring. The ONLY way to
/// open a span outside src/obs/.
///
/// Disabled path (no session and no recorder): two atomic loads, no
/// allocation, no clock read, and every member call is an immediate
/// return.
class ObsSpan {
 public:
  /// `detail` is appended to the span name ("measure" + sensor name);
  /// the concatenation only happens when tracing is enabled, so call
  /// sites may pass names they would not want to build per-call.
  explicit ObsSpan(Layer layer, std::string_view name,
                   std::string_view detail = {});
  ~ObsSpan();

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

  /// Marks the span failed and annotates it with the structured error's
  /// one-line description (layer/stage/code/context chain).
  void fail(const ErrorInfo& error);

  /// Appends a free-form note to the span ("qc-reject", cache state).
  void annotate(std::string_view note);

  /// Pass-through observer for Expected-returning stages: marks the
  /// span failed when `e` holds an error, then hands `e` back, so call
  /// sites stay one-liners: `auto run = span.watch(sim.try_run());`.
  template <class E>
  [[nodiscard]] E watch(E e) {
    if (enabled() && !e.has_value()) fail(e.error());
    return e;
  }

  /// Whether any consumer (trace session or flight recorder) sees this
  /// span — call sites use it to skip building expensive annotations.
  [[nodiscard]] bool enabled() const {
    return session_ != nullptr || recorder_ != nullptr;
  }

 private:
  TraceSession* session_;
  FlightRecorder* recorder_;
  Layer layer_ = Layer::kCommon;
  std::chrono::steady_clock::time_point begin_tp_{};
  std::string name_;
  std::string detail_;
  bool failed_ = false;
};

}  // namespace biosens::obs
