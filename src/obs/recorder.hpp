// Flight recorder: an always-on, bounded ring of recent events.
//
// Tracing (span.hpp) answers "what happened during the window I chose
// to record"; the flight recorder answers "what just happened" — it is
// meant to be installed for the whole life of a resident process and to
// cost near-zero while nothing consumes it. It is the same EventLog a
// TraceSession is, with the other retention policy: every completed
// ObsSpan (one kEnd event carrying its duration) and every
// TraceSession::instant lands in fixed-capacity per-thread rings that
// overwrite their oldest entries instead of growing, so memory is
// bounded forever and the recorder always holds the most recent events.
//
// Each recorded event carries the tenant/session attribution that was
// active on the recording thread (FlightRecorder::ScopedContext — the
// service sets it around each measurement body), so a post-hoc dump can
// isolate "the last N events of the tenant that just failed".
//
// Triggers make the dump automatic: the first kOverloaded admission
// rejection or job failure (trigger_overload / trigger_job_failure)
// latches the recorder, snapshots every ring, and — when
// auto_dump_path is set — writes the JSON dump to disk. Later triggers
// only count; the first one wins, so the dump shows the state at the
// *first* sign of trouble, not the aftermath.
//
// Like tracing, the recorder observes and never perturbs: it reads the
// steady clock and its own rings only, never an Rng stream, so results
// stay byte-identical with the recorder installed or not
// (docs/operations.md). Outside src/obs/, code attributes via
// ScopedContext and signals via the trigger_* helpers; raw emission is
// confined by the span-discipline lint.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span.hpp"

namespace biosens::obs {

struct FlightRecorderOptions {
  /// Fixed ring capacity per recording thread; the ring overwrites its
  /// oldest event once full (counted in overwritten_events()).
  std::size_t ring_capacity_per_thread = 4096;
  /// When non-empty, the first trigger writes the JSON dump here.
  std::string auto_dump_path;
  /// Whether job failures may latch the auto dump (overloads always
  /// may).
  bool trigger_on_job_failure = true;
};

/// A frozen snapshot of the recorder, renderable as JSON or text.
struct RecorderDump {
  std::string reason;  ///< "manual", "overloaded", "job-failure"
  std::string tenant;  ///< failing tenant ("" for manual dumps)
  std::string detail;  ///< trigger annotation (error description)
  std::uint64_t dump_ts_ns = 0;
  std::uint64_t recorded = 0;     ///< events ever recorded
  std::uint64_t overwritten = 0;  ///< events lost to ring wraparound
  std::uint64_t triggers = 0;     ///< triggers seen so far
  /// Every surviving event across all rings, in timestamp order.
  std::vector<SpanEvent> events;
  /// The last kDumpLastN surviving events attributed to `tenant` (empty
  /// for manual dumps with no tenant filter).
  std::vector<SpanEvent> tenant_tail;

  static constexpr std::size_t kDumpLastN = 128;

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string to_text() const;
};

/// The process-wide flight recorder: the overwrite-ring EventLog plus
/// trigger latching. install() publishes it (at most one active,
/// mirroring TraceSession); every ObsSpan end and instant then records
/// into the calling thread's ring until uninstall(). While none is
/// installed the cost at each span is one atomic load.
class FlightRecorder : private EventLog {
 public:
  explicit FlightRecorder(FlightRecorderOptions options = {});
  ~FlightRecorder();

  void install();
  using EventLog::installed;
  using EventLog::uninstall;
  using EventLog::now_ns;

  /// The installed recorder, or nullptr. One atomic load: the whole
  /// disabled-path cost at each span.
  [[nodiscard]] static FlightRecorder* current() {
    return static_cast<FlightRecorder*>(
        installed_log(Retention::kOverwriteRing));
  }

  /// RAII tenant/session attribution for the calling thread. Every
  /// event recorded while the guard lives carries the tenant tag;
  /// guards nest (inner wins, outer restored on destruction). No-op
  /// (no allocation) while no recorder is installed.
  class ScopedContext {
   public:
    ScopedContext(std::string_view tenant, std::uint64_t session_id);
    ~ScopedContext();
    ScopedContext(const ScopedContext&) = delete;
    ScopedContext& operator=(const ScopedContext&) = delete;

    /// Tags `event` with the calling thread's innermost context unless
    /// it already names a tenant.
    static void attribute(SpanEvent& event);

   private:
    std::string tenant_;
    std::uint64_t session_id_ = 0;
    ScopedContext* previous_ = nullptr;
    bool active_ = false;
  };

  /// Trigger entry points: record an instant marking the incident and,
  /// on the FIRST qualifying trigger, latch + auto-dump. No-ops while
  /// no recorder is installed or the trigger kind is disabled.
  static void trigger_overload(std::string_view tenant,
                               std::string_view detail);
  static void trigger_job_failure(std::string_view tenant,
                                  std::string_view detail);

  /// Snapshot of all rings (plus the per-tenant tail when `tenant` is
  /// non-empty). Safe to call any time; locks each ring briefly.
  [[nodiscard]] RecorderDump dump(std::string_view reason = "manual",
                                  std::string_view tenant = {},
                                  std::string_view detail = {}) const;

  /// The dump latched by the first trigger (reason != "manual"), or the
  /// empty dump when no trigger fired yet.
  [[nodiscard]] RecorderDump first_trigger_dump() const;

  [[nodiscard]] bool triggered() const {
    return triggered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t trigger_count() const {
    return triggers_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t recorded_events() const {
    const Counts c = counts();
    return c.retained + c.lost;
  }
  [[nodiscard]] std::uint64_t overwritten_events() const {
    return counts().lost;
  }

  [[nodiscard]] const FlightRecorderOptions& options() const {
    return options_;
  }

 private:
  friend class TraceSession;  // TraceSession::publish records here

  void trigger(std::string_view reason, std::string_view tenant,
               std::string_view detail);

  FlightRecorderOptions options_;
  std::atomic<std::uint64_t> triggers_{0};
  std::atomic<bool> triggered_{false};
  mutable std::mutex trigger_mutex_;
  RecorderDump first_dump_;
};

}  // namespace biosens::obs
