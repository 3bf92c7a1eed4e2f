#include "obs/recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <utility>

#include "obs/json_util.hpp"

namespace biosens::obs {
namespace {

constexpr double kNanosPerMilli = 1e6;

std::string format_ms(std::uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(ns) / kNanosPerMilli);
  return buf;
}

void append_event_json(std::string& out, const SpanEvent& ev) {
  out += "{\"ts_ns\":";
  out += std::to_string(ev.ts_ns);
  out += ",\"phase\":\"";
  out += to_string(ev.phase);
  out += "\",\"layer\":\"";
  out += to_string(ev.layer);
  out += "\",\"name\":\"";
  out += json_escape(ev.name);
  out += "\",\"dur_ns\":";
  out += std::to_string(ev.dur_ns);
  out += ",\"failed\":";
  out += ev.failed ? "true" : "false";
  out += ",\"tenant\":\"";
  out += json_escape(ev.tenant);
  out += "\",\"session\":";
  out += std::to_string(ev.session_id);
  out += ",\"detail\":\"";
  out += json_escape(ev.detail);
  out += "\"}";
}

void append_event_text(std::string& out, const SpanEvent& ev) {
  out += "  [";
  out += format_ms(ev.ts_ns);
  out += " ms] ";
  out += to_string(ev.layer);
  out += " ";
  out += to_string(ev.phase);
  out += " ";
  out += ev.name;
  if (ev.dur_ns > 0) {
    out += " dur=";
    out += format_ms(ev.dur_ns);
    out += "ms";
  }
  if (!ev.tenant.empty()) {
    out += " tenant=";
    out += ev.tenant;
  }
  if (ev.failed) out += " FAILED";
  if (!ev.detail.empty()) {
    out += " (";
    out += ev.detail;
    out += ")";
  }
  out += "\n";
}

// The thread-local attribution frame ScopedContext maintains.
thread_local FlightRecorder::ScopedContext* g_context_frame = nullptr;

}  // namespace

std::string RecorderDump::to_json() const {
  std::string out;
  out += "{\"reason\":\"";
  out += json_escape(reason);
  out += "\",\"tenant\":\"";
  out += json_escape(tenant);
  out += "\",\"detail\":\"";
  out += json_escape(detail);
  out += "\",\"dump_ts_ns\":";
  out += std::to_string(dump_ts_ns);
  out += ",\"recorded\":";
  out += std::to_string(recorded);
  out += ",\"overwritten\":";
  out += std::to_string(overwritten);
  out += ",\"triggers\":";
  out += std::to_string(triggers);
  out += ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ",";
    append_event_json(out, events[i]);
  }
  out += "],\"tenant_tail\":[";
  for (std::size_t i = 0; i < tenant_tail.size(); ++i) {
    if (i > 0) out += ",";
    append_event_json(out, tenant_tail[i]);
  }
  out += "]}";
  return out;
}

std::string RecorderDump::to_text() const {
  std::string out;
  out += "flight-recorder dump reason=";
  out += reason;
  if (!tenant.empty()) {
    out += " tenant=";
    out += tenant;
  }
  if (!detail.empty()) {
    out += " (";
    out += detail;
    out += ")";
  }
  out += "\n";
  out += "  events=" + std::to_string(events.size());
  out += " recorded=" + std::to_string(recorded);
  out += " overwritten=" + std::to_string(overwritten);
  out += " triggers=" + std::to_string(triggers);
  out += "\n";
  // Keep the human rendering bounded: the newest 200 events, then the
  // failing tenant's tail (the part an operator reads first).
  constexpr std::size_t kMaxTextEvents = 200;
  const std::size_t first =
      events.size() > kMaxTextEvents ? events.size() - kMaxTextEvents : 0;
  if (first > 0) {
    out += "  … " + std::to_string(first) + " older events elided\n";
  }
  for (std::size_t i = first; i < events.size(); ++i) {
    append_event_text(out, events[i]);
  }
  if (!tenant_tail.empty()) {
    out += "tenant tail (" + tenant + ", last " +
           std::to_string(tenant_tail.size()) + "):\n";
    for (const SpanEvent& ev : tenant_tail) {
      append_event_text(out, ev);
    }
  }
  return out;
}

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : EventLog(Retention::kOverwriteRing, options.ring_capacity_per_thread),
      options_(std::move(options)) {}

FlightRecorder::~FlightRecorder() { uninstall(); }

void FlightRecorder::install() {
  if (installed()) return;
  triggers_.store(0, std::memory_order_relaxed);
  triggered_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(trigger_mutex_);
    first_dump_ = RecorderDump{};
  }
  EventLog::install();
}

FlightRecorder::ScopedContext::ScopedContext(std::string_view tenant,
                                             std::uint64_t session_id) {
  if (FlightRecorder::current() == nullptr) return;
  tenant_ = std::string(tenant);
  session_id_ = session_id;
  previous_ = g_context_frame;
  g_context_frame = this;
  active_ = true;
}

FlightRecorder::ScopedContext::~ScopedContext() {
  if (!active_) return;
  g_context_frame = previous_;
}

void FlightRecorder::ScopedContext::attribute(SpanEvent& event) {
  if (!event.tenant.empty() || g_context_frame == nullptr) return;
  event.tenant = g_context_frame->tenant_;
  event.session_id = g_context_frame->session_id_;
}

void FlightRecorder::trigger_overload(std::string_view tenant,
                                      std::string_view detail) {
  FlightRecorder* recorder = current();
  if (recorder == nullptr) return;
  recorder->trigger("overloaded", tenant, detail);
}

void FlightRecorder::trigger_job_failure(std::string_view tenant,
                                         std::string_view detail) {
  FlightRecorder* recorder = current();
  if (recorder == nullptr || !recorder->options_.trigger_on_job_failure) {
    return;
  }
  recorder->trigger("job-failure", tenant, detail);
}

void FlightRecorder::trigger(std::string_view reason,
                             std::string_view tenant,
                             std::string_view detail) {
  // Mark the incident in the ring itself, attributed to the failing
  // tenant, so even a tenant with no completed spans yet has a tail.
  SpanEvent marker;
  marker.phase = EventPhase::kInstant;
  marker.layer = Layer::kService;
  marker.name = "recorder-trigger";
  marker.failed = true;
  marker.detail = std::string(reason);
  if (!detail.empty()) {
    marker.detail += ": ";
    marker.detail += detail;
  }
  marker.tenant = std::string(tenant);
  emit_span_event(std::move(marker), std::chrono::steady_clock::now());
  triggers_.fetch_add(1, std::memory_order_relaxed);

  bool expected = false;
  if (!triggered_.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
    return;  // later triggers only count; the first dump wins
  }
  RecorderDump snapshot = dump(reason, tenant, detail);
  if (!options_.auto_dump_path.empty()) {
    std::ofstream out(options_.auto_dump_path);
    if (out) out << snapshot.to_json() << "\n";
  }
  std::lock_guard<std::mutex> lock(trigger_mutex_);
  first_dump_ = std::move(snapshot);
}

RecorderDump FlightRecorder::dump(std::string_view reason,
                                  std::string_view tenant,
                                  std::string_view detail) const {
  RecorderDump out;
  out.reason = std::string(reason);
  out.tenant = std::string(tenant);
  out.detail = std::string(detail);
  out.dump_ts_ns = now_ns();
  out.triggers = trigger_count();
  for (ThreadTrack& track : tracks()) {
    out.recorded += track.events.size() + track.lost;
    out.overwritten += track.lost;
    std::move(track.events.begin(), track.events.end(),
              std::back_inserter(out.events));
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  if (!out.tenant.empty()) {
    for (const SpanEvent& ev : out.events) {
      if (ev.tenant == out.tenant) out.tenant_tail.push_back(ev);
    }
    if (out.tenant_tail.size() > RecorderDump::kDumpLastN) {
      out.tenant_tail.erase(
          out.tenant_tail.begin(),
          out.tenant_tail.end() -
              static_cast<std::ptrdiff_t>(RecorderDump::kDumpLastN));
    }
  }
  return out;
}

RecorderDump FlightRecorder::first_trigger_dump() const {
  std::lock_guard<std::mutex> lock(trigger_mutex_);
  return first_dump_;
}

}  // namespace biosens::obs
