#include "obs/span.hpp"

#include <algorithm>
#include <utility>

#include "obs/recorder.hpp"

namespace biosens::obs {
namespace {

using Clock = std::chrono::steady_clock;

// Bumped on every install() of any log; lets a thread detect that its
// cached buffer pointer belongs to a dead window without touching the
// log it points at.
std::atomic<std::uint64_t> g_generation{0};

struct ThreadSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};

// One cached buffer per retention policy, so a thread feeding both the
// trace session and the flight recorder keeps both buffers warm.
thread_local std::array<ThreadSlot, 2> t_slots;

constexpr double kNanosPerSecond = 1e9;

}  // namespace

std::string_view to_string(EventPhase phase) {
  switch (phase) {
    case EventPhase::kBegin: return "begin";
    case EventPhase::kEnd: return "end";
    case EventPhase::kInstant: return "instant";
    case EventPhase::kAsyncBegin: return "async-begin";
    case EventPhase::kAsyncEnd: return "async-end";
  }
  return "unknown";
}

// -- EventLog ----------------------------------------------------------

EventLog::EventLog(Retention retention, std::size_t capacity_per_thread)
    : retention_(retention),
      capacity_(retention == Retention::kOverwriteRing
                    ? std::max<std::size_t>(capacity_per_thread, 1)
                    : capacity_per_thread) {}

void EventLog::install() {
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buffers_.clear();
  }
  generation_ = g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  epoch_ = Clock::now();
  installed_[static_cast<std::size_t>(retention_)].store(
      this, std::memory_order_release);
}

void EventLog::uninstall() {
  EventLog* expected = this;
  installed_[static_cast<std::size_t>(retention_)].compare_exchange_strong(
      expected, nullptr, std::memory_order_acq_rel);
  // Events stay in buffers_ for export; the next install() clears them.
}

std::uint64_t EventLog::now_ns() const { return ns_since_epoch(Clock::now()); }

std::uint64_t EventLog::ns_since_epoch(Clock::time_point tp) const {
  const auto delta =
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_)
          .count();
  return delta > 0 ? static_cast<std::uint64_t>(delta) : 0;
}

EventLog::ThreadBuffer* EventLog::buffer_for_this_thread() {
  ThreadSlot& slot = t_slots[static_cast<std::size_t>(retention_)];
  if (slot.generation == generation_) {
    return static_cast<ThreadBuffer*>(slot.buffer);
  }
  auto owned = std::make_unique<ThreadBuffer>();
  ThreadBuffer* buffer = owned.get();
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buffer->tid = buffers_.size() + 1;
    buffers_.push_back(std::move(owned));
  }
  slot.generation = generation_;
  slot.buffer = buffer;
  return buffer;
}

void EventLog::emit_span_event(SpanEvent&& event, Clock::time_point at) {
  event.ts_ns = ns_since_epoch(at);
  ThreadBuffer* buffer = buffer_for_this_thread();
  std::lock_guard<std::mutex> lock(buffer->mutex);
  if (buffer->size < capacity_) {
    if (buffer->size % kChunkEvents == 0) {
      buffer->chunks.emplace_back().reserve(
          std::min(kChunkEvents, capacity_ - buffer->size));
    }
    buffer->chunks.back().push_back(std::move(event));
    ++buffer->size;
  } else if (retention_ == Retention::kOverwriteRing) {
    buffer->at(buffer->emitted % capacity_) = std::move(event);
  }
  ++buffer->emitted;
}

std::vector<ThreadTrack> EventLog::tracks() const {
  std::vector<ThreadTrack> out;
  std::lock_guard<std::mutex> registry_lock(registry_mutex_);
  out.reserve(buffers_.size());
  for (const auto& buffer : buffers_) {
    ThreadTrack track;
    track.tid = buffer->tid;
    std::lock_guard<std::mutex> lock(buffer->mutex);
    const std::size_t size = buffer->size;
    // A wrapped ring's oldest event sits at the next write position.
    const std::size_t oldest =
        retention_ == Retention::kOverwriteRing && size > 0
            ? buffer->emitted % size
            : 0;
    track.events.reserve(size);
    for (std::size_t k = 0; k < size; ++k) {
      track.events.push_back(buffer->at((oldest + k) % size));
    }
    track.lost = buffer->emitted - size;
    out.push_back(std::move(track));
  }
  return out;
}

EventLog::Counts EventLog::counts() const {
  Counts total;
  std::lock_guard<std::mutex> registry_lock(registry_mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    total.retained += buffer->size;
    total.lost += buffer->emitted - buffer->size;
  }
  return total;
}

// -- TraceSession ------------------------------------------------------

TraceSession::TraceSession(TraceSessionOptions options)
    : EventLog(Retention::kBoundedAppend, options.max_events_per_thread) {}

TraceSession::~TraceSession() { stop(); }

void TraceSession::start() {
  if (active()) return;
  for (auto& h : layer_latency_) h.reset();
  for (auto& c : layer_failures_) c.reset();
  spans_.store(0, std::memory_order_relaxed);
  failed_spans_.store(0, std::memory_order_relaxed);
  install();
}

void TraceSession::stop() { uninstall(); }

void TraceSession::publish(TraceSession* session, FlightRecorder* recorder,
                           SpanEvent&& event, Clock::time_point at) {
  if (recorder != nullptr) {
    SpanEvent copy = session != nullptr ? event : std::move(event);
    FlightRecorder::ScopedContext::attribute(copy);
    recorder->emit_span_event(std::move(copy), at);
  }
  if (session != nullptr) session->emit_span_event(std::move(event), at);
}

void TraceSession::record_span(Layer layer, std::uint64_t dur_ns,
                               bool failed) {
  const auto index = static_cast<std::size_t>(layer);
  if (index < kLayerCount) {
    layer_latency_[index].record(static_cast<double>(dur_ns) /
                                 kNanosPerSecond);
    if (failed) layer_failures_[index].increment();
  }
  spans_.fetch_add(1, std::memory_order_relaxed);
  if (failed) failed_spans_.fetch_add(1, std::memory_order_relaxed);
}

void TraceSession::instant(Layer layer, std::string_view name,
                           std::string_view detail) {
  TraceSession* session = current();
  FlightRecorder* recorder = FlightRecorder::current();
  if (session == nullptr && recorder == nullptr) return;
  SpanEvent event;
  event.phase = EventPhase::kInstant;
  event.layer = layer;
  event.name = std::string(name);
  event.detail = std::string(detail);
  publish(session, recorder, std::move(event), Clock::now());
}

void TraceSession::async_begin(Layer layer, std::string_view name,
                               std::uint64_t id) {
  TraceSession* session = current();
  if (session == nullptr) return;
  SpanEvent event;
  event.phase = EventPhase::kAsyncBegin;
  event.layer = layer;
  event.name = std::string(name);
  event.id = id;
  publish(session, nullptr, std::move(event), Clock::now());
}

void TraceSession::async_end(Layer layer, std::string_view name,
                             std::uint64_t id) {
  TraceSession* session = current();
  if (session == nullptr) return;
  SpanEvent event;
  event.phase = EventPhase::kAsyncEnd;
  event.layer = layer;
  event.name = std::string(name);
  event.id = id;
  publish(session, nullptr, std::move(event), Clock::now());
}

const LatencyHistogram& TraceSession::layer_latency(Layer layer) const {
  const auto index = static_cast<std::size_t>(layer);
  return layer_latency_[std::min(index, kLayerCount - 1)];
}

std::uint64_t TraceSession::layer_failures(Layer layer) const {
  const auto index = static_cast<std::size_t>(layer);
  return layer_failures_[std::min(index, kLayerCount - 1)].value();
}

// -- ObsSpan -----------------------------------------------------------

ObsSpan::ObsSpan(Layer layer, std::string_view name,
                 std::string_view detail)
    : session_(TraceSession::current()),
      recorder_(FlightRecorder::current()) {
  if (session_ == nullptr && recorder_ == nullptr) return;
  layer_ = layer;
  name_ = std::string(name);
  if (!detail.empty()) {
    name_ += " ";
    name_ += detail;
  }
  begin_tp_ = Clock::now();
  if (session_ != nullptr) {
    SpanEvent event;
    event.phase = EventPhase::kBegin;
    event.layer = layer_;
    event.name = name_;
    TraceSession::publish(session_, nullptr, std::move(event), begin_tp_);
  }
}

ObsSpan::~ObsSpan() {
  if (session_ == nullptr && recorder_ == nullptr) return;
  const auto end_tp = Clock::now();
  SpanEvent event;
  event.phase = EventPhase::kEnd;
  event.layer = layer_;
  event.name = std::move(name_);
  event.failed = failed_;
  event.detail = std::move(detail_);
  event.dur_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end_tp -
                                                           begin_tp_)
          .count());
  if (session_ != nullptr) {
    session_->record_span(layer_, event.dur_ns, failed_);
  }
  TraceSession::publish(session_, recorder_, std::move(event), end_tp);
}

void ObsSpan::fail(const ErrorInfo& error) {
  if (!enabled()) return;
  failed_ = true;
  detail_ = error.describe();
}

void ObsSpan::annotate(std::string_view note) {
  if (!enabled()) return;
  if (!detail_.empty()) detail_ += "; ";
  detail_ += note;
}

}  // namespace biosens::obs
