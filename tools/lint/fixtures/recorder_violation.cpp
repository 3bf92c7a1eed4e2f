// biosens-lint-fixture: src/engine/fixture_recorder_bypass.cpp
// Seeded span-discipline violations: a layer outside src/obs/ forging
// flight-recorder events and health reasons directly instead of going
// through ScopedContext / trigger_* / HealthInputs.
namespace biosens::obs {
enum class EventPhase : unsigned char;  // SEED span-discipline
class FlightRecorder;
struct HealthReport;
}  // namespace biosens::obs

namespace biosens::engine {

void fixture_forge_event(obs::FlightRecorder& recorder) {
  obs::EventPhase* forged = nullptr;  // SEED span-discipline
  (void)forged;
  (void)recorder;
}

template <class Recorder, class Event, class Clock>
void fixture_raw_emission(Recorder& recorder, Event event, Clock at) {
  recorder.emit_span_event(static_cast<Event&&>(event), at);  // SEED span-discipline
}

template <class Report>
void fixture_forge_reason(Report& report) {
  add_reason(report, 1, "queue-saturation", "forged");  // SEED span-discipline
}

}  // namespace biosens::engine
