// biosens-lint-fixture: src/obs/fixture_recorder_home.cpp
// Inside src/obs/ the raw primitives are legal: this is where the ring
// accounting and the health policy live.
namespace biosens::obs {

enum class EventPhase : unsigned char { kInstant };

struct FakeRing {
  void emit_span_event(EventPhase) {}
};

template <class Report>
void add_reason(Report& report, int severity) {
  report.state = severity;
}

void fixture_home_layer(FakeRing& ring) {
  ring.emit_span_event(EventPhase::kInstant);
}

}  // namespace biosens::obs
