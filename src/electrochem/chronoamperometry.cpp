#include "electrochem/chronoamperometry.hpp"

#include <cmath>
#include <span>
#include <utility>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "electrochem/chrono_batch.hpp"

namespace biosens::electrochem {

PotentialStep standard_oxidase_step(Time hold) {
  return PotentialStep(Potential::volts(0.0), Potential::millivolts(650.0),
                       hold);
}

ChronoamperometrySim::ChronoamperometrySim(Cell cell, PotentialStep waveform,
                                           ChronoOptions options)
    : cell_(std::move(cell)), waveform_(waveform), options_(options) {
  require<SpecError>(options.duration.seconds() > 0.0,
                     "duration must be positive");
  require<SpecError>(options.dt.seconds() > 0.0, "dt must be positive");
  require<SpecError>(options.dt.seconds() < options.duration.seconds(),
                     "dt must be below the duration");
  require<SpecError>(options.grid_nodes >= 3, "grid too coarse");
}

TimeSeries ChronoamperometrySim::run() const {
  return try_run().value_or_throw();
}

BIOSENS_HOT Expected<TimeSeries> ChronoamperometrySim::try_run() const {
  auto batch = try_run_chrono_batch(std::span(this, 1));
  if (!batch) return batch.error();
  return std::move((*batch).traces.front());
}

Current ChronoamperometrySim::steady_state() const {
  return try_steady_state().value_or_throw();
}

Expected<Current> ChronoamperometrySim::try_steady_state() const {
  return ctx("steady state", try_run().and_then([](const TimeSeries& trace) {
    return trace.try_tail_mean_a(0.1).map(
        [](double amps) { return Current::amps(amps); });
  }));
}

Time ChronoamperometrySim::response_time_95() const {
  const TimeSeries trace = run();
  require<AnalysisError>(!trace.empty(), "empty trace");
  const double final_value = trace.tail_mean_a(0.05);
  if (std::abs(final_value) <= 0.0) return Time::seconds(0.0);
  // The answer is the first index from which the signal *stays* within
  // 5% of the final value — i.e. one past the last excursion. A single
  // reverse scan finds that last excursion; the old forward walk
  // restarted an inner scan at every candidate (quadratic on noisy
  // traces that brush the band repeatedly).
  const double band = 0.05 * std::abs(final_value);
  for (std::size_t i = trace.size(); i-- > 0;) {
    if (std::abs(trace.current_a[i] - final_value) > band) {
      // Sample i is the last excursion; settled from i + 1 (or never,
      // when the final sample itself is outside the band).
      return Time::seconds(i + 1 < trace.size() ? trace.time_s[i + 1]
                                                : trace.time_s.back());
    }
  }
  return Time::seconds(trace.time_s.front());
}

}  // namespace biosens::electrochem
