// Retry policy: re-measurement with exponential backoff in simulated time.
//
// A QC-rejected assay (fouled electrode, clipped amplifier, response
// beyond the calibrated span) is not a crash — the instrument
// re-measures after letting the cell re-equilibrate. An analyte below
// its LOD is a result, not a rejection, and is not re-measured. The
// policy models that: up to max_attempts total measurements, with an
// exponentially growing equilibration delay between them. The delay is
// *simulated* time: it is accumulated into the job report and the
// metrics (it would dominate a real instrument's latency) but never
// slept, so batches run as fast as the CPU allows.
#pragma once

#include <cstddef>

#include "common/expected.hpp"
#include "common/units.hpp"

namespace biosens::engine {

struct RetryPolicy {
  /// Total measurement attempts, including the first (>= 1).
  std::size_t max_attempts = 3;
  /// Equilibration delay before the first re-measurement.
  Time initial_backoff = Time::seconds(30.0);
  /// Growth factor per further re-measurement (>= 1).
  double backoff_multiplier = 2.0;
  /// Ceiling on a single delay.
  Time max_backoff = Time::minutes(10.0);

  /// Throws SpecError when the policy is malformed.
  void validate() const;

  /// Simulated delay before attempt `attempt` (0-based; attempt 0 is
  /// the first measurement and has no delay).
  [[nodiscard]] Time backoff_before_attempt(std::size_t attempt) const;

  /// Total simulated delay accumulated by a job that ran
  /// `attempts` measurements.
  [[nodiscard]] Time total_backoff(std::size_t attempts) const;

  /// Whether a structured attempt failure deserves a re-measurement.
  /// Transient faults (numerics, QC rejection) are worth retrying; a
  /// spec fault is deterministic — re-measuring the same bad request
  /// would burn the whole retry budget producing the same error, so the
  /// engine stops immediately. Delegates to ErrorInfo::retryable().
  [[nodiscard]] bool should_retry(const ErrorInfo& error) const;
};

/// A policy that never retries (one attempt, no delay).
[[nodiscard]] RetryPolicy no_retry();

}  // namespace biosens::engine
