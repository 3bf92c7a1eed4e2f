// Instrument quality control.
//
// A point-of-care device must recognize its own bad measurements: a
// fouled electrode, a spent biolayer, a missing sample, a clipped
// amplifier. This module runs the acceptance checks a regulated
// instrument applies before reporting a number (and is exercised by the
// failure-injection tests).
#pragma once

#include <string>
#include <vector>

#include "analysis/calibration.hpp"
#include "core/catalog.hpp"
#include "core/protocol.hpp"
#include "core/sensor.hpp"

namespace biosens::core {

/// One QC finding; rejects() gives its severity.
enum class QcFlag {
  kCalibrationNonlinear,   ///< R^2 of the linear region below threshold
  kSensitivityCollapsed,   ///< slope far below the device's design value
  kBlankUnstable,          ///< blank sigma far above the design noise
  kRangeTruncated,         ///< detected range < half the design range
  kResponseOutOfRange,     ///< assay response beyond the calibrated span
  /// Assay response within 3 sigma of the blank: the analyte is not
  /// detected (< LOD). A reported finding, not a rejection.
  kNoResponse,
};

/// Whether a flag marks a bad measurement, so the report is not
/// accepted (and a panel batch re-measures it).
[[nodiscard]] bool rejects(QcFlag flag);

/// Thresholds of the acceptance checks.
struct QcPolicy {
  double min_r_squared = 0.98;
  /// Calibration slope must reach this fraction of the design slope.
  double min_sensitivity_fraction = 0.5;
  /// Blank sigma may exceed the design electrode noise by this factor.
  double max_blank_sigma_factor = 4.0;
  double min_range_fraction = 0.5;
};

/// Outcome of a calibration or assay QC review.
struct QcReport {
  bool accepted = true;  ///< no rejecting flag was raised
  std::vector<QcFlag> flags;
  std::string summary;  ///< human-readable one-liner
};

/// Reviews a calibration outcome against the device's design figures.
[[nodiscard]] QcReport review_calibration(const CatalogEntry& design,
                                          const ProtocolOutcome& outcome,
                                          const QcPolicy& policy = {});

/// Reviews one assay response against an accepted calibration: rejects
/// out-of-span readings and flags (without rejecting) no-response ones.
[[nodiscard]] QcReport review_assay(
    const analysis::CalibrationResult& calibration, double response_a);

[[nodiscard]] std::string_view to_string(QcFlag flag);

}  // namespace biosens::core
