// The three workloads of the repo benchmark (README.md has the full
// rationale and the metric definitions).
#pragma once

#include <cstdint>

#include "common.hpp"

namespace perfbench {

/// Regenerates the 20-row extended Table 2 with
/// Platform::try_calibrate_all_batch: a closed batch where transport
/// does almost all of the work.
RunResult run_table2(const Options& options);

/// Assays seeded patient cohorts on the paper's 7-sensor platform with
/// Platform::run_panel_batch, sim cache on and half the samples
/// replicate draws.
RunResult run_cohort(const Options& options);

/// Drives a resident SimulationService open loop on one merged, seeded
/// Poisson schedule of interactive FET and bulk CGM requests.
RunResult run_clinic(const Options& options);

/// Mixes the run seed with a stream index (SplitMix64 finalizer), so
/// every call of a run draws from its own reproducible seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
