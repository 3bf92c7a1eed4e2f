// The chronoamperometry sweep: K compatible simulations stepped in
// lockstep through one batched diffusion solve (K >= 1).
//
// A cohort panel measures the same sensor against many patient samples.
// Every one of those chronoamperometric runs shares the Crank-Nicolson
// matrix — (D, grid, dt) are sensor properties, not sample properties —
// so the engine's cohort prefill (engine/cohort.hpp) collects the
// distinct samples, builds one ChronoamperometrySim per lane, and runs
// them here through a transport::DiffusionFieldBatch: one factorization,
// K right-hand sides per step, SIMD stripes.
// ChronoamperometrySim::try_run() is the one-lane call.
//
// Identity contract: `traces[k]` is byte-identical to `sims[k].try_run()`
// — each lane's arithmetic is the same sequence at any K, with the same
// error surfaces. The prefill relies on this to keep batched engines
// indistinguishable from per-job ones (docs/determinism.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "electrochem/chronoamperometry.hpp"
#include "electrochem/trace.hpp"

namespace biosens::electrochem {

/// True when two simulations may share a lockstep batch: identical
/// numerical options, waveform, and transport topology (diffusivity,
/// domain length, hydrodynamics). Sample-dependent inputs — bulk
/// concentration, activity, interferents — stay per-lane.
[[nodiscard]] bool chrono_batch_compatible(const ChronoamperometrySim& a,
                                           const ChronoamperometrySim& b);

/// Result of one lockstep batch run.
struct ChronoBatchResult {
  std::vector<TimeSeries> traces;  ///< one per input sim, same order
  /// Shared-matrix factorizations the batch performed (1 for a fixed-dt
  /// run; sims.size() one-lane runs pay one each).
  std::uint64_t factorizations = 0;
};

/// Runs every simulation in lockstep through one batched solver.
/// Requires all sims mutually chrono_batch_compatible. Any lane's
/// structured error (kinetics, environment, interferents) aborts the
/// whole batch with that error — callers fall back to per-lane runs,
/// which reproduce the identical error per lane.
[[nodiscard]] Expected<ChronoBatchResult> try_run_chrono_batch(
    std::span<const ChronoamperometrySim> sims);

}  // namespace biosens::electrochem
