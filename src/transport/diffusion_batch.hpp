// Batched structure-of-arrays diffusion solver: K same-topology fields
// stepped in lockstep.
//
// A cohort workload presents the same sensor physics over and over:
// every patient's chronoamperometric run solves the same Crank-Nicolson
// matrix — only the concentration state differs. DiffusionFieldBatch
// holds K fields whose (D, grid, dt, boundary mode) agree as one
// interleaved SoA block (node-major: node i of lane k at `i*K + k`),
// factors the shared matrix ONCE, and advances every lane per step
// through TridiagonalFactorization::solve_many — cache-blocked stripes,
// SIMD-friendly inner loops (docs/performance.md, "Cohort batching").
//
// Identity contract: each lane's profile and flux history is
// bit-identical to an independent DiffusionField stepped through the
// same schedule. The per-lane arithmetic is the exact serial sequence:
// one flux-free solve (solve_many matches solve bit for bit), the same
// scalar surface-balance root on the lane's own c0_base with the shared
// unit-flux response g, and the same c_base + J*g pass.
// tests/test_diffusion_batch.cpp pins this for K in {1,3,8,17} across
// mixed boundary schedules, with and without steep kinetics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "transport/crank_nicolson.hpp"
#include "transport/diffusion.hpp"

namespace biosens::transport {

/// K evolving 1-D concentration fields of one species, lockstepped.
class DiffusionFieldBatch {
 public:
  /// Initializes `bulks.size()` lanes, each uniform at its own bulk
  /// concentration. All lanes share (D, grid) — the lockstep
  /// compatibility contract.
  DiffusionFieldBatch(Diffusivity d, DiffusionGrid grid,
                      std::span<const Concentration> bulks);

  [[nodiscard]] std::size_t lanes() const { return lanes_; }

  /// Lockstep counterpart of DiffusionField::step_clamped_surface: one
  /// step with every lane's surface clamped to `surface`. Writes each
  /// lane's inbound molar flux [mol m^-2 s^-1] into `flux_out`
  /// (size lanes()).
  void step_clamped_surface(Time dt, Concentration surface,
                            std::span<double> flux_out);

  /// Lockstep counterpart of DiffusionField::step_reactive_surface.
  /// `flux_of_surface(lane, c0_mm)` maps a lane's surface concentration
  /// to its consumed molar flux (non-negative, non-decreasing in c0_mm),
  /// inlined into the per-lane scalar root. Each lane's surface-balance
  /// flux lands in `flux_out` (size lanes()). One batched solve per step.
  template <typename FluxFn>
  BIOSENS_HOT void step_reactive_surface(Time dt, FluxFn&& flux_of_surface,
                                         std::span<double> flux_out) {
    require<NumericsError>(dt.seconds() > 0.0, "time step must be positive");
    require<NumericsError>(flux_out.size() == lanes_,
                           "flux_out size mismatch");
    solve_flux_free_step(dt);
    const double g0 = cn_.flux_response()[0];
    for (std::size_t k = 0; k < lanes_; ++k) {
      flux_out[k] = detail::solve_surface_balance(
          [&](double c0) { return flux_of_surface(k, c0); }, c_[k], g0);
    }
    apply_surface_flux(flux_out);
  }

  /// Lockstep counterpart of DiffusionField::step_affine_surface:
  /// J_k = rate * c0_k - production_k, with the (shared) rate folded
  /// implicitly into the matrix and the per-lane production term on the
  /// right-hand side. Writes each lane's consumption flux to
  /// `flux_out` (both spans size lanes()).
  void step_affine_surface(Time dt, double rate_m_per_s,
                           std::span<const double> production_flux,
                           std::span<double> flux_out);

  /// Surface (x = 0) concentration of one lane.
  [[nodiscard]] Concentration surface_concentration(std::size_t lane) const;

  /// Copy of one lane's full profile, node 0 = electrode, in mM (the
  /// SoA block stores lanes interleaved; extraction is a cold path).
  [[nodiscard]] std::vector<double> profile_milli_molar(
      std::size_t lane) const;

  /// Resets every lane to a (possibly new) uniform bulk concentration.
  void reset(std::span<const Concentration> bulks);

  [[nodiscard]] const DiffusionGrid& grid() const { return grid_; }
  [[nodiscard]] Concentration bulk(std::size_t lane) const;
  [[nodiscard]] double node_spacing_m() const { return cn_.dx(); }

  /// Shared-matrix factorizations performed so far: one per
  /// (dt, boundary mode, sink) change for the WHOLE batch — the serial
  /// path pays K of them for the same schedule. Mirrored into engine
  /// metrics by the cohort prefill (engine/cohort.hpp).
  [[nodiscard]] std::uint64_t factorizations() const {
    return cn_.factorizations();
  }

 private:
  /// Ensures the kFlux factorization and solves every lane's step with
  /// zero surface flux, leaving the unclamped c_base block in c_.
  void solve_flux_free_step(Time dt);

  /// c = max(c_base + flux_k * g, 0) per lane, g shared by all lanes.
  BIOSENS_HOT void apply_surface_flux(std::span<const double> fluxes);

  /// Interior + bulk right-hand-side rows from the current profiles
  /// (shared by every step kind).
  void assemble_interior_rhs(double lambda);

  [[nodiscard]] double surface_gradient_flux(std::size_t lane) const;

  Diffusivity d_;
  DiffusionGrid grid_;
  std::size_t lanes_ = 0;
  detail::CrankNicolsonOperator cn_;
  std::vector<double> bulk_mm_;  ///< per-lane bulk concentration [mM]
  std::vector<double> c_;        ///< SoA profiles, node-major interleaved
  std::vector<double> rhs_;      ///< SoA right-hand side block, reused
};

}  // namespace biosens::transport
