// One-dimensional finite-difference diffusion solver: K same-topology
// fields of one species stepped in lockstep (K >= 1; a single run is the
// one-lane case).
//
// Models analyte transport from the bulk solution to the electrode plane
// (x = 0). The grid is uniform; time stepping is Crank-Nicolson
// (unconditionally stable, second order). The nonlinear surface-reaction
// flux is resolved exactly within each step: the system is linear in the
// flux, so one solve of the flux-free right-hand side plus the cached
// unit-flux response turns the surface condition into a monotone scalar
// equation per lane, solved to a few ulp (transport/crank_nicolson.hpp).
//
// Every lane shares (D, grid, dt, boundary mode), so the Crank-Nicolson
// matrix is factored once for the whole batch and reused while its key
// holds. The lanes live in one interleaved structure-of-arrays block
// (node-major: node i of lane k at `i*K + k`), and each step advances
// them all through TridiagonalFactorization::solve_many: cache-blocked,
// SIMD-friendly stripes for K > 1, the plain solve() for K = 1
// (docs/performance.md). The surface-flux callable is a template
// parameter, inlined into the per-lane scalar root. No step allocates.
//
// Identity contract: each lane's profile and flux history is
// bit-identical to a one-lane batch stepped through the same schedule —
// the per-lane arithmetic is the same sequence at any K.
// tests/test_diffusion_batch.cpp pins this for K in {1,3,8,17} across
// mixed boundary schedules, with and without steep kinetics.
//
// Boundary conditions:
//  - x = 0 (electrode): a concentration clamp (diffusion-limited
//    electrolysis; validated against the Cottrell equation), a reactive
//    sink whose molar flux depends on the surface concentration (the
//    immobilized-enzyme layer), or an affine sink folded implicitly into
//    the matrix (the H2O2 intermediate).
//  - x = L (bulk): Dirichlet at each lane's bulk concentration. Choose L
//    large enough that the depletion layer never reaches it
//    (recommended_domain_length_m).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "transport/crank_nicolson.hpp"

namespace biosens::transport {

/// Spatial discretization of the diffusion domain.
struct DiffusionGrid {
  double length_m = 500e-6;  ///< domain depth; must exceed the depletion layer
  std::size_t nodes = 200;   ///< >= 3 grid nodes including both boundaries
};

/// Domain depth that safely contains the depletion layer after `duration`:
/// 6 * sqrt(D * t).
[[nodiscard]] double recommended_domain_length_m(Diffusivity d,
                                                 Time duration);

/// K evolving 1-D concentration fields of one species, lockstepped.
class DiffusionFieldBatch {
 public:
  /// Initializes `bulks.size()` lanes, each uniform at its own bulk
  /// concentration. All lanes share (D, grid) — the lockstep
  /// compatibility contract.
  DiffusionFieldBatch(Diffusivity d, DiffusionGrid grid,
                      std::span<const Concentration> bulks);

  [[nodiscard]] std::size_t lanes() const { return lanes_; }

  /// Advances one step with every lane's surface clamped to `surface`
  /// (e.g. zero for diffusion-limited electrolysis). Writes each lane's
  /// inbound molar flux [mol m^-2 s^-1] into `flux_out` (size lanes()),
  /// evaluated from the post-step profile with a second-order one-sided
  /// difference.
  void step_clamped_surface(Time dt, Concentration surface,
                            std::span<double> flux_out);

  /// Advances one step with a reactive surface sink.
  /// `flux_of_surface(lane, c0_mm)` maps a lane's surface concentration
  /// [mM == mol/m^3] to its consumed molar flux [mol m^-2 s^-1]
  /// (typically Gamma * k_cat * c/(K_M + c); non-negative and
  /// non-decreasing in c0_mm), inlined into the per-lane scalar root.
  /// Each lane's flux J solving the post-step surface balance
  /// J = flux_of_surface(lane, c0') to a few ulp lands in `flux_out`
  /// (size lanes()). One batched solve per step.
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

  /// Advances one step with an affine surface sink
  /// J_k = rate * c0_k - production_k (heterogeneous first-order
  /// consumption plus a fixed production term). The shared rate is
  /// folded implicitly into the matrix, so arbitrarily stiff rate
  /// constants remain stable; the per-lane production term sits on the
  /// right-hand side. Writes each lane's consumption flux to `flux_out`
  /// (both spans size lanes()).
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
  /// (dt, boundary mode, sink) change for the WHOLE batch, not one per
  /// step or per lane. Mirrored into engine metrics by the cohort
  /// prefill (engine/cohort.hpp).
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
