// One-dimensional finite-difference diffusion solver.
//
// Models analyte transport from the bulk solution to the electrode plane
// (x = 0) in a semi-infinite cell. The spatial discretization is a uniform
// grid; time stepping is Crank-Nicolson (unconditionally stable, second
// order). The nonlinear surface-reaction flux is resolved exactly within
// each step: the system is linear in the flux, so one solve of the
// flux-free right-hand side plus the cached unit-flux response turns the
// surface condition into a monotone scalar equation, solved to a few ulp
// (transport/crank_nicolson.hpp).
//
// Hot-path design: the Crank-Nicolson matrix depends only on (D, dt, dx)
// and the boundary mode, none of which change between steps of one run,
// so its Thomas-algorithm forward elimination is factored once and reused
// (invalidated automatically when dt, the boundary mode, or an affine
// sink rate changes). The surface-flux callable of step_reactive_surface
// is a template parameter, so the scalar root finder inlines the
// Michaelis-Menten evaluation instead of paying a std::function
// indirection per evaluation. No step allocates.
//
// Boundary conditions:
//  - x = 0 (electrode): either a concentration clamp (diffusion-limited
//    electrolysis; used to validate against the Cottrell equation) or a
//    reactive sink whose molar flux depends on the surface concentration
//    (the immobilized-enzyme layer).
//  - x = L (bulk): Dirichlet at the bulk concentration. Choose L large
//    enough that the depletion layer never reaches it
//    (recommended_domain_length).
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

/// Evolving 1-D concentration field of a single species.
class DiffusionField {
 public:
  /// Initializes a uniform field at the bulk concentration.
  DiffusionField(Diffusivity d, DiffusionGrid grid, Concentration bulk);

  /// Advances one step with the surface concentration clamped to
  /// `surface` (e.g. zero for diffusion-limited electrolysis). Returns the
  /// inbound molar flux at the electrode [mol m^-2 s^-1], evaluated from
  /// the post-step profile with a second-order one-sided difference.
  double step_clamped_surface(Time dt, Concentration surface);

  /// Advances one step with a reactive surface sink. `flux_of_surface`
  /// maps the surface concentration [mM == mol/m^3] to the consumed molar
  /// flux [mol m^-2 s^-1] (typically Gamma * k_cat * c/(K_M + c)) and
  /// must be non-negative and non-decreasing. Returns the consumption
  /// flux J that solves the post-step surface balance
  /// J = flux_of_surface(c0') to a few ulp. One linear solve per step;
  /// the callable is inlined into the scalar root finder.
  template <typename FluxFn>
  BIOSENS_HOT double step_reactive_surface(Time dt, FluxFn&& flux_of_surface) {
    require<NumericsError>(dt.seconds() > 0.0, "time step must be positive");
    solve_flux_free_step(dt);
    const double flux = detail::solve_surface_balance(
        flux_of_surface, c_[0], cn_.flux_response()[0]);
    apply_surface_flux(flux);
    return flux;
  }

  /// Advances one step with an *affine* surface sink
  /// J = rate_m_per_s * c0 - production (heterogeneous first-order
  /// consumption plus a fixed production term). The affine flux is
  /// folded implicitly into the linear system, so arbitrarily stiff
  /// rate constants remain stable — used for the H2O2 intermediate
  /// consumed at the electrode. Returns the consumption flux.
  double step_affine_surface(Time dt, double rate_m_per_s,
                             double production_flux);

  /// Surface (x = 0) concentration.
  [[nodiscard]] Concentration surface_concentration() const;

  /// Full profile, node 0 = electrode, in mM.
  [[nodiscard]] std::span<const double> profile_milli_molar() const {
    return c_;
  }

  /// Resets the field to a (possibly new) uniform bulk concentration.
  void reset(Concentration bulk);

  [[nodiscard]] const DiffusionGrid& grid() const { return grid_; }
  [[nodiscard]] Concentration bulk() const { return bulk_; }
  [[nodiscard]] double node_spacing_m() const { return cn_.dx(); }

  /// Matrix factorizations performed so far — observability for the
  /// factorization cache (one per (dt, boundary mode, sink) change, not
  /// one per step).
  [[nodiscard]] std::uint64_t factorizations() const {
    return cn_.factorizations();
  }

 private:
  /// Interior + bulk right-hand-side rows from the current profile.
  void assemble_interior_rhs(double lambda);

  /// Ensures the kFlux factorization and solves the step with zero
  /// surface flux, leaving the unclamped c_base in c_.
  void solve_flux_free_step(Time dt);

  /// c = max(c_base + flux * g, 0): the post-step profile at `flux`.
  BIOSENS_HOT void apply_surface_flux(double flux);

  /// Second-order one-sided estimate of -D * dc/dx at x = 0 (mol/m^2/s,
  /// positive when material flows into the electrode plane).
  [[nodiscard]] double surface_gradient_flux() const;

  Diffusivity d_;
  DiffusionGrid grid_;
  Concentration bulk_;
  detail::CrankNicolsonOperator cn_;
  std::vector<double> c_;    ///< concentration profile in mM
  std::vector<double> rhs_;  ///< right-hand side scratch, reused per step
};

}  // namespace biosens::transport
