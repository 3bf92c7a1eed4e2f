// Crank-Nicolson machinery of the diffusion kernel (DiffusionFieldBatch):
// the matrix rows for each electrode-boundary treatment, the
// factorization cache, and the scalar surface balance that resolves a
// nonlinear reactive sink with a single linear solve per step.
//
// The reactive step. With a surface flux J the Crank-Nicolson system is
// linear in J, which enters only through rhs[0] (-2 dt/dx * J). So the
// post-step profile is
//     c = c_base + J * g,    g = A^-1 (-2 dt/dx * e0),
// where c_base is the solve of the flux-free right-hand side and g is
// the response to a unit flux — one extra solve per kFlux
// factorization, not per step. The surface condition J = F(c0) then
// collapses to the scalar equation h(J) = J - F(max(c0_base + J g0, 0))
// = 0. A^-1 has non-negative entries (A is an M-matrix), so g0 < 0;
// with F non-negative and non-decreasing, h is strictly increasing, the
// root is unique and bracketed by [0, F(max(c0_base, 0))].
// solve_surface_balance finds it to a few ulp, so no step stops on an
// iteration cap.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/math.hpp"

namespace biosens::transport::detail {

/// The electrode-boundary treatments, each with its own matrix row 0.
enum class Boundary { kNone, kClamped, kFlux, kAffine };

/// The Crank-Nicolson matrix of one (D, grid): assembled and factored
/// once per (boundary, dt, sink) key and reused while the key holds.
/// On a kFlux factorization it also caches the unit-flux response g.
/// Every buffer is sized at construction, so no call allocates after
/// the first factorization.
class CrankNicolsonOperator {
 public:
  /// Uniform grid of `nodes` points over [0, length_m]. Throws SpecError
  /// unless D > 0, length_m > 0 and nodes >= 3.
  CrankNicolsonOperator(double d_m2_per_s, double length_m,
                        std::size_t nodes);

  /// Node spacing [m].
  [[nodiscard]] double dx() const { return dx_; }

  /// D dt / dx^2 — the mesh ratio every row and right-hand side uses.
  [[nodiscard]] double lambda(double dt_s) const {
    return d_ * dt_s / (dx_ * dx_);
  }

  /// Ensures the factorization matches (boundary, dt, sink);
  /// reassembles and refactors only when the key changed.
  void ensure(Boundary boundary, double dt_s, double sink);

  [[nodiscard]] const TridiagonalFactorization& factorization() const {
    return factorization_;
  }

  /// Post-step profile response to a unit surface flux,
  /// g = A^-1 (-2 dt/dx * e0); valid while the kFlux key is cached.
  [[nodiscard]] std::span<const double> flux_response() const { return g_; }

  /// Matrix factorizations performed so far (one per key change).
  [[nodiscard]] std::uint64_t factorizations() const {
    return factorizations_;
  }

 private:
  double d_;
  double dx_;
  std::vector<double> lower_, diag_, upper_;
  std::vector<double> g_;
  TridiagonalFactorization factorization_;
  Boundary cached_boundary_ = Boundary::kNone;
  double cached_dt_s_ = -1.0;
  double cached_sink_ = 0.0;
  std::uint64_t factorizations_ = 0;
};

/// Solves the surface balance J = F(max(c0_base + J g0, 0)) of one
/// reactive step for the unique root (see the file comment).
/// Anderson-Bjorck regula falsi inside the bracket; a step bisects
/// instead whenever the two before it failed to halve the bracket, so
/// the bracket halves at least every third evaluation and the loop
/// ends, by construction, once it is a few ulp wide. Since h' >= 1, a
/// point whose residual is within a few ulp of J is that close to the
/// root too, and is returned at once. A negative or non-finite flux
/// throws NumericsError.
template <typename FluxFn>
BIOSENS_HOT double solve_surface_balance(FluxFn&& flux_of_surface,
                                         double c0_base, double g0) {
  constexpr double kTol = 4.0 * std::numeric_limits<double>::epsilon();
  const auto residual = [&](double j) {
    const double h = j - flux_of_surface(std::max(c0_base + j * g0, 0.0));
    require<NumericsError>(std::isfinite(h), "surface flux is not finite");
    return h;
  };
  const auto converged = [kTol](double j, double h) {
    return std::abs(h) <= kTol * std::abs(j);
  };
  // Anderson-Bjorck: when one end is replaced twice running, scale the
  // retained end's residual by how far the replaced one fell, so a
  // stale end stops slowing the interpolation without overshooting.
  const auto retained_scale = [](double h_new, double h_old) {
    const double m = 1.0 - h_new / h_old;
    return m > 0.0 ? m : 0.5;
  };
  const double f0 = -residual(0.0);
  require<NumericsError>(f0 >= 0.0, "surface flux must be non-negative");
  if (f0 == 0.0) return 0.0;

  // h(0) = -f0 < 0 <= h(f0): [0, f0] brackets the root.
  double lo = 0.0, hi = f0, h_lo = -f0, h_hi = residual(f0);
  if (converged(f0, h_hi)) return f0;

  double w_lo = h_lo, w_hi = h_hi;  // interpolation-weighted residuals
  int moved = 0;                    // -1: lo moved last, +1: hi moved last
  double width_1 = std::numeric_limits<double>::infinity();
  double width_2 = width_1;
  for (;;) {
    const double width = hi - lo;
    if (width <= kTol * std::max(std::abs(lo), std::abs(hi))) break;
    double j = (width > 0.5 * width_2)
                   ? 0.5 * (lo + hi)
                   : lo + width * (-w_lo / (w_hi - w_lo));
    if (!(j > lo && j < hi)) j = 0.5 * (lo + hi);
    if (!(j > lo && j < hi)) break;  // lo and hi are adjacent doubles
    width_2 = width_1;
    width_1 = width;

    const double h = residual(j);
    if (converged(j, h)) return j;
    if (h < 0.0) {
      if (moved < 0) w_hi *= retained_scale(h, h_lo);
      lo = j;
      h_lo = w_lo = h;
      moved = -1;
    } else {
      if (moved > 0) w_lo *= retained_scale(h, h_hi);
      hi = j;
      h_hi = w_hi = h;
      moved = 1;
    }
  }
  return (-h_lo <= h_hi) ? lo : hi;
}

}  // namespace biosens::transport::detail
