#include "transport/diffusion.hpp"

#include <algorithm>
#include <cmath>

#include "common/annotations.hpp"
#include "common/error.hpp"

namespace biosens::transport {

using detail::Boundary;

double recommended_domain_length_m(Diffusivity d, Time duration) {
  require<NumericsError>(duration.seconds() > 0.0,
                         "duration must be positive");
  return 6.0 * std::sqrt(d.m2_per_s() * duration.seconds());
}

DiffusionField::DiffusionField(Diffusivity d, DiffusionGrid grid,
                               Concentration bulk)
    : d_(d),
      grid_(grid),
      bulk_(bulk),
      cn_(d.m2_per_s(), grid.length_m, grid.nodes) {
  require<SpecError>(bulk.milli_molar() >= 0.0,
                     "bulk concentration must be non-negative");
  c_.assign(grid.nodes, bulk.milli_molar());
  rhs_.assign(grid.nodes, 0.0);
}

void DiffusionField::reset(Concentration bulk) {
  require<SpecError>(bulk.milli_molar() >= 0.0,
                     "bulk concentration must be non-negative");
  bulk_ = bulk;
  std::fill(c_.begin(), c_.end(), bulk.milli_molar());
}

Concentration DiffusionField::surface_concentration() const {
  return Concentration::milli_molar(c_[0]);
}

double DiffusionField::surface_gradient_flux() const {
  // Second-order one-sided difference for dc/dx at x = 0; inbound flux is
  // +D * dc/dx (material moves toward the depleted electrode plane).
  const double dcdx = (-3.0 * c_[0] + 4.0 * c_[1] - c_[2]) / (2.0 * cn_.dx());
  return d_.m2_per_s() * dcdx;
}

void DiffusionField::assemble_interior_rhs(double lambda) {
  const std::size_t n = c_.size();
  const double half = 0.5 * lambda;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    rhs_[i] = half * c_[i - 1] + (1.0 - lambda) * c_[i] + half * c_[i + 1];
  }
  rhs_[n - 1] = bulk_.milli_molar();
}

void DiffusionField::solve_flux_free_step(Time dt) {
  const double dt_s = dt.seconds();
  cn_.ensure(Boundary::kFlux, dt_s, 0.0);
  const double lambda = cn_.lambda(dt_s);
  rhs_[0] = c_[0] * (1.0 - lambda) + lambda * c_[1];
  assemble_interior_rhs(lambda);
  cn_.factorization().solve(rhs_, c_);
}

BIOSENS_HOT void DiffusionField::apply_surface_flux(double flux) {
  const std::span<const double> g = cn_.flux_response();
  // The clamp also absorbs round-off negatives near a hard sink.
  for (std::size_t i = 0; i < c_.size(); ++i) {
    c_[i] = std::max(c_[i] + flux * g[i], 0.0);
  }
}

BIOSENS_HOT double DiffusionField::step_clamped_surface(Time dt,
                                                        Concentration surface) {
  require<NumericsError>(dt.seconds() > 0.0, "time step must be positive");
  const double dt_s = dt.seconds();
  cn_.ensure(Boundary::kClamped, dt_s, 0.0);

  rhs_[0] = surface.milli_molar();
  assemble_interior_rhs(cn_.lambda(dt_s));

  cn_.factorization().solve(rhs_, c_);
  for (double& v : c_) v = std::max(v, 0.0);
  return surface_gradient_flux();
}

BIOSENS_HOT double DiffusionField::step_affine_surface(
    Time dt, double rate_m_per_s, double production_flux) {
  require<NumericsError>(dt.seconds() > 0.0, "time step must be positive");
  require<NumericsError>(rate_m_per_s >= 0.0,
                         "surface rate must be non-negative");
  const double dt_s = dt.seconds();
  const double lambda = cn_.lambda(dt_s);
  const double sink = 2.0 * rate_m_per_s * dt_s / cn_.dx();
  cn_.ensure(Boundary::kAffine, dt_s, sink);

  // Row 0: half-cell balance with the affine flux treated implicitly:
  // c0'(1 + lambda + sink) - lambda c1' =
  //   c0 (1 - lambda) + lambda c1 + 2 dt/dx * production.
  rhs_[0] = c_[0] * (1.0 - lambda) + lambda * c_[1] +
            2.0 * production_flux * dt_s / cn_.dx();
  assemble_interior_rhs(lambda);

  cn_.factorization().solve(rhs_, c_);
  for (double& v : c_) v = std::max(v, 0.0);
  return rate_m_per_s * c_[0] - production_flux;
}

}  // namespace biosens::transport
