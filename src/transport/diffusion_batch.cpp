#include "transport/diffusion_batch.hpp"

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

DiffusionFieldBatch::DiffusionFieldBatch(Diffusivity d, DiffusionGrid grid,
                                         std::span<const Concentration> bulks)
    : d_(d),
      grid_(grid),
      lanes_(bulks.size()),
      cn_(d.m2_per_s(), grid.length_m, grid.nodes) {
  require<SpecError>(lanes_ >= 1, "batch needs at least one lane");
  const std::size_t n = grid.nodes;
  bulk_mm_.resize(lanes_);
  c_.assign(n * lanes_, 0.0);
  for (std::size_t k = 0; k < lanes_; ++k) {
    require<SpecError>(bulks[k].milli_molar() >= 0.0,
                       "bulk concentration must be non-negative");
    bulk_mm_[k] = bulks[k].milli_molar();
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < lanes_; ++k) c_[i * lanes_ + k] = bulk_mm_[k];
  }
  rhs_.assign(n * lanes_, 0.0);
}

void DiffusionFieldBatch::reset(std::span<const Concentration> bulks) {
  require<SpecError>(bulks.size() == lanes_, "batch reset lane count mismatch");
  for (std::size_t k = 0; k < lanes_; ++k) {
    require<SpecError>(bulks[k].milli_molar() >= 0.0,
                       "bulk concentration must be non-negative");
    bulk_mm_[k] = bulks[k].milli_molar();
  }
  const std::size_t n = grid_.nodes;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < lanes_; ++k) c_[i * lanes_ + k] = bulk_mm_[k];
  }
}

Concentration DiffusionFieldBatch::surface_concentration(
    std::size_t lane) const {
  require<NumericsError>(lane < lanes_, "lane out of range");
  return Concentration::milli_molar(c_[lane]);
}

std::vector<double> DiffusionFieldBatch::profile_milli_molar(
    std::size_t lane) const {
  require<NumericsError>(lane < lanes_, "lane out of range");
  const std::size_t n = grid_.nodes;
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = c_[i * lanes_ + lane];
  return out;
}

Concentration DiffusionFieldBatch::bulk(std::size_t lane) const {
  require<NumericsError>(lane < lanes_, "lane out of range");
  return Concentration::milli_molar(bulk_mm_[lane]);
}

double DiffusionFieldBatch::surface_gradient_flux(std::size_t lane) const {
  // Second-order one-sided difference for dc/dx at x = 0, read from the
  // interleaved layout; inbound flux is +D * dc/dx (material moves
  // toward the depleted electrode plane).
  const double dcdx = (-3.0 * c_[lane] + 4.0 * c_[lanes_ + lane] -
                       c_[2 * lanes_ + lane]) /
                      (2.0 * cn_.dx());
  return d_.m2_per_s() * dcdx;
}

void DiffusionFieldBatch::assemble_interior_rhs(double lambda) {
  const std::size_t n = grid_.nodes;
  const double half = 0.5 * lambda;
  // Node i of lane k sits at i*K + k, so its neighbours are j -+ K: one
  // flat pass over the interior rows of every lane.
  for (std::size_t j = lanes_; j < (n - 1) * lanes_; ++j) {
    rhs_[j] = half * c_[j - lanes_] + (1.0 - lambda) * c_[j] +
              half * c_[j + lanes_];
  }
  double* rl = rhs_.data() + (n - 1) * lanes_;
  for (std::size_t k = 0; k < lanes_; ++k) rl[k] = bulk_mm_[k];
}

void DiffusionFieldBatch::solve_flux_free_step(Time dt) {
  const double dt_s = dt.seconds();
  cn_.ensure(Boundary::kFlux, dt_s, 0.0);
  const double lambda = cn_.lambda(dt_s);
  for (std::size_t k = 0; k < lanes_; ++k) {
    rhs_[k] = c_[k] * (1.0 - lambda) + lambda * c_[lanes_ + k];
  }
  assemble_interior_rhs(lambda);
  cn_.factorization().solve_many(rhs_, c_, lanes_);
}

BIOSENS_HOT void DiffusionFieldBatch::apply_surface_flux(
    std::span<const double> fluxes) {
  const std::span<const double> g = cn_.flux_response();
  // The clamp also absorbs round-off negatives near a hard sink.
  if (lanes_ == 1) {
    const double flux = fluxes[0];
    for (std::size_t i = 0; i < c_.size(); ++i) {
      c_[i] = std::max(c_[i] + flux * g[i], 0.0);
    }
    return;
  }
  const std::size_t n = grid_.nodes;
  for (std::size_t i = 0; i < n; ++i) {
    const double gi = g[i];
    double* ci = c_.data() + i * lanes_;
    for (std::size_t k = 0; k < lanes_; ++k) {
      ci[k] = std::max(ci[k] + fluxes[k] * gi, 0.0);
    }
  }
}

BIOSENS_HOT void DiffusionFieldBatch::step_clamped_surface(
    Time dt, Concentration surface, std::span<double> flux_out) {
  require<NumericsError>(dt.seconds() > 0.0, "time step must be positive");
  require<NumericsError>(flux_out.size() == lanes_, "flux_out size mismatch");
  const double dt_s = dt.seconds();
  cn_.ensure(Boundary::kClamped, dt_s, 0.0);

  for (std::size_t k = 0; k < lanes_; ++k) rhs_[k] = surface.milli_molar();
  assemble_interior_rhs(cn_.lambda(dt_s));

  cn_.factorization().solve_many(rhs_, c_, lanes_);
  for (double& v : c_) v = std::max(v, 0.0);
  for (std::size_t k = 0; k < lanes_; ++k) {
    flux_out[k] = surface_gradient_flux(k);
  }
}

BIOSENS_HOT void DiffusionFieldBatch::step_affine_surface(
    Time dt, double rate_m_per_s, std::span<const double> production_flux,
    std::span<double> flux_out) {
  require<NumericsError>(dt.seconds() > 0.0, "time step must be positive");
  require<NumericsError>(rate_m_per_s >= 0.0,
                         "surface rate must be non-negative");
  require<NumericsError>(production_flux.size() == lanes_,
                         "production_flux size mismatch");
  require<NumericsError>(flux_out.size() == lanes_, "flux_out size mismatch");
  const double dt_s = dt.seconds();
  const double lambda = cn_.lambda(dt_s);
  const double sink = 2.0 * rate_m_per_s * dt_s / cn_.dx();
  cn_.ensure(Boundary::kAffine, dt_s, sink);

  // Row 0 per lane: half-cell balance with the affine flux implicit:
  // c0'(1 + lambda + sink) - lambda c1' =
  //   c0 (1 - lambda) + lambda c1 + 2 dt/dx * production.
  for (std::size_t k = 0; k < lanes_; ++k) {
    rhs_[k] = c_[k] * (1.0 - lambda) + lambda * c_[lanes_ + k] +
              2.0 * production_flux[k] * dt_s / cn_.dx();
  }
  assemble_interior_rhs(lambda);

  cn_.factorization().solve_many(rhs_, c_, lanes_);
  for (double& v : c_) v = std::max(v, 0.0);
  for (std::size_t k = 0; k < lanes_; ++k) {
    flux_out[k] = rate_m_per_s * c_[k] - production_flux[k];
  }
}

}  // namespace biosens::transport
