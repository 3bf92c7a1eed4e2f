#include "transport/crank_nicolson.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace biosens::transport::detail {
namespace {

double validated_spacing(double d_m2_per_s, double length_m,
                         std::size_t nodes) {
  require<SpecError>(d_m2_per_s > 0.0, "diffusivity must be positive");
  require<SpecError>(nodes >= 3, "grid needs at least 3 nodes");
  require<SpecError>(length_m > 0.0, "domain length must be positive");
  return length_m / static_cast<double>(nodes - 1);
}

}  // namespace

CrankNicolsonOperator::CrankNicolsonOperator(double d_m2_per_s,
                                             double length_m,
                                             std::size_t nodes)
    : d_(d_m2_per_s),
      dx_(validated_spacing(d_m2_per_s, length_m, nodes)),
      lower_(nodes - 1, 0.0),
      diag_(nodes, 0.0),
      upper_(nodes - 1, 0.0),
      g_(nodes, 0.0) {}

void CrankNicolsonOperator::ensure(Boundary boundary, double dt_s,
                                   double sink) {
  if (factorization_.factored() && cached_boundary_ == boundary &&
      cached_dt_s_ == dt_s && cached_sink_ == sink) {
    return;
  }
  const std::size_t n = diag_.size();
  const double lambda = this->lambda(dt_s);
  const double half = 0.5 * lambda;

  // Row 0: the electrode boundary.
  switch (boundary) {
    case Boundary::kClamped:
      diag_[0] = 1.0;
      upper_[0] = 0.0;
      break;
    case Boundary::kFlux:
      diag_[0] = 1.0 + lambda;
      upper_[0] = -lambda;
      break;
    case Boundary::kAffine:
      diag_[0] = 1.0 + lambda + sink;
      upper_[0] = -lambda;
      break;
    case Boundary::kNone:
      require<NumericsError>(false, "invalid boundary mode");
      break;
  }

  // Interior rows: Crank-Nicolson.
  for (std::size_t i = 1; i + 1 < n; ++i) {
    lower_[i - 1] = -half;
    diag_[i] = 1.0 + lambda;
    upper_[i] = -half;
  }

  // Row n-1: bulk Dirichlet.
  lower_[n - 2] = 0.0;
  diag_[n - 1] = 1.0;

  factorization_.factor(lower_, diag_, upper_);
  if (boundary == Boundary::kFlux) {
    // Unit-flux response: rhs = -2 dt/dx * e0, solved in place.
    std::fill(g_.begin(), g_.end(), 0.0);
    g_[0] = -2.0 * dt_s / dx_;
    factorization_.solve(g_, g_);
  }
  cached_boundary_ = boundary;
  cached_dt_s_ = dt_s;
  cached_sink_ = sink;
  ++factorizations_;
}

}  // namespace biosens::transport::detail
