// Small numerical kernels shared by the simulators and the analysis layer.
//
// Everything here is deliberately dependency-free: a tridiagonal solver
// for the Crank-Nicolson diffusion step, grid/integration helpers, and
// monotone 1-D interpolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"

// Compile-time dispatch of the batched tridiagonal kernels. The scalar
// path is the portable reference implementation; the wide path carries
// the vectorization-friendly form (restrict-qualified matrix pointers,
// `ivdep` inner loops over the lane stripe) that SSE2/AVX2/NEON
// backends turn into packed arithmetic. Per lane the wide path performs
// the *same IEEE operations in the same order* — lanes are independent
// recurrences, so packing them changes nothing — and the test suite
// asserts bit-equality between the two paths on every platform.
// Define BIOSENS_BATCH_FORCE_SCALAR (or configure with
// -DBIOSENS_BATCH_FORCE_SCALAR=ON) to pin the dispatcher to the scalar
// reference.
#if !defined(BIOSENS_BATCH_FORCE_SCALAR) && \
    (defined(__AVX2__) || defined(__SSE2__) || defined(__ARM_NEON) || \
     defined(__aarch64__))
#define BIOSENS_BATCH_WIDE 1
#else
#define BIOSENS_BATCH_WIDE 0
#endif

#if defined(__GNUC__) && !defined(__clang__)
#define BIOSENS_IVDEP _Pragma("GCC ivdep")
#elif defined(__clang__)
#define BIOSENS_IVDEP _Pragma("clang loop vectorize(enable) interleave(enable)")
#else
#define BIOSENS_IVDEP
#endif

namespace biosens {

/// Reusable Thomas-algorithm factorization of a tridiagonal matrix.
///
/// The forward elimination (the pivots and normalized super-diagonal)
/// depends only on the matrix, not on the right-hand side, so a solver
/// that steps the same Crank-Nicolson matrix thousands of times can
/// factor once and then run solve() — one division, one multiply-add
/// forward and one multiply-add backward per node, with zero heap
/// allocation. solve() reproduces solve_tridiagonal() bit-for-bit: the
/// arithmetic (including the per-node division by the stored pivot) is
/// the textbook sequence, merely split at the matrix/rhs boundary.
class TridiagonalFactorization {
 public:
  /// Factors A (lower: n-1, diag: n, upper: n-1 entries). Throws
  /// NumericsError on size mismatch or a numerically singular pivot.
  void factor(std::span<const double> lower, std::span<const double> diag,
              std::span<const double> upper) {
    const std::size_t n = diag.size();
    require<NumericsError>(n >= 1, "tridiagonal system must be non-empty");
    require<NumericsError>(lower.size() == n - 1 && upper.size() == n - 1,
                           "tridiagonal system size mismatch");
    lower_.assign(lower.begin(), lower.end());
    c_prime_.assign(n, 0.0);
    pivot_.assign(n, 0.0);

    double pivot = diag[0];
    require<NumericsError>(std::abs(pivot) > 1e-300,
                           "singular tridiagonal pivot");
    pivot_[0] = pivot;
    c_prime_[0] = (n > 1) ? upper[0] / pivot : 0.0;
    for (std::size_t i = 1; i < n; ++i) {
      pivot = diag[i] - lower[i - 1] * c_prime_[i - 1];
      require<NumericsError>(std::abs(pivot) > 1e-300,
                             "singular tridiagonal pivot");
      pivot_[i] = pivot;
      if (i < n - 1) c_prime_[i] = upper[i] / pivot;
    }
  }

  /// Solves A*x = rhs with the stored factorization. `x` must have the
  /// factored size; `x` and `rhs` may alias. Requires factor() first.
  BIOSENS_HOT void solve(std::span<const double> rhs,
                         std::span<double> x) const {
    const std::size_t n = pivot_.size();
    require<NumericsError>(n >= 1, "solve() before factor()");
    require<NumericsError>(rhs.size() == n && x.size() == n,
                           "tridiagonal rhs size mismatch");
    x[0] = rhs[0] / pivot_[0];
    for (std::size_t i = 1; i < n; ++i) {
      x[i] = (rhs[i] - lower_[i - 1] * x[i - 1]) / pivot_[i];
    }
    for (std::size_t i = n - 1; i-- > 0;) {
      x[i] -= c_prime_[i] * x[i + 1];
    }
  }

  /// Solves A*x_k = rhs_k for `lanes` independent right-hand sides with
  /// the stored factorization — one forward elimination amortized over a
  /// whole cohort stripe. Layout is structure-of-arrays, node-major:
  /// element (node i, lane k) lives at index `i * lanes + k`, so the
  /// inner per-node loop walks `lanes` contiguous doubles and the
  /// per-lane arithmetic is the exact textbook sequence of solve().
  /// Lanes are processed in cache-blocked stripes sized so the working
  /// set of one forward+backward sweep stays L2-resident
  /// (stripe_lanes()). `x` and `rhs` must each have size() * lanes
  /// elements; they may alias only as the *same* buffer. Each lane's
  /// result is bit-identical to a per-lane solve() of the same rhs, and
  /// one lane simply runs solve().
  BIOSENS_HOT void solve_many(std::span<const double> rhs,
                              std::span<double> x,
                              std::size_t lanes) const {
    if (lanes == 1) {
      solve(rhs, x);
      return;
    }
#if BIOSENS_BATCH_WIDE
    solve_many_wide(rhs, x, lanes);
#else
    solve_many_scalar(rhs, x, lanes);
#endif
  }

  /// Portable scalar reference for solve_many(): plain per-lane loops,
  /// no vectorization pragmas. The wide path must match it bit-for-bit
  /// (asserted in tests/test_math.cpp).
  BIOSENS_HOT void solve_many_scalar(std::span<const double> rhs,
                                     std::span<double> x,
                                     std::size_t lanes) const {
    check_many(rhs, x, lanes);
    const std::size_t n = pivot_.size();
    const std::size_t stripe = stripe_lanes(n, lanes);
    for (std::size_t k0 = 0; k0 < lanes; k0 += stripe) {
      const std::size_t k1 = std::min(lanes, k0 + stripe);
      const double* r = rhs.data();
      double* y = x.data();
      for (std::size_t k = k0; k < k1; ++k) y[k] = r[k] / pivot_[0];
      for (std::size_t i = 1; i < n; ++i) {
        const double li = lower_[i - 1];
        const double pi = pivot_[i];
        const double* ri = r + i * lanes;
        const double* yp = y + (i - 1) * lanes;
        double* yi = y + i * lanes;
        for (std::size_t k = k0; k < k1; ++k) {
          yi[k] = (ri[k] - li * yp[k]) / pi;
        }
      }
      for (std::size_t i = n - 1; i-- > 0;) {
        const double ci = c_prime_[i];
        const double* yn = y + (i + 1) * lanes;
        double* yi = y + i * lanes;
        for (std::size_t k = k0; k < k1; ++k) {
          yi[k] -= ci * yn[k];
        }
      }
    }
  }

  /// Vectorization-friendly wide path: identical per-lane arithmetic,
  /// restrict-qualified matrix pointers and ivdep-annotated stripe
  /// loops so the compiler packs independent lanes into SIMD registers.
  BIOSENS_HOT void solve_many_wide(std::span<const double> rhs,
                                   std::span<double> x,
                                   std::size_t lanes) const {
    check_many(rhs, x, lanes);
    const std::size_t n = pivot_.size();
    const std::size_t stripe = stripe_lanes(n, lanes);
    const double* BIOSENS_RESTRICT lower = lower_.data();
    const double* BIOSENS_RESTRICT pivot = pivot_.data();
    const double* BIOSENS_RESTRICT cp = c_prime_.data();
    for (std::size_t k0 = 0; k0 < lanes; k0 += stripe) {
      const std::size_t k1 = std::min(lanes, k0 + stripe);
      const double* r = rhs.data();
      double* y = x.data();
      const double p0 = pivot[0];
      BIOSENS_IVDEP
      for (std::size_t k = k0; k < k1; ++k) y[k] = r[k] / p0;
      for (std::size_t i = 1; i < n; ++i) {
        const double li = lower[i - 1];
        const double pi = pivot[i];
        const double* ri = r + i * lanes;
        const double* yp = y + (i - 1) * lanes;
        double* yi = y + i * lanes;
        BIOSENS_IVDEP
        for (std::size_t k = k0; k < k1; ++k) {
          yi[k] = (ri[k] - li * yp[k]) / pi;
        }
      }
      for (std::size_t i = n - 1; i-- > 0;) {
        const double ci = cp[i];
        const double* yn = y + (i + 1) * lanes;
        double* yi = y + i * lanes;
        BIOSENS_IVDEP
        for (std::size_t k = k0; k < k1; ++k) {
          yi[k] -= ci * yn[k];
        }
      }
    }
  }

  /// Lanes per cache-blocked stripe: one forward+backward sweep touches
  /// x and rhs once per node, so two arrays of `nodes * stripe` doubles
  /// must stay resident; the budget is half of a conservative 256 KiB
  /// L2 so the factorization arrays and prefetch traffic fit beside
  /// them. Rounded down to a multiple of 8 lanes (one cache line of
  /// doubles) when possible, never below 1 or above `lanes`.
  [[nodiscard]] static std::size_t stripe_lanes(std::size_t nodes,
                                                std::size_t lanes) {
    constexpr std::size_t kL2StripeBytes = 128 * 1024;
    const std::size_t bytes_per_lane =
        std::max<std::size_t>(2 * sizeof(double) * nodes, 1);
    std::size_t stripe = kL2StripeBytes / bytes_per_lane;
    if (stripe >= 8) stripe &= ~std::size_t{7};
    if (stripe == 0) stripe = 1;
    return std::min(stripe, std::max<std::size_t>(lanes, 1));
  }

  [[nodiscard]] bool factored() const { return !pivot_.empty(); }
  [[nodiscard]] std::size_t size() const { return pivot_.size(); }
  void reset() {
    lower_.clear();
    c_prime_.clear();
    pivot_.clear();
  }

 private:
  void check_many(std::span<const double> rhs, std::span<double> x,
                  std::size_t lanes) const {
    const std::size_t n = pivot_.size();
    require<NumericsError>(n >= 1, "solve_many() before factor()");
    require<NumericsError>(lanes >= 1, "solve_many() needs >= 1 lane");
    require<NumericsError>(
        rhs.size() == n * lanes && x.size() == n * lanes,
        "tridiagonal batched rhs size mismatch");
  }

  std::vector<double> lower_;    ///< copied sub-diagonal (rhs pass needs it)
  std::vector<double> c_prime_;  ///< normalized super-diagonal
  std::vector<double> pivot_;    ///< eliminated diagonal pivots
};

/// Solves a tridiagonal linear system A*x = d with the Thomas algorithm.
///
/// `lower` has n-1 entries (sub-diagonal), `diag` has n entries, `upper`
/// has n-1 entries (super-diagonal), `rhs` has n entries. Returns x.
/// Throws NumericsError on size mismatch or a (numerically) singular pivot.
/// O(n) time, O(n) scratch. One-shot convenience over
/// TridiagonalFactorization — repeated solves of one matrix should factor
/// once and reuse it.
[[nodiscard]] std::vector<double> solve_tridiagonal(
    std::span<const double> lower, std::span<const double> diag,
    std::span<const double> upper, std::span<const double> rhs);

/// `n` evenly spaced values from `lo` to `hi` inclusive. Requires n >= 2.
[[nodiscard]] std::vector<double> linspace(double lo, double hi,
                                           std::size_t n);

/// Trapezoidal integral of samples `y` over matching abscissae `x`.
[[nodiscard]] double trapezoid(std::span<const double> x,
                               std::span<const double> y);

/// Linear interpolation of (xs, ys) at query point `x`. `xs` must be
/// strictly increasing; queries outside the range clamp to the endpoints.
[[nodiscard]] double interp1(std::span<const double> xs,
                             std::span<const double> ys, double x);

/// Finds a root of `f` in [lo, hi] by bisection. Requires a sign change;
/// refines until the bracket is below `tol` or `max_iter` halvings.
/// Templated on the callable so the per-iteration evaluation inlines —
/// no std::function indirection or heap allocation on solver hot paths.
template <typename F>
[[nodiscard]] BIOSENS_HOT double bisect(F&& f, double lo, double hi,
                                        double tol = 1e-12,
                                        int max_iter = 200) {
  require<NumericsError>(lo < hi, "bisect: invalid bracket");
  double flo = f(lo);
  const double fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  require<NumericsError>(flo * fhi < 0.0,
                         "bisect: no sign change over bracket");
  for (int i = 0; i < max_iter && (hi - lo) > tol; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    if (fmid == 0.0) return mid;
    if (flo * fmid < 0.0) {
      hi = mid;
    } else {
      lo = mid;
      flo = fmid;
    }
  }
  return 0.5 * (lo + hi);
}

/// True when |a - b| <= atol + rtol*max(|a|,|b|).
[[nodiscard]] bool approx_equal(double a, double b, double rtol = 1e-9,
                                double atol = 0.0);

/// Solves the small dense system A*x = b by Gaussian elimination with
/// partial pivoting (A given row-major, n x n). Throws NumericsError on
/// size mismatch or a singular matrix. Intended for the few-by-few
/// systems of panel deconvolution.
[[nodiscard]] std::vector<double> solve_dense(
    std::vector<std::vector<double>> a, std::vector<double> b);

}  // namespace biosens
