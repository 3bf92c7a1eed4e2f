// Numerical kernels: tridiagonal solve, grids, integration,
// interpolation, root finding.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"

namespace biosens {
namespace {

TEST(Tridiagonal, SolvesKnownSystem) {
  // [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8] -> x = [1; 2; 3].
  const std::vector<double> lower = {1.0, 1.0};
  const std::vector<double> diag = {2.0, 2.0, 2.0};
  const std::vector<double> upper = {1.0, 1.0};
  const std::vector<double> rhs = {4.0, 8.0, 8.0};
  const auto x = solve_tridiagonal(lower, diag, upper, rhs);
  ASSERT_EQ(x.size(), 3u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(Tridiagonal, SingleElement) {
  const auto x = solve_tridiagonal({}, std::vector<double>{4.0}, {},
                                   std::vector<double>{8.0});
  ASSERT_EQ(x.size(), 1u);
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

TEST(Tridiagonal, RejectsSizeMismatch) {
  EXPECT_THROW(solve_tridiagonal(std::vector<double>{1.0},
                                 std::vector<double>{1.0, 1.0},
                                 std::vector<double>{1.0, 1.0},
                                 std::vector<double>{1.0, 1.0}),
               NumericsError);
}

TEST(Tridiagonal, RejectsSingular) {
  EXPECT_THROW(solve_tridiagonal({}, std::vector<double>{0.0}, {},
                                 std::vector<double>{1.0}),
               NumericsError);
}

// Property: residual of random diagonally dominant systems is ~0.
class TridiagonalProperty : public ::testing::TestWithParam<int> {};

TEST_P(TridiagonalProperty, ResidualVanishes) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 977u);
  std::vector<double> lower(n - 1), diag(n), upper(n - 1), rhs(n);
  for (int i = 0; i < n - 1; ++i) {
    lower[i] = rng.uniform(-1.0, 1.0);
    upper[i] = rng.uniform(-1.0, 1.0);
  }
  for (int i = 0; i < n; ++i) {
    diag[i] = 3.0 + rng.uniform(0.0, 1.0);  // dominant
    rhs[i] = rng.uniform(-5.0, 5.0);
  }
  const auto x = solve_tridiagonal(lower, diag, upper, rhs);
  for (int i = 0; i < n; ++i) {
    double ax = diag[i] * x[i];
    if (i > 0) ax += lower[i - 1] * x[i - 1];
    if (i + 1 < n) ax += upper[i] * x[i + 1];
    EXPECT_NEAR(ax, rhs[i], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TridiagonalProperty,
                         ::testing::Values(2, 3, 5, 17, 64, 257));

// --- batched solve_many --------------------------------------------

/// Random diagonally dominant factorization plus an interleaved SoA rhs
/// block (node-major: element (i, k) at i * lanes + k).
struct BatchSystem {
  TridiagonalFactorization factorization;
  std::vector<double> lower, diag, upper;
  std::vector<double> rhs;  ///< n * lanes, interleaved
  std::size_t n = 0;
  std::size_t lanes = 0;
};

BatchSystem make_batch_system(std::size_t n, std::size_t lanes,
                              std::uint64_t seed) {
  BatchSystem s;
  s.n = n;
  s.lanes = lanes;
  Rng rng(seed);
  s.lower.resize(n - 1);
  s.upper.resize(n - 1);
  s.diag.resize(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    s.lower[i] = rng.uniform(-1.0, 1.0);
    s.upper[i] = rng.uniform(-1.0, 1.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    s.diag[i] = 3.0 + rng.uniform(0.0, 1.0);
  }
  s.factorization.factor(s.lower, s.diag, s.upper);
  s.rhs.resize(n * lanes);
  for (double& v : s.rhs) v = rng.uniform(-5.0, 5.0);
  return s;
}

class SolveManyIdentity
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SolveManyIdentity, MatchesPerLaneSolveBitwise) {
  const auto n = static_cast<std::size_t>(std::get<0>(GetParam()));
  const auto lanes = static_cast<std::size_t>(std::get<1>(GetParam()));
  const BatchSystem s = make_batch_system(n, lanes, 31u * n + lanes);

  std::vector<double> batched(n * lanes, 0.0);
  s.factorization.solve_many(s.rhs, batched, lanes);

  std::vector<double> lane_rhs(n), lane_x(n);
  for (std::size_t k = 0; k < lanes; ++k) {
    for (std::size_t i = 0; i < n; ++i) lane_rhs[i] = s.rhs[i * lanes + k];
    s.factorization.solve(lane_rhs, lane_x);
    for (std::size_t i = 0; i < n; ++i) {
      // Bit-identity, not closeness: the batched kernel runs the exact
      // serial recurrence per lane.
      ASSERT_EQ(batched[i * lanes + k], lane_x[i])
          << "lane " << k << " node " << i << " diverged";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SolveManyIdentity,
    ::testing::Values(std::make_tuple(3, 1), std::make_tuple(33, 3),
                      std::make_tuple(80, 8), std::make_tuple(80, 17),
                      std::make_tuple(257, 64),
                      // stripe boundary cases: lanes around the L2
                      // stripe width for large n
                      std::make_tuple(2048, 9), std::make_tuple(2048, 16)));

TEST(SolveMany, WideAndScalarDispatchAgreeBitwise) {
  // The -march wide path is only valid because it matches the portable
  // scalar reference bit for bit; this is the identity test gating it.
  const BatchSystem s = make_batch_system(129, 23, 4242);
  std::vector<double> wide(s.n * s.lanes, 0.0);
  std::vector<double> scalar(s.n * s.lanes, 0.0);
  s.factorization.solve_many_wide(s.rhs, wide, s.lanes);
  s.factorization.solve_many_scalar(s.rhs, scalar, s.lanes);
  for (std::size_t i = 0; i < wide.size(); ++i) {
    ASSERT_EQ(wide[i], scalar[i]) << "index " << i;
  }
}

TEST(SolveMany, SingleLaneIsSolve) {
  const BatchSystem s = make_batch_system(41, 1, 7);
  std::vector<double> batched(s.n, 0.0), serial(s.n, 0.0);
  s.factorization.solve_many(s.rhs, batched, 1);
  s.factorization.solve(s.rhs, serial);
  EXPECT_EQ(batched, serial);
  // The striped kernels agree with solve() at one lane too.
  std::vector<double> wide(s.n, 0.0), scalar(s.n, 0.0);
  s.factorization.solve_many_wide(s.rhs, wide, 1);
  s.factorization.solve_many_scalar(s.rhs, scalar, 1);
  EXPECT_EQ(wide, serial);
  EXPECT_EQ(scalar, serial);
}

TEST(SolveMany, RejectsBadShapes) {
  const BatchSystem s = make_batch_system(8, 4, 11);
  std::vector<double> x(8 * 4, 0.0);
  // Unfactored use.
  const TridiagonalFactorization empty;
  EXPECT_THROW(empty.solve_many(s.rhs, x, 4), NumericsError);
  // Zero lanes.
  EXPECT_THROW(s.factorization.solve_many(s.rhs, x, 0), NumericsError);
  // rhs/x not n * lanes.
  std::vector<double> short_rhs(8 * 3, 0.0);
  EXPECT_THROW(s.factorization.solve_many(short_rhs, x, 4), NumericsError);
  std::vector<double> short_x(8 * 3, 0.0);
  EXPECT_THROW(s.factorization.solve_many(s.rhs, short_x, 4),
               NumericsError);
}

TEST(Linspace, EndpointsAndSpacing) {
  const auto g = linspace(0.0, 1.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.front(), 0.0);
  EXPECT_DOUBLE_EQ(g.back(), 1.0);
  EXPECT_DOUBLE_EQ(g[2], 0.5);
}

TEST(Linspace, RejectsDegenerate) {
  EXPECT_THROW(linspace(0.0, 1.0, 1), NumericsError);
}

TEST(Trapezoid, IntegratesLineExactly) {
  const auto x = linspace(0.0, 2.0, 11);
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = 3.0 * x[i] + 1.0;
  // integral of 3x+1 over [0,2] = 6 + 2 = 8, exact for trapezoid.
  EXPECT_NEAR(trapezoid(x, y), 8.0, 1e-12);
}

TEST(Trapezoid, QuadraticConverges) {
  const auto x = linspace(0.0, 1.0, 1001);
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] * x[i];
  EXPECT_NEAR(trapezoid(x, y), 1.0 / 3.0, 1e-6);
}

TEST(Interp1, InterpolatesAndClamps) {
  const std::vector<double> xs = {0.0, 1.0, 2.0};
  const std::vector<double> ys = {0.0, 10.0, 40.0};
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 1.5), 25.0);
  EXPECT_DOUBLE_EQ(interp1(xs, ys, -1.0), 0.0);   // clamp low
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 3.0), 40.0);   // clamp high
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 1.0), 10.0);   // exact node
}

TEST(Bisect, FindsRootOfCubic) {
  const auto f = [](double x) { return x * x * x - 2.0; };
  EXPECT_NEAR(bisect(f, 0.0, 2.0), std::cbrt(2.0), 1e-10);
}

TEST(Bisect, RejectsNoSignChange) {
  const auto f = [](double x) { return x * x + 1.0; };
  EXPECT_THROW(bisect(f, -1.0, 1.0), NumericsError);
}

TEST(Bisect, AcceptsRootAtBracketEdge) {
  const auto f = [](double x) { return x; };
  EXPECT_DOUBLE_EQ(bisect(f, 0.0, 1.0), 0.0);
}

TEST(ApproxEqual, RelativeAndAbsolute) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_equal(0.0, 1e-12, 1e-9, 1e-9));
  EXPECT_FALSE(approx_equal(0.0, 1e-6, 1e-9, 1e-9));
}

}  // namespace
}  // namespace biosens
