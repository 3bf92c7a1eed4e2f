// Crank-Nicolson diffusion solver validated against analytic transport,
// on one-lane batches (the single-field case of the kernel).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>

#include "common/error.hpp"
#include "transport/analytic.hpp"
#include "transport/diffusion_batch.hpp"

namespace biosens::transport {
namespace {

constexpr double kD = 1e-9;  // m^2/s, small-molecule scale

/// One field: a batch of one lane at `bulk`.
DiffusionFieldBatch one_field(Diffusivity d, DiffusionGrid grid,
                              Concentration bulk) {
  return DiffusionFieldBatch(d, grid, std::span(&bulk, 1));
}

double step_clamped(DiffusionFieldBatch& field, Time dt,
                    Concentration surface) {
  double flux = 0.0;
  field.step_clamped_surface(dt, surface, std::span(&flux, 1));
  return flux;
}

template <typename FluxFn>
double step_reactive(DiffusionFieldBatch& field, Time dt, FluxFn&& sink) {
  double flux = 0.0;
  field.step_reactive_surface(
      dt, [&](std::size_t, double c0) { return sink(c0); },
      std::span(&flux, 1));
  return flux;
}

TEST(Diffusion, CottrellAgreement) {
  // Diffusion-limited electrolysis: simulated flux vs Cottrell equation.
  const Diffusivity d = Diffusivity::m2_per_s(kD);
  const Concentration bulk = Concentration::milli_molar(1.0);
  DiffusionGrid grid;
  grid.length_m = recommended_domain_length_m(d, Time::seconds(10.0));
  grid.nodes = 400;
  DiffusionFieldBatch field = one_field(d, grid, bulk);

  const Time dt = Time::milliseconds(5.0);
  double t = 0.0;
  for (int k = 0; k < 2000; ++k) {
    const double flux = step_clamped(field, dt, Concentration{});
    t += dt.seconds();
    if (t > 1.0) {
      const double analytic =
          cottrell_current_density(1, d, bulk, Time::seconds(t))
              .amps_per_m2() /
          96485.33212;  // back to molar flux
      EXPECT_NEAR(flux, analytic, 0.03 * analytic)
          << "at t = " << t << " s";
    }
  }
}

TEST(Diffusion, SteadyStateAcrossNernstLayer) {
  // Clamped surface with a short domain = the stirred-cell limit;
  // the steady flux must be D * c_bulk / delta.
  const Diffusivity d = Diffusivity::m2_per_s(kD);
  const Concentration bulk = Concentration::milli_molar(2.0);
  const double delta = 25e-6;
  DiffusionGrid grid{delta, 100};
  DiffusionFieldBatch field = one_field(d, grid, bulk);

  double flux = 0.0;
  for (int k = 0; k < 4000; ++k) {
    flux = step_clamped(field, Time::milliseconds(5.0), Concentration{});
  }
  const double expected = kD * 2.0 / delta;
  EXPECT_NEAR(flux, expected, 0.01 * expected);
}

TEST(Diffusion, ReactiveSurfaceMatchesAnalyticBalance) {
  // Michaelis-Menten surface sink in a stirred cell: the steady state
  // solves D (cb - c0)/delta = A c0 / (K + c0).
  const Diffusivity d = Diffusivity::m2_per_s(kD);
  const Concentration bulk = Concentration::milli_molar(1.0);
  const double delta = 25e-6;
  const double a_flux = 5e-6;   // mol m^-2 s^-1 max
  const double km = 2.0;        // mM

  DiffusionGrid grid{delta, 100};
  DiffusionFieldBatch field = one_field(d, grid, bulk);
  const auto sink = [&](double c0) { return a_flux * c0 / (km + c0); };

  double flux = 0.0;
  for (int k = 0; k < 4000; ++k) {
    flux = step_reactive(field, Time::milliseconds(5.0), sink);
  }

  // Analytic balance via direct solve of the quadratic.
  // D/delta (cb - c0) = A c0/(K+c0)
  const double m = kD / delta;
  // m cb K + m cb c0 - m K c0 - m c0^2 = A c0
  // m c0^2 + (A + mK - m cb) c0 - m cb K = 0
  const double b = a_flux + m * km - m * 1.0;
  const double c0 =
      (-b + std::sqrt(b * b + 4.0 * m * m * 1.0 * km)) / (2.0 * m);
  const double expected = a_flux * c0 / (km + c0);
  EXPECT_NEAR(flux, expected, 0.01 * expected);
}

TEST(Diffusion, SteepKineticsSatisfiesSurfaceBalanceEveryStep) {
  // A sink far faster than mass transport (vmax/K_M ~ 100x D/delta):
  // the surface depletes to near zero, where the Michaelis-Menten slope
  // is steepest. Every step's flux must solve the post-step surface
  // balance J = F(c0') to round-off, and the run must still reach the
  // analytic stirred-cell balance.
  const Diffusivity d = Diffusivity::m2_per_s(kD);
  const double delta = 25e-6;
  const double a_flux = 1e-3;  // mol m^-2 s^-1 max
  const double km = 0.1;       // mM
  DiffusionFieldBatch field = one_field(d, DiffusionGrid{delta, 100},
                                        Concentration::milli_molar(1.0));
  const auto sink = [&](double c0) { return a_flux * c0 / (km + c0); };

  double flux = 0.0;
  for (int k = 0; k < 4000; ++k) {
    flux = step_reactive(field, Time::milliseconds(5.0), sink);
    const double c0 = field.surface_concentration(0).milli_molar();
    ASSERT_GT(flux, 0.0) << "step " << k;
    ASSERT_LE(std::abs(flux - sink(c0)), 1e-12 * flux) << "step " << k;
  }

  const double m = kD / delta;
  const double b = a_flux + m * km - m * 1.0;
  const double c0 =
      (-b + std::sqrt(b * b + 4.0 * m * m * 1.0 * km)) / (2.0 * m);
  const double expected = a_flux * c0 / (km + c0);
  EXPECT_NEAR(flux, expected, 0.01 * expected);
}

TEST(Diffusion, InvalidSurfaceFluxFailsLoudly) {
  DiffusionFieldBatch field =
      one_field(Diffusivity::m2_per_s(kD), DiffusionGrid{25e-6, 50},
                Concentration::milli_molar(1.0));
  const auto not_finite = [](double c0) {
    return c0 > 0.0 ? std::numeric_limits<double>::quiet_NaN() : 0.0;
  };
  const auto negative = [](double c0) { return -1e-6 * c0; };
  EXPECT_THROW((void)step_reactive(field, Time::milliseconds(5.0), not_finite),
               NumericsError);
  EXPECT_THROW((void)step_reactive(field, Time::milliseconds(5.0), negative),
               NumericsError);
}

TEST(Diffusion, ZeroBulkGivesZeroFlux) {
  DiffusionFieldBatch field = one_field(
      Diffusivity::m2_per_s(kD), DiffusionGrid{25e-6, 50}, Concentration{});
  const auto sink = [](double c0) { return 1e-6 * c0 / (1.0 + c0); };
  for (int k = 0; k < 100; ++k) {
    EXPECT_NEAR(step_reactive(field, Time::milliseconds(5.0), sink),
                0.0, 1e-15);
  }
  EXPECT_DOUBLE_EQ(field.surface_concentration(0).milli_molar(), 0.0);
}

TEST(Diffusion, ProfileStaysWithinPhysicalBounds) {
  const Concentration bulk = Concentration::milli_molar(3.0);
  DiffusionFieldBatch field = one_field(
      Diffusivity::m2_per_s(kD), DiffusionGrid{25e-6, 80}, bulk);
  const auto sink = [](double c0) { return 1e-5 * c0 / (0.5 + c0); };
  for (int k = 0; k < 500; ++k) {
    step_reactive(field, Time::milliseconds(10.0), sink);
    for (double c : field.profile_milli_molar(0)) {
      ASSERT_GE(c, 0.0);
      ASSERT_LE(c, 3.0 + 1e-9);
    }
  }
  // Surface is depleted relative to bulk, profile is monotone outward.
  const auto profile = field.profile_milli_molar(0);
  EXPECT_LT(profile.front(), profile.back());
}

TEST(Diffusion, ResetRestoresUniformField) {
  DiffusionFieldBatch field =
      one_field(Diffusivity::m2_per_s(kD), DiffusionGrid{25e-6, 50},
                Concentration::milli_molar(1.0));
  for (int k = 0; k < 50; ++k) {
    step_clamped(field, Time::milliseconds(5.0), Concentration{});
  }
  const Concentration refill = Concentration::milli_molar(4.0);
  field.reset(std::span(&refill, 1));
  for (double c : field.profile_milli_molar(0)) {
    EXPECT_DOUBLE_EQ(c, 4.0);
  }
  EXPECT_DOUBLE_EQ(field.bulk(0).milli_molar(), 4.0);
}

TEST(Diffusion, RecommendedDomainContainsDepletionLayer) {
  const Diffusivity d = Diffusivity::m2_per_s(kD);
  const double len = recommended_domain_length_m(d, Time::seconds(30.0));
  EXPECT_NEAR(len, 6.0 * std::sqrt(kD * 30.0), 1e-12);
}

TEST(Diffusion, RejectsInvalidConstruction) {
  EXPECT_THROW((void)one_field(Diffusivity::m2_per_s(0.0),
                               DiffusionGrid{25e-6, 50},
                               Concentration::milli_molar(1.0)),
               SpecError);
  EXPECT_THROW((void)one_field(Diffusivity::m2_per_s(kD),
                               DiffusionGrid{25e-6, 2},
                               Concentration::milli_molar(1.0)),
               SpecError);
  EXPECT_THROW((void)one_field(Diffusivity::m2_per_s(kD),
                               DiffusionGrid{0.0, 50},
                               Concentration::milli_molar(1.0)),
               SpecError);
}

// Property: grid refinement converges (steady flux changes < 1% when the
// grid doubles).
class DiffusionConvergence : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(DiffusionConvergence, SteadyFluxGridIndependent) {
  const std::size_t nodes = GetParam();
  const auto steady = [&](std::size_t n) {
    DiffusionFieldBatch field = one_field(Diffusivity::m2_per_s(kD),
                                          DiffusionGrid{25e-6, n},
                                          Concentration::milli_molar(1.0));
    const auto sink = [](double c0) { return 3e-6 * c0 / (1.5 + c0); };
    double flux = 0.0;
    for (int k = 0; k < 2000; ++k) {
      flux = step_reactive(field, Time::milliseconds(5.0), sink);
    }
    return flux;
  };
  const double coarse = steady(nodes);
  const double fine = steady(nodes * 2);
  EXPECT_NEAR(coarse, fine, 0.01 * std::abs(fine));
}

INSTANTIATE_TEST_SUITE_P(Grids, DiffusionConvergence,
                         ::testing::Values(40, 80, 160));

}  // namespace
}  // namespace biosens::transport
