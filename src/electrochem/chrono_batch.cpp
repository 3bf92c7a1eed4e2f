#include "electrochem/chrono_batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "chem/kinetics.hpp"
#include "common/annotations.hpp"
#include "common/constants.hpp"
#include "common/error.hpp"
#include "obs/span.hpp"
#include "transport/diffusion_batch.hpp"

namespace biosens::electrochem {
namespace {

/// Domain depth of one simulation: in a stirred cell the Nernst layer
/// *is* the domain (bulk clamped at its outer edge); quiescent cells get
/// a domain that comfortably contains the final depletion layer. Also
/// the transport-topology half of the lockstep compatibility key.
double chrono_domain_length_m(const ChronoamperometrySim& sim) {
  const bool stirred = sim.cell().hydrodynamics().stirred;
  return stirred ? sim.cell().layer_thickness_m(sim.options().duration)
                 : transport::recommended_domain_length_m(
                       sim.cell().layer().substrate_diffusivity,
                       sim.options().duration);
}

Expected<void> transport_error(const char* message) {
  return make_error(ErrorCode::kSpec, Layer::kTransport, "diffusion-field",
                    message);
}

/// The preconditions DiffusionFieldBatch (and its Crank-Nicolson
/// operator) would reject for this lane, in the order they check them.
Expected<void> check_transport(const ChronoamperometrySim& sim) {
  if (!(sim.cell().layer().substrate_diffusivity.m2_per_s() > 0.0)) {
    return transport_error("diffusivity must be positive");
  }
  if (!(chrono_domain_length_m(sim) > 0.0)) {
    return transport_error("domain length must be positive");
  }
  if (!(sim.cell().substrate_bulk().milli_molar() >= 0.0)) {
    return transport_error("bulk concentration must be non-negative");
  }
  return ok();
}

}  // namespace

bool chrono_batch_compatible(const ChronoamperometrySim& a,
                             const ChronoamperometrySim& b) {
  const ChronoOptions& oa = a.options();
  const ChronoOptions& ob = b.options();
  return oa.duration.seconds() == ob.duration.seconds() &&
         oa.dt.seconds() == ob.dt.seconds() &&
         oa.grid_nodes == ob.grid_nodes &&
         oa.include_capacitive == ob.include_capacitive &&
         oa.include_interferents == ob.include_interferents &&
         a.waveform().rest().volts() == b.waveform().rest().volts() &&
         a.waveform().step().volts() == b.waveform().step().volts() &&
         a.cell().layer().substrate_diffusivity.m2_per_s() ==
             b.cell().layer().substrate_diffusivity.m2_per_s() &&
         chrono_domain_length_m(a) == chrono_domain_length_m(b);
}

BIOSENS_HOT Expected<ChronoBatchResult> try_run_chrono_batch(
    std::span<const ChronoamperometrySim> sims) {
  ChronoBatchResult result;
  if (sims.empty()) return result;
  for (std::size_t k = 1; k < sims.size(); ++k) {
    if (!chrono_batch_compatible(sims[0], sims[k])) {
      return ctx("chronoamperometry",
                 Expected<ChronoBatchResult>(make_error(
                     ErrorCode::kSpec, Layer::kElectrochem, "chrono-batch",
                     "batch lanes are not lockstep-compatible")));
    }
  }

  const std::size_t lanes = sims.size();
  obs::ObsSpan span(Layer::kElectrochem, "chrono-sweep");

  // Per-lane physics: the fallible calls in a fixed order per lane, so
  // a failing lane surfaces the same structured error whether it runs
  // alone (try_run) or inside a cohort.
  std::vector<chem::MichaelisMenten> kinetics;
  kinetics.reserve(lanes);
  std::vector<double> gamma(lanes), n_f(lanes), area(lanes);
  std::vector<double> activity(lanes), interferent_a(lanes, 0.0);
  std::vector<Potential> step_height;
  step_height.reserve(lanes);
  std::vector<Concentration> bulks;
  bulks.reserve(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    const ChronoamperometrySim& sim = sims[k];
    const electrode::EffectiveLayer& layer = sim.cell().layer();
    auto kinetics_result = span.watch(layer.try_kinetics());
    if (!kinetics_result) {
      return ctx("chronoamperometry",
                 Expected<ChronoBatchResult>(kinetics_result.error()));
    }
    kinetics.push_back(*kinetics_result);
    // The DiffusionFieldBatch constructor contract, checked per lane
    // right after the kinetics and with the constructor's messages, so
    // a bad transport setup fails here as an Expected instead of
    // throwing (the cohort prefill runs on the caller's thread, outside
    // the engine's exception adapter).
    auto transport_result = span.watch(check_transport(sim));
    if (!transport_result) {
      return ctx("chronoamperometry",
                 Expected<ChronoBatchResult>(transport_result.error()));
    }
    gamma[k] = layer.wired_coverage.mol_per_m2();
    n_f[k] = layer.electrons * constants::kFaraday;
    area[k] = layer.geometric_area.square_meters();

    auto activity_result = span.watch(sim.cell().try_environment_factor());
    if (!activity_result) {
      return ctx("chronoamperometry",
                 Expected<ChronoBatchResult>(activity_result.error()));
    }
    activity[k] = *activity_result;

    step_height.push_back(sim.waveform().step() - sim.waveform().rest());
    if (sim.options().include_interferents) {
      auto i =
          span.watch(sim.cell().try_interferent_current(sim.waveform().step()));
      if (!i) {
        return ctx("chronoamperometry",
                   Expected<ChronoBatchResult>(i.error()));
      }
      interferent_a[k] = (*i).amps();
    }
    bulks.push_back(sim.cell().substrate_bulk());
  }

  const ChronoOptions& options = sims[0].options();
  transport::DiffusionGrid grid;
  grid.nodes = options.grid_nodes;
  grid.length_m = chrono_domain_length_m(sims[0]);
  transport::DiffusionFieldBatch batch(
      sims[0].cell().layer().substrate_diffusivity, grid, bulks);

  const auto steps = static_cast<std::size_t>(options.duration.seconds() /
                                              options.dt.seconds());
  result.traces.assign(lanes, TimeSeries{});
  for (TimeSeries& trace : result.traces) {
    trace.time_s.reserve(steps);
    trace.current_a.reserve(steps);
  }
  std::vector<double> flux(lanes, 0.0);

  // One span around the whole stepping loop, never per step: the solver
  // inner loop is the perf-gated hot path (bench_sim_kernels).
  const obs::ObsSpan stepping(Layer::kTransport, "cn-stepping");
  double t = 0.0;
  for (std::size_t s = 0; s < steps; ++s) {
    batch.step_reactive_surface(
        options.dt,
        [&](std::size_t k, double surface_mm) {
          return activity[k] *
                 kinetics[k].areal_flux(
                     SurfaceCoverage::mol_per_m2(gamma[k]),
                     Concentration::milli_molar(std::max(surface_mm, 0.0)));
        },
        flux);
    t += options.dt.seconds();

    for (std::size_t k = 0; k < lanes; ++k) {
      double current = n_f[k] * flux[k] * area[k] + interferent_a[k];
      if (options.include_capacitive) {
        current += sims[k]
                       .cell()
                       .capacitive_step_current(step_height[k],
                                                Time::seconds(t))
                       .amps();
      }
      result.traces[k].push(t, current);
    }
  }
  result.factorizations = batch.factorizations();
  return result;
}

}  // namespace biosens::electrochem
