// cohort: personalized-medicine panels on the paper's 7-sensor platform.
// The platform is calibrated during set-up; each timed call is one
// Platform::run_panel_batch over a seeded batch of buffer samples on a
// 3-worker engine with the sim cache on.
//
// Every patient carries glucose, lactate and glutamate plus one of the
// four CYP drugs, each at 15-85% of its sensor's published range. Half
// of a batch are replicate draws of the other half, so the sim cache
// has real reuse. Buffer, not serum: in serum the lactate and glutamate
// assays fail QC, which would turn the workload into a retry storm.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chem/solution.hpp"
#include "common/rng.hpp"
#include "core/catalog.hpp"
#include "core/platform.hpp"
#include "engine/engine.hpp"
#include "obs/span.hpp"
#include "trace_stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace chem = biosens::chem;
namespace core = biosens::core;
namespace engine = biosens::engine;

constexpr std::size_t kPanels = 512;
constexpr std::size_t kDistinct = kPanels / 2;
constexpr std::size_t kCacheCapacity = 8192;
/// Largest accepted relative error of a present analyte's estimate
/// against its spiked truth.
constexpr double kMaxRelativeError = 0.5;

struct Setup {
  std::vector<core::CatalogEntry> entries;
  core::Platform platform;
  std::unique_ptr<engine::Engine> engine;
};

biosens::Expected<std::unique_ptr<Setup>> make_setup(std::uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  setup->entries = core::platform_entries();
  for (const core::CatalogEntry& entry : setup->entries) {
    setup->platform.add_sensor(entry);
  }
  engine::EngineOptions options;
  options.workers = kWorkers;
  options.sim_cache_capacity = kCacheCapacity;
  setup->engine = std::make_unique<engine::Engine>(options);
  auto calibrated =
      setup->platform.try_calibrate_all_batch(*setup->engine, seed);
  if (!calibrated.has_value()) return calibrated.error();
  return setup;
}

/// One seeded cohort: kDistinct patients, then as many replicate draws
/// of them, shuffled together.
std::vector<chem::Sample> make_batch(
    const std::vector<core::CatalogEntry>& entries, std::uint64_t seed) {
  biosens::Rng rng(seed);
  const auto level = [&rng](const core::CatalogEntry& e) {
    const double lo = e.published.range_low.milli_molar();
    const double hi = e.published.range_high.milli_molar();
    const double share = rng.uniform(0.15, 0.85);
    return biosens::Concentration::milli_molar(lo + share * (hi - lo));
  };
  std::vector<chem::Sample> batch;
  batch.reserve(kPanels);
  for (std::size_t p = 0; p < kDistinct; ++p) {
    chem::Sample sample = chem::blank_sample();
    for (std::size_t i = 0; i < 3; ++i) {  // glucose, lactate, glutamate
      sample.set(entries[i].spec.target, level(entries[i]));
    }
    const core::CatalogEntry& drug = entries[3 + rng.uniform_index(4)];
    sample.set(drug.spec.target, level(drug));
    batch.push_back(std::move(sample));
  }
  for (std::size_t p = kDistinct; p < kPanels; ++p) {
    batch.push_back(batch[rng.uniform_index(kDistinct)]);
  }
  for (std::size_t i = kPanels - 1; i > 0; --i) {
    std::swap(batch[i], batch[rng.uniform_index(i + 1)]);
  }
  return batch;
}

struct Call {
  double seconds = 0.0;
  std::uint64_t fingerprint = 0;
  std::uint64_t bad_panels = 0;
  double worst_relative_error = 0.0;
  engine::MetricsSnapshot engine;
};

Call assay(Setup& setup, const std::vector<chem::Sample>& batch,
           std::uint64_t seed, RunResult& result) {
  setup.engine->sim_cache()->clear();
  setup.engine->reset_metrics();
  core::PanelBatchOptions options;
  options.seed = seed;

  Call call;
  const auto t0 = Clock::now();
  const core::PanelBatchResult out =
      setup.platform.run_panel_batch(batch, *setup.engine, options);
  call.seconds = seconds_between(t0, Clock::now());
  call.engine = setup.engine->snapshot();

  Fingerprint fp;
  result.attempted += kPanels;
  for (std::size_t p = 0; p < kPanels; ++p) {
    const engine::JobReport& job = out.jobs[p];
    fp.add(static_cast<std::uint64_t>(job.attempts));
    std::string problem;
    if (job.error.has_value()) {
      problem = job.error->describe();
    } else {
      for (const core::AssayResult& r : out.reports[p].results) {
        fp.add(r.response_a);
        fp.add(r.estimated.milli_molar());
        const double truth =
            batch[p].concentration_of(r.target).milli_molar();
        if (truth <= 0.0) continue;  // absent drug: nothing to recover
        const double rel =
            std::abs(r.estimated.milli_molar() - truth) / truth;
        call.worst_relative_error = std::max(call.worst_relative_error, rel);
        if (!(rel <= kMaxRelativeError)) {
          problem = r.target + " estimated " +
                    std::to_string(r.estimated.milli_molar()) + " mM, spiked " +
                    std::to_string(truth) + " mM";
        }
      }
    }
    if (!problem.empty()) {
      call.bad_panels += 1;
      result.fail_check("seed " + std::to_string(seed) + ", panel " +
                        std::to_string(p) + ": " + problem);
    }
  }
  result.failed += call.bad_panels;
  call.fingerprint = fp.value();
  return call;
}

}  // namespace

RunResult run_cohort(const Options& options) {
  RunResult result;

  double setup_s = 0.0;
  const auto setup = set_up(
      [&options](int rep) {
        return make_setup(derive_seed(options.seed, 1000 + rep));
      },
      result, setup_s);
  if (!setup) return result;

  std::vector<Call> calls;
  const auto pass_start = Clock::now();
  while (calls.empty() ||
         seconds_between(pass_start, Clock::now()) < options.seconds) {
    const std::uint64_t seed = derive_seed(options.seed, calls.size());
    calls.push_back(
        assay(*setup, make_batch(setup->entries, seed), seed, result));
  }
  double worst = 0.0;
  for (const Call& c : calls) worst = std::max(worst, c.worst_relative_error);
  std::fprintf(stderr, "cohort: worst relative error %.3f over %zu panels\n",
               worst, calls.size() * kPanels);

  if (!options.trace) {
    std::vector<double> times;
    std::vector<double> rates;
    for (const Call& c : calls) {
      times.push_back(c.seconds);
      rates.push_back(static_cast<double>(kPanels) / c.seconds);
    }
    const double panels = static_cast<double>(result.attempted);
    result.add("setup_s", "s", setup_s);
    result.add("peak_rss_mb", "MB", peak_rss_mb());
    result.add("ok_frac", "frac",
               (panels - static_cast<double>(result.failed)) / panels);
    result.add("p50_ms", "ms", 1e3 * median(times));
    result.add("per_s", "1/s", median(rates));
    return result;
  }

  // Traced pass: the first batch again, on the same seed, inside one
  // benchmark-owned TraceSession.
  const std::uint64_t seed = derive_seed(options.seed, 0);
  const std::vector<chem::Sample> batch = make_batch(setup->entries, seed);
  // The same batch untraced, right before and right after, is the
  // overhead baseline; bracketing cancels drift and order effects.
  double untraced_s = 0.5 * assay(*setup, batch, seed, result).seconds;
  biosens::obs::TraceSession session;
  session.start();
  const std::uint64_t begin_ns = session.now_ns();
  const Call traced = assay(*setup, batch, seed, result);
  const std::uint64_t end_ns = session.now_ns();
  session.stop();
  untraced_s += 0.5 * assay(*setup, batch, seed, result).seconds;
  const TraceSummary summary = summarize(session.tracks(), begin_ns, end_ns);
  if (traced.fingerprint != calls[0].fingerprint) {
    result.fail_check("traced results differ from untraced ones");
  }

  add_layer_metrics(result, summary, 1.0);
  std::vector<engine::MetricsSnapshot> snapshots;
  for (const Call& c : calls) snapshots.push_back(c.engine);
  add_engine_metrics(result, snapshots);
  result.add("obs.trace_overhead_frac", "frac",
             traced.seconds / untraced_s - 1.0);
  result.add("obs.dropped_events", "count",
             static_cast<double>(session.dropped_events()));
  return result;
}

}  // namespace perfbench
