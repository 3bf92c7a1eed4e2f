// table2: regenerate the 20-row extended Table 2 (the paper's 18 rows
// plus the two FET rows) with Platform::try_calibrate_all_batch on a
// 3-worker engine, cohort batching at its default (on). Each call is a
// closed batch of 20 calibration jobs on its own derived seed.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/catalog.hpp"
#include "core/platform.hpp"
#include "engine/engine.hpp"
#include "obs/span.hpp"
#include "trace_stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = biosens::core;
namespace engine = biosens::engine;

struct Setup {
  std::vector<core::CatalogEntry> catalog;
  core::Platform platform;
  std::unique_ptr<engine::Engine> engine;
};

biosens::Expected<std::unique_ptr<Setup>> make_setup() {
  auto setup = std::make_unique<Setup>();
  setup->catalog = core::extended_catalog();
  for (const core::CatalogEntry& entry : setup->catalog) {
    setup->platform.add_sensor(entry);
  }
  engine::EngineOptions options;
  options.workers = kWorkers;
  setup->engine = std::make_unique<engine::Engine>(options);
  return setup;
}

struct Call {
  double seconds = 0.0;
  std::uint64_t fingerprint = 0;
  std::uint64_t bad_rows = 0;
  /// Rows whose single-calibration figures miss the tolerance.
  std::uint64_t rows_off_tolerance = 0;
  /// Per row: sensitivity, linear-range top, LOD (empty on failure).
  std::vector<std::array<double, 3>> figures;
  engine::MetricsSnapshot engine;
};

std::array<double, 3> figures_of(
    const biosens::analysis::CalibrationResult& cal) {
  return {cal.sensitivity.micro_amp_per_milli_molar_cm2(),
          cal.linear_range_high.milli_molar(), cal.lod.micro_molar()};
}

constexpr const char* kFigureNames[3] = {"sensitivity [uA/mM/cm2]",
                                         "linear range top [mM]", "LOD [uM]"};

/// Acceptance band of one figure; unbounded where the test checks none.
struct Band {
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
};

/// The tolerances tests/test_catalog.cpp asserts on every row: for the
/// amperometric rows sensitivity within 10%, linear-range top within
/// 30% and LOD within (0.4x, 2x) of the published figure; for the FET
/// rows sensitivity within 25% and LOD within (0.2x, 2.5x).
std::array<Band, 3> bands_of(const core::CatalogEntry& entry) {
  const bool fet =
      entry.spec.technique == core::Technique::kFieldEffectTransfer;
  const double sens =
      entry.published.sensitivity.micro_amp_per_milli_molar_cm2();
  const double sens_tol = fet ? 0.25 : 0.10;
  std::array<Band, 3> bands;
  bands[0] = {sens * (1.0 - sens_tol), sens * (1.0 + sens_tol)};
  if (!fet) {
    const double hi = entry.published.range_high.milli_molar();
    bands[1] = {0.7 * hi, 1.3 * hi};
  }
  if (entry.published.lod.has_value()) {
    const double lod = entry.published.lod->micro_molar();
    bands[2] = {(fet ? 0.2 : 0.4) * lod, (fet ? 2.5 : 2.0) * lod};
  }
  return bands;
}

bool finite_positive(const std::array<double, 3>& figures) {
  return std::all_of(figures.begin(), figures.end(), [](double f) {
    return std::isfinite(f) && f > 0.0;
  });
}

std::string row_name(const core::CatalogEntry& entry) {
  return entry.spec.name + " " + entry.spec.citation;
}

/// One regeneration. A row fails outright on a structured error or a
/// non-finite figure. The published-figure tolerances are judged over
/// the whole run (check_table), as test_catalog judges the median of
/// three calibrations, because single calibrations of the noisiest
/// rows scatter beyond them.
Call regenerate(Setup& setup, std::uint64_t seed, RunResult& result) {
  Call call;
  setup.engine->reset_metrics();
  const auto t0 = Clock::now();
  const auto calibrated =
      setup.platform.try_calibrate_all_batch(*setup.engine, seed);
  call.seconds = seconds_between(t0, Clock::now());
  call.engine = setup.engine->snapshot();

  const std::size_t rows = setup.catalog.size();
  result.attempted += rows;
  if (!calibrated.has_value()) {
    call.bad_rows = rows;
    result.fail_check("seed " + std::to_string(seed) + ": " +
                      calibrated.error().describe());
  } else {
    Fingerprint fp;
    for (std::size_t i = 0; i < rows; ++i) {
      const auto& cal = setup.platform.calibration(i);
      fp.add(cal.fit.slope);
      fp.add(cal.fit.intercept);
      const std::array<double, 3> figures = figures_of(cal);
      for (const double f : figures) fp.add(f);
      call.figures.push_back(figures);
      if (!finite_positive(figures)) {
        call.bad_rows += 1;
        result.fail_check("seed " + std::to_string(seed) + ", " +
                          row_name(setup.catalog[i]) +
                          ": non-finite or non-positive figures");
      }
      const std::array<Band, 3> bands = bands_of(setup.catalog[i]);
      for (std::size_t f = 0; f < 3; ++f) {
        if (!(figures[f] >= bands[f].lo && figures[f] <= bands[f].hi)) {
          call.rows_off_tolerance += 1;
          break;
        }
      }
    }
    call.fingerprint = fp.value();
  }
  result.failed += call.bad_rows;
  return call;
}

/// Distribution-free ~95% confidence interval of the median of
/// `values`: a pair of order statistics around the middle.
std::array<double, 2> median_interval(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double half_width = 1.96 * std::sqrt(n) / 2.0;
  const auto lo = static_cast<std::size_t>(
      std::max(0.0, std::floor(n / 2.0 - half_width) - 1.0));
  const auto hi = static_cast<std::size_t>(
      std::min(n - 1.0, std::ceil(n / 2.0 + half_width)));
  return {values[lo], values[hi]};
}

/// Fewest regenerations whose order statistics give the median a 95%
/// interval: [min, max] of n values covers it with 1 - 2^(1-n).
constexpr std::size_t kMinJudgedCalls = 6;

/// Judges each row against its published figures over the whole run.
/// A row fails when the run shows, at ~95% confidence, that the median
/// of one of its figures lies outside the test_catalog tolerance: when
/// the median's whole confidence interval misses the tolerance band.
/// A failing row counts as one failed operation.
void check_table(const Setup& setup, const std::vector<Call>& calls,
                 RunResult& result) {
  if (calls.size() < kMinJudgedCalls) {
    std::fprintf(stderr,
                 "table2: %zu regenerations are too few to judge the "
                 "published tolerances (need %zu)\n",
                 calls.size(), kMinJudgedCalls);
    return;
  }
  for (std::size_t i = 0; i < setup.catalog.size(); ++i) {
    const std::array<Band, 3> bands = bands_of(setup.catalog[i]);
    std::string problem;
    for (std::size_t f = 0; f < 3 && problem.empty(); ++f) {
      std::vector<double> values;
      for (const Call& c : calls) {
        if (!c.figures.empty()) values.push_back(c.figures[i][f]);
      }
      if (values.empty()) return;  // every call failed, each counted
      const auto [lo, hi] = median_interval(values);
      if (hi < bands[f].lo || lo > bands[f].hi) {
        problem = std::string(kFigureNames[f]) + " median " +
                  std::to_string(median(values)) + " (95% CI " +
                  std::to_string(lo) + " to " + std::to_string(hi) +
                  ") outside " + std::to_string(bands[f].lo) + " to " +
                  std::to_string(bands[f].hi);
      }
    }
    if (!problem.empty()) {
      result.failed += 1;
      result.fail_check(row_name(setup.catalog[i]) + ": " + problem);
    }
  }
}

}  // namespace

RunResult run_table2(const Options& options) {
  RunResult result;

  double setup_s = 0.0;
  const auto setup =
      set_up([](int) { return make_setup(); }, result, setup_s);
  if (!setup) return result;

  // Untraced pass: whole regenerations until the time is up.
  std::vector<Call> calls;
  const auto pass_start = Clock::now();
  while (calls.empty() ||
         seconds_between(pass_start, Clock::now()) < options.seconds) {
    calls.push_back(regenerate(*setup, derive_seed(options.seed, calls.size()),
                               result));
  }

  check_table(*setup, calls, result);

  if (!options.trace) {
    std::vector<double> times;
    double total_s = 0.0;
    for (const Call& c : calls) {
      times.push_back(c.seconds);
      total_s += c.seconds;
    }
    const double rows = static_cast<double>(result.attempted);
    result.add("setup_s", "s", setup_s);
    result.add("peak_rss_mb", "MB", peak_rss_mb());
    result.add("ok_frac", "frac",
               (rows - static_cast<double>(result.failed)) / rows);
    result.add("p50_ms", "ms", 1e3 * median(times));
    result.add("per_s", "1/s", rows / total_s);
    return result;
  }

  // Traced pass: the first calls again, on the same seeds, each inside
  // one benchmark-owned TraceSession.
  constexpr std::size_t kTracedCalls = 3;
  const std::size_t traced = std::min(kTracedCalls, calls.size());
  biosens::obs::TraceSession session;
  TraceSummary summary;
  double traced_s = 0.0;
  double untraced_s = 0.0;
  std::uint64_t dropped = 0;
  for (std::size_t k = 0; k < traced; ++k) {
    // The same call untraced, right before and right after, is the
    // overhead baseline; bracketing cancels drift and order effects.
    const std::uint64_t seed = derive_seed(options.seed, k);
    untraced_s += 0.5 * regenerate(*setup, seed, result).seconds;
    session.start();
    const std::uint64_t begin_ns = session.now_ns();
    const Call call = regenerate(*setup, seed, result);
    const std::uint64_t end_ns = session.now_ns();
    session.stop();
    untraced_s += 0.5 * regenerate(*setup, seed, result).seconds;
    const TraceSummary s = summarize(session.tracks(), begin_ns, end_ns);
    summary.merge(s);
    dropped += session.dropped_events();
    traced_s += call.seconds;
    if (call.fingerprint != calls[k].fingerprint) {
      result.fail_check("call " + std::to_string(k) +
                        ": traced results differ from untraced ones");
    }
  }

  const double n = static_cast<double>(traced);
  add_layer_metrics(result, summary, n);
  std::vector<engine::MetricsSnapshot> snapshots;
  for (const Call& c : calls) snapshots.push_back(c.engine);
  add_engine_metrics(result, snapshots);
  double off_tolerance = 0.0;
  for (const Call& c : calls) {
    off_tolerance += static_cast<double>(c.rows_off_tolerance);
  }
  result.add("core.rows_off_tolerance", "count",
             off_tolerance / static_cast<double>(calls.size()));
  result.add("obs.trace_overhead_frac", "frac", traced_s / untraced_s - 1.0);
  result.add("obs.dropped_events", "count", static_cast<double>(dropped));
  return result;
}

}  // namespace perfbench
