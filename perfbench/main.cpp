// Entry point of the repo benchmark:
//
//   perfbench --workload table2|cohort|clinic --seed N --seconds S
//             --trace 0|1
//
// Prints one context line (machine fingerprint, seed) and, as the last
// line, one JSON object with the
// correctness verdict, the operation counts and the metrics: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 0 when the run completed, whatever its verdict.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload table2|cohort|"
               "clinic --seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' ||
          !(options.seconds > 0.0 && options.seconds <= 120.0)) {
        usage("--seconds must be in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return options;
}

perfbench::RunResult run(const Options& options) {
  perfbench::print_context(options);
  if (options.workload == "table2") return perfbench::run_table2(options);
  if (options.workload == "cohort") return perfbench::run_cohort(options);
  if (options.workload == "clinic") return perfbench::run_clinic(options);
  usage(("unknown workload " + options.workload).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);

  perfbench::RunResult result;
  // The catalog and platform entry points still throw on a broken
  // program (SpecError from an unconverged inverse design); report that
  // as a failed run rather than dying without a result.
  try {
    result = run(options);
  } catch (const std::exception& e) {
    result = perfbench::RunResult{};
    result.attempted = 1;
    result.failed = 1;
    result.fail_check(std::string("uncaught exception: ") + e.what());
  }

  for (perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.fail_check(m.name + " is not finite");
      m.value = 0.0;
    }
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  perfbench::print_result(result);
  return 0;
}
