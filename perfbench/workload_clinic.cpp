// clinic: a resident SimulationService driven open loop.
//
// One generator thread walks one merged, seeded Poisson schedule:
//  - interactive point-of-care requests at 2000/s over 1024 sessions of
//    8 tenants, each a real CNT-BA FET BiosensorModel::try_measure;
//  - bulk CGM re-simulation requests at 10000/s over 8192 sessions of 8
//    tenants, each the drift body of examples/service_demo.cpp.
// Bulk stays open loop on the merged schedule: a closed-loop top-up from
// the generator thread starves it.
//
// Each session body writes a completion stamp. The end-to-end latency
// runs from a request's submission to that stamp; the client-side
// latency (load.*) runs from the request's due time on the schedule, so
// it also counts the wait a late generator imposes. On a VM whose
// vCPUs stall for milliseconds, the due-time median swung 25x between
// identical runs while the submit-time median held within ~10%; the
// generator's lateness is reported with every run and a run that was
// late too often is flagged invalid.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "chem/solution.hpp"
#include "common/rng.hpp"
#include "core/catalog.hpp"
#include "core/sensor.hpp"
#include "obs/span.hpp"
#include "service/service.hpp"
#include "trace_stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = biosens::core;
namespace service = biosens::service;
using biosens::Expected;

constexpr std::size_t kPocSessions = 1024;
constexpr std::size_t kBulkSessions = 8192;
constexpr std::size_t kTenants = 8;
constexpr double kPocRate = 2000.0;
/// Bulk rate: the service plus generator sustain 42-60k requests/s on
/// 4 vCPUs. At 30000/s, slow periods of the VM pushed them past capacity
/// (backlog, kOverloaded refusals, a 3x median); 10000/s keeps ~4x
/// headroom.
constexpr double kBulkRate = 10000.0;
/// Interactive latency limit of load.poc_slo_frac.
constexpr double kSloMs = 2.0;
/// Schedule prefix the traced pass replays; per-layer numbers of this
/// workload are per this window.
constexpr double kTracedWindowS = 2.0;
/// A run that submitted more than this share of its requests over 1 ms
/// late did not offer the schedule it claims and is flagged invalid.
constexpr double kMaxLateFrac = 0.05;

struct Arrival {
  double due_s = 0.0;
  std::uint32_t session = 0;  ///< interactive sessions first, then bulk
};

std::vector<Arrival> make_schedule(std::uint64_t seed, double seconds) {
  biosens::Rng rng(derive_seed(seed, 0xc11c));
  constexpr double kTotalRate = kPocRate + kBulkRate;
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(seconds * kTotalRate * 1.1));
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / kTotalRate;
    if (t >= seconds) break;
    const bool poc = rng.uniform() < kPocRate / kTotalRate;
    const std::uint64_t s =
        poc ? rng.uniform_index(kPocSessions)
            : kPocSessions + rng.uniform_index(kBulkSessions);
    out.push_back(Arrival{t, static_cast<std::uint32_t>(s)});
  }
  return out;
}

bool is_poc(std::size_t session) { return session < kPocSessions; }

/// The glucose model of examples/service_demo.cpp: slow drift on the
/// session-sequential stream, a meal term on the session clock, and
/// per-measurement noise on the measurement's own stream.
double glucose_mM(service::SessionContext& c, double baseline_mM) {
  double& drift = c.state[0];
  drift += 0.02 * c.session_rng.normal();
  const double meal =
      1.8 * std::exp(-std::fmod(c.sim_time_s, 21600.0) / 5400.0);
  return baseline_mM + drift + meal + c.rng.normal(0.0, 0.08);
}

/// Bulk CGM body: the glucose model, QC-rejected outside the linear
/// range of the GOD sensor.
service::SessionBody drift_body(double baseline_mM) {
  return [baseline_mM](service::SessionContext& c) -> Expected<double> {
    const double level = glucose_mM(c, baseline_mM);
    if (level < 2.2 || level > 22.0) {
      return biosens::make_error(biosens::ErrorCode::kQcReject,
                                 biosens::Layer::kService, "glucose qc",
                                 "reading outside the sensor's linear range");
    }
    return level;
  };
}

/// Point-of-care body: the glucose model sets the level, the CNT-BA FET
/// pipeline reads it.
service::SessionBody fet_body(
    double baseline_mM, std::shared_ptr<const core::BiosensorModel> sensor) {
  return [baseline_mM, sensor = std::move(sensor)](
             service::SessionContext& c) -> Expected<double> {
    const double level = std::clamp(glucose_mM(c, baseline_mM), 0.6, 12.5);
    const biosens::chem::Sample s = biosens::chem::calibration_sample(
        sensor->spec().target, biosens::Concentration::milli_molar(level));
    auto m = sensor->try_measure(s, c.rng);
    if (!m.has_value()) return m.error();
    return m.value().response_a;
  };
}

/// A session body that writes the completion stamp of each measurement
/// before handing its result back.
service::SessionBody stamped(service::SessionBody body,
                             std::vector<Clock::time_point>* stamps) {
  return [body = std::move(body), stamps](service::SessionContext& c) {
    Expected<double> out = body(c);
    (*stamps)[c.index] = Clock::now();
    return out;
  };
}

struct Clinic {
  /// Per session, indexed by measurement index: due time and
  /// submission time (seconds from the schedule's start) and the
  /// completion stamp.
  std::vector<std::vector<double>> due_s;
  std::vector<std::vector<double>> submitted_s;
  std::vector<std::vector<Clock::time_point>> stamps;
  std::vector<service::SessionId> ids;
  /// Declared last so it is destroyed first: its workers write stamps.
  std::unique_ptr<service::SimulationService> svc;
};

Expected<std::unique_ptr<Clinic>> make_clinic(
    std::uint64_t seed, const std::vector<std::uint32_t>& per_session) {
  auto entry = core::try_entry("CNT-BA FET");
  if (!entry.has_value()) return entry.error();
  const auto sensor =
      std::make_shared<const core::BiosensorModel>(entry.value().spec);

  auto clinic = std::make_unique<Clinic>();
  service::ServiceOptions options;
  options.workers = kWorkers;
  clinic->svc = std::make_unique<service::SimulationService>(options);
  const std::size_t sessions = kPocSessions + kBulkSessions;
  clinic->due_s.resize(sessions);
  clinic->submitted_s.resize(sessions);
  clinic->stamps.resize(sessions);
  clinic->ids.reserve(sessions);
  biosens::Rng rng(derive_seed(seed, 0xba5e));
  for (std::size_t s = 0; s < sessions; ++s) {
    clinic->due_s[s].assign(per_session[s], 0.0);
    clinic->submitted_s[s].assign(per_session[s], 0.0);
    clinic->stamps[s].assign(per_session[s], Clock::time_point{});
    service::SessionOptions session;
    const bool poc = is_poc(s);
    session.tenant = (poc ? "poc-" : "cgm-") + std::to_string(s % kTenants);
    session.priority = poc ? service::PriorityClass::kInteractive
                           : service::PriorityClass::kBulk;
    session.seed = derive_seed(seed, 0x5e55 + s);
    const double baseline = rng.uniform(4.0, 7.0);
    session.body = stamped(poc ? fet_body(baseline, sensor)
                               : drift_body(baseline),
                           &clinic->stamps[s]);
    session.initial_state = {0.0};
    auto id = clinic->svc->try_open_session(std::move(session));
    if (!id.has_value()) return id.error();
    clinic->ids.push_back(id.value());
  }
  return clinic;
}

/// Latencies of one priority class, in seconds; +inf for a request
/// that failed or was refused, so it misses every limit.
struct Latencies {
  std::vector<double> from_due;
  std::vector<double> from_submit;

  void miss() {
    from_due.push_back(std::numeric_limits<double>::infinity());
    from_submit.push_back(std::numeric_limits<double>::infinity());
  }
};

/// What one pass over (a prefix of) the schedule observed.
struct Pass {
  double window_s = 0.0;  ///< first due time to the last completion
  std::vector<double> lag_s;
  std::vector<double> submit_s;
  std::uint64_t poc_attempted = 0;
  std::uint64_t bulk_attempted = 0;
  std::uint64_t refused = 0;
  std::uint64_t failed = 0;  ///< accepted, but the body returned an error
  Latencies poc;
  Latencies bulk;
  std::vector<std::vector<service::MeasurementRecord>> streams;
  double exec_s = 0.0;  ///< summed body execution time, both classes
  std::uint64_t executed = 0;

  [[nodiscard]] double late_frac() const {
    std::size_t late = 0;
    for (const double l : lag_s) late += l > 1e-3 ? 1 : 0;
    return static_cast<double>(late) /
           static_cast<double>(std::max<std::size_t>(lag_s.size(), 1));
  }
};

Pass drive(Clinic& clinic, const std::vector<Arrival>& schedule,
           std::size_t arrivals, RunResult& result) {
  Pass pass;
  pass.lag_s.reserve(arrivals);
  pass.submit_s.reserve(arrivals);

  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < arrivals; ++i) {
    const Arrival& a = schedule[i];
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(a.due_s));
    // Spin: sleeping wakes up milliseconds late on a VM.
    while (Clock::now() < due) {
    }
    const auto s0 = Clock::now();
    const auto index =
        clinic.svc->try_submit_measurement(clinic.ids[a.session]);
    const auto s1 = Clock::now();
    pass.lag_s.push_back(seconds_between(due, s0));
    pass.submit_s.push_back(seconds_between(s0, s1));
    const bool poc = is_poc(a.session);
    (poc ? pass.poc_attempted : pass.bulk_attempted) += 1;
    if (index.has_value()) {
      clinic.due_s[a.session][index.value()] = a.due_s;
      clinic.submitted_s[a.session][index.value()] = seconds_between(t0, s0);
    } else {
      pass.refused += 1;
      (poc ? pass.poc : pass.bulk).miss();
      if (index.error().code != biosens::ErrorCode::kOverloaded) {
        result.fail_check("submit: " + index.error().describe());
      }
    }
  }
  clinic.svc->wait_all_idle();
  pass.window_s = seconds_between(t0, Clock::now());

  for (const auto cls : {service::PriorityClass::kInteractive,
                         service::PriorityClass::kBulk}) {
    const service::ClassSlo& slo = clinic.svc->slo(cls);
    pass.exec_s += slo.exec.total_seconds();
    pass.executed += slo.exec.count();
  }

  pass.streams.resize(clinic.ids.size());
  for (std::size_t s = 0; s < clinic.ids.size(); ++s) {
    auto closed = clinic.svc->try_close_session(clinic.ids[s]);
    if (!closed.has_value()) {
      result.fail_check("close: " + closed.error().describe());
      continue;
    }
    pass.streams[s] = std::move(closed.value().stream);
    Latencies& latencies = is_poc(s) ? pass.poc : pass.bulk;
    for (const service::MeasurementRecord& r : pass.streams[s]) {
      const auto k = static_cast<std::size_t>(r.index);
      const Clock::time_point done = clinic.stamps[s][k];
      if (!r.ok) {
        pass.failed += 1;
        latencies.miss();
      } else if (done == Clock::time_point{}) {
        result.fail_check("session " + std::to_string(s) + " measurement " +
                          std::to_string(k) + " finished without a stamp");
        latencies.miss();
      } else {
        const double done_s = seconds_between(t0, done);
        latencies.from_due.push_back(done_s - clinic.due_s[s][k]);
        latencies.from_submit.push_back(done_s - clinic.submitted_s[s][k]);
      }
    }
  }

  // Every attempted request completed, failed or was refused.
  const std::uint64_t attempted = pass.poc_attempted + pass.bulk_attempted;
  const std::uint64_t accounted =
      pass.poc.from_due.size() + pass.bulk.from_due.size();
  if (accounted != attempted) {
    result.fail_check(std::to_string(attempted) + " requests attempted, " +
                      std::to_string(accounted) + " accounted for");
  }
  result.attempted += attempted;
  result.failed += pass.refused + pass.failed;
  return pass;
}

double ms(double seconds) { return 1e3 * seconds; }

}  // namespace

RunResult run_clinic(const Options& options) {
  RunResult result;
  const std::vector<Arrival> schedule =
      make_schedule(options.seed, options.seconds);
  std::vector<std::uint32_t> per_session(kPocSessions + kBulkSessions, 0);
  for (const Arrival& a : schedule) per_session[a.session] += 1;

  double setup_s = 0.0;
  auto clinic = set_up(
      [&](int) { return make_clinic(options.seed, per_session); }, result,
      setup_s);
  if (!clinic) return result;

  const Pass pass = drive(*clinic, schedule, schedule.size(), result);
  const std::uint64_t rejected =
      clinic->svc->slo(service::PriorityClass::kInteractive).rejected.value() +
      clinic->svc->slo(service::PriorityClass::kBulk).rejected.value();
  if (rejected != pass.refused) {
    result.fail_check("service counted " + std::to_string(rejected) +
                      " rejections, the generator saw " +
                      std::to_string(pass.refused));
  }
  const double late_frac = pass.late_frac();
  std::printf(
      "{\"validity\": {\"valid\": %s, \"late_frac\": %.6f, "
      "\"max_late_frac\": %.2f, \"lag_p99_ms\": %.6f}}\n",
      late_frac <= kMaxLateFrac ? "true" : "false", late_frac, kMaxLateFrac,
      ms(quantile(pass.lag_s, 0.99)));

  if (!options.trace) {
    const double attempted =
        static_cast<double>(pass.poc_attempted + pass.bulk_attempted);
    const double completed =
        attempted - static_cast<double>(pass.refused + pass.failed);
    result.add("setup_s", "s", setup_s);
    result.add("peak_rss_mb", "MB", peak_rss_mb());
    result.add("ok_frac", "frac", completed / attempted);
    result.add("p50_ms", "ms", ms(quantile(pass.poc.from_submit, 0.5)));
    result.add("per_s", "1/s", completed / pass.window_s);
    return result;
  }

  // Traced pass: a fresh service replays the schedule's first
  // kTracedWindowS seconds inside one benchmark-owned TraceSession.
  std::array<double, 2> queue_wait_p99_us{};
  std::array<double, 2> exec_p50_us{};
  for (const auto cls : {service::PriorityClass::kInteractive,
                         service::PriorityClass::kBulk}) {
    const service::ClassSlo& slo = clinic->svc->slo(cls);
    queue_wait_p99_us[static_cast<std::size_t>(cls)] =
        1e6 * slo.queue_wait.quantile(0.99);
    exec_p50_us[static_cast<std::size_t>(cls)] = 1e6 * slo.exec.quantile(0.5);
  }
  clinic.reset();

  const double window = std::min(kTracedWindowS, options.seconds);
  const auto prefix = static_cast<std::size_t>(
      std::lower_bound(schedule.begin(), schedule.end(), window,
                       [](const Arrival& a, double t) { return a.due_s < t; }) -
      schedule.begin());
  auto traced_clinic = make_clinic(options.seed, per_session);
  if (!traced_clinic.has_value()) {
    result.fail_check("traced set-up: " + traced_clinic.error().describe());
    return result;
  }
  biosens::obs::TraceSession session;
  session.start();
  const std::uint64_t begin_ns = session.now_ns();
  const Pass traced = drive(*traced_clinic.value(), schedule, prefix, result);
  const std::uint64_t end_ns = session.now_ns();
  session.stop();
  const TraceSummary summary = summarize(session.tracks(), begin_ns, end_ns);

  // Each session's traced stream must be a prefix of its untraced one.
  for (std::size_t s = 0; s < traced.streams.size(); ++s) {
    const auto& t = traced.streams[s];
    const auto& u = pass.streams[s];
    if (t.size() > u.size() || !std::equal(t.begin(), t.end(), u.begin())) {
      result.fail_check("session " + std::to_string(s) +
                        ": traced results differ from untraced ones");
    }
  }

  add_layer_metrics(result, summary, 1.0);
  std::uint64_t poc_in_slo = 0;
  for (const double l : pass.poc.from_due) {
    poc_in_slo += ms(l) <= kSloMs ? 1 : 0;
  }
  result.add("load.poc_slo_frac", "frac",
             static_cast<double>(poc_in_slo) /
                 static_cast<double>(pass.poc_attempted));
  result.add("load.poc_p50_ms", "ms", ms(quantile(pass.poc.from_due, 0.5)));
  result.add("load.poc_p99_ms", "ms", ms(quantile(pass.poc.from_due, 0.99)));
  result.add("load.bulk_p50_ms", "ms", ms(quantile(pass.bulk.from_due, 0.5)));
  result.add("load.bulk_p99_ms", "ms", ms(quantile(pass.bulk.from_due, 0.99)));
  result.add("load.lag_p50_ms", "ms", ms(quantile(pass.lag_s, 0.5)));
  result.add("load.lag_p99_ms", "ms", ms(quantile(pass.lag_s, 0.99)));
  result.add("load.late_frac", "frac", late_frac);
  result.add("service.poc_p99_ms", "ms",
             ms(quantile(pass.poc.from_submit, 0.99)));
  result.add("service.bulk_p50_ms", "ms",
             ms(quantile(pass.bulk.from_submit, 0.5)));
  result.add("service.submit_p50_us", "us",
             1e6 * quantile(pass.submit_s, 0.5));
  result.add("service.submit_p99_us", "us",
             1e6 * quantile(pass.submit_s, 0.99));
  result.add("service.poc_queue_wait_p99_us", "us", queue_wait_p99_us[0]);
  result.add("service.bulk_queue_wait_p99_us", "us", queue_wait_p99_us[1]);
  result.add("service.poc_exec_p50_us", "us", exec_p50_us[0]);
  result.add("service.bulk_exec_p50_us", "us", exec_p50_us[1]);
  result.add("service.rejected", "count", static_cast<double>(pass.refused));
  result.add("service.failed", "count", static_cast<double>(pass.failed));
  result.add("obs.trace_overhead_frac", "frac",
             (traced.exec_s / static_cast<double>(traced.executed)) /
                     (pass.exec_s / static_cast<double>(pass.executed)) -
                 1.0);
  result.add("obs.dropped_events", "count",
             static_cast<double>(session.dropped_events()));
  return result;
}

}  // namespace perfbench
