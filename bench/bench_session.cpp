// PlanSession benchmarks — the BENCH_session.json trajectory.
//
// The report section measures the session API's reason to exist:
// replanning after a SMALL deployment delta (one sensor dies) must be
// far cheaper than a cold plan of the same deployment, because the
// session reuses the memoized torus search and the greedy table, which
// apply() repairs (a tiling+greedy session holds no conflict graph at
// all).  The records time replan() alone; the repair's cost sits in
// apply(), which they leave out.
// Headline number: incremental-vs-cold speedup on small-delta steps of
// the warm grid scenario (acceptance target >= 5x), recorded in
// machine-readable BENCH_session.json (path override:
// LATTICESCHED_BENCH_SESSION_JSON) and uploaded as a CI artifact.
//
// Verification is off throughout: the collision checker is
// delta-independent and identical on both sides, so including it would
// only blur what the session can and cannot save.
#include "bench_common.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/plan_session.hpp"
#include "core/scenario.hpp"
#include "tiling/shapes.hpp"
#include "util/parallel.hpp"

namespace latticesched {
namespace {

using Clock = std::chrono::steady_clock;

struct SessionRecord {
  std::string name;
  double cold_ms = 0.0;         // cold plan of the mutated deployment
  double incremental_ms = 0.0;  // session replan after the delta
  double speedup = 0.0;
};

std::vector<SessionRecord>& records() {
  static std::vector<SessionRecord> r;
  return r;
}

void write_bench_json() {
  const char* env = std::getenv("LATTICESCHED_BENCH_SESSION_JSON");
  const std::string path = env != nullptr ? env : "BENCH_session.json";
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  os << "{\n  \"benchmarks\": [\n";
  const auto& rs = records();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"cold_ms\": %.3f, "
                  "\"incremental_ms\": %.3f, \"speedup\": %.2f}%s\n",
                  rs[i].name.c_str(), rs[i].cold_ms, rs[i].incremental_ms,
                  rs[i].speedup, i + 1 < rs.size() ? "," : "");
    os << buf;
  }
  os << "  ]\n}\n";
  std::printf("\nwrote %zu benchmark records to %s\n", rs.size(),
              path.c_str());
}

Deployment grid_deployment(std::int64_t n, std::int64_t r) {
  return Deployment::grid(Box::cube(2, 0, n - 1),
                          shapes::chebyshev_ball(2, r));
}

/// Cold plan of the session's current deployment: fresh plan_all,
/// fresh scoped cache, no warm state.
double cold_seconds(const PlanSession& session,
                    const std::vector<std::string>& backends) {
  PlanRequest request;
  request.deployment = &session.deployment();
  request.channels = session.channels();
  request.verify = false;
  const Clock::time_point t0 = Clock::now();
  benchmark::DoNotOptimize(
      PlannerRegistry::global().plan_all(request, backends));
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Applies `delta_for(step)` + replan for `steps` rounds, returning the
/// best (min) incremental and cold wall times over the rounds.
template <typename DeltaFor>
SessionRecord measure(const std::string& name, PlanSession& session,
                      const std::vector<std::string>& backends, int steps,
                      DeltaFor&& delta_for) {
  (void)session.replan();  // warm: search memoized, greedy table set
  SessionRecord record;
  record.name = name;
  record.cold_ms = 1e300;
  record.incremental_ms = 1e300;
  for (int step = 0; step < steps; ++step) {
    session.apply(delta_for(step));
    const Clock::time_point t0 = Clock::now();
    benchmark::DoNotOptimize(session.replan());
    record.incremental_ms = std::min(
        record.incremental_ms,
        std::chrono::duration<double>(Clock::now() - t0).count() * 1e3);
    record.cold_ms =
        std::min(record.cold_ms, cold_seconds(session, backends) * 1e3);
  }
  record.speedup = record.cold_ms / record.incremental_ms;
  return record;
}

void report() {
  bench::section(
      "PlanSession: incremental replan vs cold plan after small deltas");

  const std::vector<std::string> backends = {"tiling", "greedy"};

  // The acceptance workload: warm grid (n=16, r=2), one sensor dies per
  // step.
  {
    SessionConfig config;
    config.backends = backends;
    config.verify = false;
    PlanSession session(grid_deployment(16, 2), config);
    const SessionRecord record = measure(
        "grid_small_delta_remove", session, backends, 5, [&](int step) {
          DeploymentDelta delta;
          delta.remove_sensors = {session.deployment().position(
              static_cast<std::size_t>(11 + 13 * step))};
          return delta;
        });
    std::printf(
        "grid(n=16 r=2), remove 1 sensor/step:\n  cold %.2fms vs "
        "incremental %.3fms -> %.1fx (acceptance target >= 5x)\n",
        record.cold_ms, record.incremental_ms, record.speedup);
    records().push_back(record);
    const PlanSession::Stats& stats = session.stats();
    std::printf(
        "  session stats: %llu replans, %llu graph build(s), %llu "
        "patch(es), %llu warm greedy\n",
        static_cast<unsigned long long>(stats.replans),
        static_cast<unsigned long long>(stats.graph_builds),
        static_cast<unsigned long long>(stats.graph_patches),
        static_cast<unsigned long long>(stats.warm_greedy));
  }

  // Joins instead of failures.
  {
    SessionConfig config;
    config.backends = backends;
    config.verify = false;
    PlanSession session(grid_deployment(16, 2), config);
    const SessionRecord record = measure(
        "grid_small_delta_add", session, backends, 5, [](int step) {
          DeploymentDelta delta;
          delta.add_sensors.push_back(DeploymentDelta::SensorAdd{
              Point{16, static_cast<std::int64_t>(step)}, std::nullopt});
          return delta;
        });
    std::printf(
        "grid(n=16 r=2), add 1 sensor/step:\n  cold %.2fms vs "
        "incremental %.3fms -> %.1fx\n",
        record.cold_ms, record.incremental_ms, record.speedup);
    records().push_back(record);
  }

  // A full dynamic-scenario trace end to end (the driver's
  // --scenario grid-failures --steps 5 path), total wall per mode.
  {
    ScenarioParams params;
    params.n = 12;
    params.steps = 5;
    ScenarioInstance instance =
        ScenarioRegistry::global().build("grid-failures", params);
    SessionConfig config;
    config.backends = backends;
    config.verify = false;
    PlanSession session(std::move(instance.deployment), config);
    const Clock::time_point t0 = Clock::now();
    (void)session.replan();
    for (const MutationStep& step : instance.trace.steps) {
      session.apply(step.delta);
      benchmark::DoNotOptimize(session.replan());
    }
    const double session_ms =
        std::chrono::duration<double>(Clock::now() - t0).count() * 1e3;

    // The pre-session alternative: a cold plan per step.
    ScenarioInstance cold_instance =
        ScenarioRegistry::global().build("grid-failures", params);
    SessionConfig cold_config;
    cold_config.backends = backends;
    cold_config.verify = false;
    PlanSession replay(std::move(cold_instance.deployment), cold_config);
    const Clock::time_point t1 = Clock::now();
    double cold_total = cold_seconds(replay, backends) * 1e3;
    for (const MutationStep& step : cold_instance.trace.steps) {
      replay.apply(step.delta);
      cold_total += cold_seconds(replay, backends) * 1e3;
    }
    (void)t1;
    SessionRecord record;
    record.name = "grid_failures_trace_steps5";
    record.cold_ms = cold_total;
    record.incremental_ms = session_ms;
    record.speedup = cold_total / session_ms;
    std::printf(
        "grid-failures(n=12 steps=5) full trace:\n  per-step cold "
        "%.2fms vs session %.2fms -> %.1fx\n",
        record.cold_ms, record.incremental_ms, record.speedup);
    records().push_back(record);
  }

  write_bench_json();
}

void BM_SessionIncrementalReplan(benchmark::State& state) {
  SessionConfig config;
  config.backends = {"tiling", "greedy"};
  config.verify = false;
  static PlanSession* session =
      new PlanSession(grid_deployment(16, 2), config);
  (void)session->replan();
  bool flip = false;
  for (auto _ : state) {
    // Oscillate one sensor between two spare cells: a steady stream of
    // 1-sensor deltas against a warm session.
    DeploymentDelta delta;
    delta.move_sensors.push_back(DeploymentDelta::SensorMove{
        session->deployment().position(7),
        Point{16, flip ? std::int64_t{8} : std::int64_t{9}}});
    flip = !flip;
    session->apply(delta);
    benchmark::DoNotOptimize(session->replan());
  }
}
BENCHMARK(BM_SessionIncrementalReplan);

void BM_ColdPlanSameDeployment(benchmark::State& state) {
  const Deployment d = grid_deployment(16, 2);
  for (auto _ : state) {
    PlanRequest request;
    request.deployment = &d;
    request.verify = false;
    benchmark::DoNotOptimize(
        PlannerRegistry::global().plan_all(request, {"tiling", "greedy"}));
  }
}
BENCHMARK(BM_ColdPlanSameDeployment);

}  // namespace
}  // namespace latticesched

REPRODUCTION_MAIN(latticesched::report)
