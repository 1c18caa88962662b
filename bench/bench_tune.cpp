// Auto-tuning benchmarks — the BENCH_tune.json trajectory.
//
// The report section measures what the tuning subsystem (src/tune/)
// buys and what it costs:
//
//  1. tuned-vs-default: per scenario family, the deterministic cost
//     (effective period, then work proxy) of the config the seeded
//     tuner picks vs the default config.  The tuner measures the
//     default as trial 0, so the picked config can never lose —
//     `period_gain` >= 1.0 is asserted, not hoped.
//  2. cold-vs-warm sweep: a registry sweep on the `auto` backend with a
//     persistent --cache-dir, run cold (every family searched) and then
//     warm from a fresh service (every family served from disk).  The
//     warm run performing ZERO searches is the subsystem's acceptance
//     pin and is asserted here, so the CI smoke catches a cache
//     regression without parsing the JSON.
//
// Records land in BENCH_tune.json (path override:
// LATTICESCHED_BENCH_TUNE_JSON) and upload as a CI artifact.
#include "bench_common.hpp"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/plan_service.hpp"
#include "core/scenario.hpp"
#include "tiling/shapes.hpp"
#include "tune/tune_cache.hpp"
#include "tune/tuner.hpp"

namespace latticesched {
namespace {

using Clock = std::chrono::steady_clock;

struct TuneRecord {
  std::string name;
  double default_period = 0.0;
  double tuned_period = 0.0;
  double default_work = 0.0;
  double tuned_work = 0.0;
  double period_gain = 0.0;  // default_period / tuned_period (>= 1.0)
  double work_gain = 0.0;    // default_work / tuned_work at equal period
  std::uint64_t searches = 0;
  std::uint64_t trials = 0;
  double wall_ms = 0.0;
};

std::vector<TuneRecord>& records() {
  static std::vector<TuneRecord> r;
  return r;
}

void write_bench_json() {
  const char* env = std::getenv("LATTICESCHED_BENCH_TUNE_JSON");
  const std::string path = env != nullptr ? env : "BENCH_tune.json";
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  os << "{\n  \"benchmarks\": [\n";
  const auto& rs = records();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "    {\"name\": \"%s\", \"default_period\": %g, "
        "\"tuned_period\": %g, \"default_work\": %g, \"tuned_work\": %g, "
        "\"period_gain\": %.3f, \"work_gain\": %.3f, \"searches\": %llu, "
        "\"trials\": %llu, \"wall_ms\": %.3f}%s\n",
        rs[i].name.c_str(), rs[i].default_period, rs[i].tuned_period,
        rs[i].default_work, rs[i].tuned_work, rs[i].period_gain,
        rs[i].work_gain, static_cast<unsigned long long>(rs[i].searches),
        static_cast<unsigned long long>(rs[i].trials), rs[i].wall_ms,
        i + 1 < rs.size() ? "," : "");
    os << buf;
  }
  os << "  ]\n}\n";
  std::printf("\nwrote %zu benchmark records to %s\n", rs.size(),
              path.c_str());
}

void fail(const char* what) {
  std::fprintf(stderr, "bench_tune: ACCEPTANCE FAILURE: %s\n", what);
  write_bench_json();
  std::exit(1);
}

void report() {
  bench::section("tuned vs default config (deterministic cost, per family)");
  {
    struct Family {
      const char* scenario;
      std::int64_t n;
    };
    const Family families[] = {{"grid", 8}, {"hex", 8}, {"mobile", 10}};
    for (const Family& fam : families) {
      ScenarioParams params;
      params.n = fam.n;
      ScenarioInstance instance =
          ScenarioRegistry::global().build(fam.scenario, params);
      PlanRequest request;
      request.deployment = &instance.deployment;
      request.verify = false;
      request.sa.max_iters = 10'000;
      request.tune_family = fam.scenario;

      tune::TuneCache cache;
      tune::Tuner tuner(&PlannerRegistry::global(), &cache);
      tune::TuneOptions options;
      options.trials = 8;
      const Clock::time_point t0 = Clock::now();
      const tune::TuneOutcome outcome = tuner.search(request, options);
      const double wall_ms =
          std::chrono::duration<double>(Clock::now() - t0).count() * 1e3;

      if (outcome.trials.empty()) fail("tuner measured zero candidates");
      const tune::TrialOutcome& def = outcome.trials.front();
      const tune::TrialOutcome* best = nullptr;
      for (const tune::TrialOutcome& t : outcome.trials) {
        if (t.config == outcome.best) best = &t;
      }
      if (best == nullptr || !best->ok) fail("picked config was not measured ok");

      TuneRecord rec;
      rec.name = std::string("tuned_vs_default_") + fam.scenario;
      rec.default_period = def.effective_period;
      rec.tuned_period = best->effective_period;
      rec.default_work = def.work;
      rec.tuned_work = best->work;
      rec.period_gain = rec.tuned_period > 0.0
                            ? rec.default_period / rec.tuned_period
                            : 0.0;
      rec.work_gain =
          rec.tuned_work > 0.0 ? rec.default_work / rec.tuned_work : 0.0;
      rec.searches = 1;
      rec.trials = outcome.trials.size();
      rec.wall_ms = wall_ms;
      records().push_back(rec);
      std::printf(
          "%s(n=%lld): default period %g / work %g, tuned period %g / "
          "work %g -> %.2fx period, %.2fx work (%zu trial(s), %zu "
          "pruned, %.1fms)\n",
          fam.scenario, static_cast<long long>(fam.n), rec.default_period,
          rec.default_work, rec.tuned_period, rec.tuned_work,
          rec.period_gain, rec.work_gain, outcome.trials.size(),
          outcome.pruned, wall_ms);
      // Trial 0 IS the default, so losing to it is a tuner bug, not a
      // bad day.
      if (rec.period_gain < 1.0) fail("picked config lost to the default");
    }
  }

  bench::section("cold vs warm auto sweep (persistent tune cache)");
  {
    char tmpl[] = "/tmp/latticesched_bench_tune_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    if (dir == nullptr) fail("mkdtemp failed");

    ScenarioParams params;
    params.n = 6;
    PlanService cold_service;
    std::vector<BatchItem> items =
        cold_service.registry_batch(params, {"auto"});
    for (BatchItem& item : items) item.tune_trials = 2;

    cold_service.tiling_cache().set_persist_dir(dir);
    cold_service.tune_cache().set_persist_dir(dir);
    const Clock::time_point t0 = Clock::now();
    const BatchReport cold = cold_service.run(items);
    const double cold_ms =
        std::chrono::duration<double>(Clock::now() - t0).count() * 1e3;

    PlanService warm_service;
    warm_service.tiling_cache().set_persist_dir(dir);
    warm_service.tune_cache().set_persist_dir(dir);
    const Clock::time_point t1 = Clock::now();
    const BatchReport warm = warm_service.run(items);
    const double warm_ms =
        std::chrono::duration<double>(Clock::now() - t1).count() * 1e3;
    std::filesystem::remove_all(dir);

    TuneRecord cold_rec;
    cold_rec.name = "registry_sweep_cold";
    cold_rec.searches = cold.counters.tune_searches;
    cold_rec.trials = cold.counters.tune_trials_run;
    cold_rec.wall_ms = cold_ms;
    records().push_back(cold_rec);
    TuneRecord warm_rec;
    warm_rec.name = "registry_sweep_warm";
    warm_rec.searches = warm.counters.tune_searches;
    warm_rec.trials = warm.counters.tune_trials_run;
    warm_rec.wall_ms = warm_ms;
    records().push_back(warm_rec);
    std::printf(
        "cold: %.1fms, %llu search(es), %llu trial(s); warm: %.1fms, "
        "%llu search(es), %llu miss(es) -> %.1fx\n",
        cold_ms, static_cast<unsigned long long>(cold.counters.tune_searches),
        static_cast<unsigned long long>(cold.counters.tune_trials_run), warm_ms,
        static_cast<unsigned long long>(warm.counters.tune_searches),
        static_cast<unsigned long long>(warm.counters.tune_misses),
        warm_ms > 0.0 ? cold_ms / warm_ms : 0.0);

    if (!cold.all_ok() || !warm.all_ok()) fail("auto sweep produced failures");
    if (cold.counters.tune_searches == 0) {
      fail("cold sweep ran no tuning searches");
    }
    if (warm.counters.tune_misses != 0 || warm.counters.tune_searches != 0) {
      fail("warm sweep missed the tune cache");
    }
  }

  write_bench_json();
}

void BM_TunerSearchGrid8(benchmark::State& state) {
  static const Deployment* d = new Deployment(Deployment::grid(
      Box::cube(2, 0, 7), shapes::chebyshev_ball(2, 1)));
  PlanRequest request;
  request.deployment = d;
  request.verify = false;
  request.sa.max_iters = 5'000;
  tune::TuneOptions options;
  options.trials = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    tune::TuneCache cache;  // fresh: measure the search, not the memo
    tune::Tuner tuner(&PlannerRegistry::global(), &cache);
    benchmark::DoNotOptimize(tuner.search(request, options));
  }
}
BENCHMARK(BM_TunerSearchGrid8)->Arg(2)->Arg(8);

void BM_AutoBackendWarmHit(benchmark::State& state) {
  static const Deployment* d = new Deployment(Deployment::grid(
      Box::cube(2, 0, 7), shapes::chebyshev_ball(2, 1)));
  static tune::TuneCache* cache = new tune::TuneCache();
  PlanRequest request;
  request.deployment = d;
  request.verify = false;
  request.tune_cache = cache;
  request.tune_trials = 2;
  const Planner* auto_planner = PlannerRegistry::global().find("auto");
  (void)auto_planner->plan(request);  // populate: every iteration hits
  for (auto _ : state) {
    benchmark::DoNotOptimize(auto_planner->plan(request));
  }
}
BENCHMARK(BM_AutoBackendWarmHit);

}  // namespace
}  // namespace latticesched

REPRODUCTION_MAIN(latticesched::report)
