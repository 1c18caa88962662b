// Batch planning service tests: full-registry batches, the TilingCache
// hit/miss accounting (the second identical batch must be served from
// cache and run >= 5x faster), multichannel and mobile flowing through
// PlanResult, and determinism across thread counts.
#include <gtest/gtest.h>

#include <chrono>

#include "core/mobile.hpp"
#include "core/plan_service.hpp"
#include "util/parallel.hpp"

namespace latticesched {
namespace {

using Clock = std::chrono::steady_clock;

double run_seconds(PlanService& service, const std::vector<BatchItem>& items) {
  const Clock::time_point t0 = Clock::now();
  const BatchReport report = service.run(items);
  EXPECT_EQ(report.items.size(), items.size());
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

TEST(PlanService, FullRegistryBatchPlansEveryScenario) {
  PlanService service;
  ScenarioParams params;
  params.n = 6;
  const BatchReport report = service.run(service.registry_batch(params));
  ASSERT_EQ(report.items.size(),
            ScenarioRegistry::global().names().size());
  EXPECT_TRUE(report.all_ok());
  for (const BatchItemReport& item : report.items) {
    EXPECT_TRUE(item.built) << item.scenario << ": " << item.error;
    EXPECT_GT(item.sensors, 0u) << item.scenario;
    ASSERT_FALSE(item.results.empty()) << item.scenario;
    for (const PlanResult& r : item.results) {
      EXPECT_TRUE(r.ok) << item.scenario << "/" << r.backend << ": "
                        << r.error;
      EXPECT_TRUE(r.collision_free) << item.scenario << "/" << r.backend;
    }
  }
}

TEST(PlanService, MultichannelFlowsThroughPlanResult) {
  PlanService service;
  ScenarioParams params;
  params.n = 6;
  params.channels = 3;
  BatchItem item;
  item.query = ScenarioQuery{"multichannel", params};
  const BatchReport report = service.run({item});
  ASSERT_EQ(report.items.size(), 1u);
  const BatchItemReport& mc = report.items.front();
  ASSERT_TRUE(mc.built) << mc.error;
  EXPECT_EQ(mc.channels, 3u);
  for (const PlanResult& r : mc.results) {
    ASSERT_TRUE(r.ok) << r.backend << ": " << r.error;
    // Every backend's schedule folds onto the channels — (slot, channel)
    // assignments in the result, collision verdict covering them.
    ASSERT_TRUE(r.channel_slots.has_value()) << r.backend;
    EXPECT_EQ(r.channel_slots->channels, 3u) << r.backend;
    EXPECT_EQ(r.channel_slots->assignment.size(), mc.sensors) << r.backend;
    EXPECT_EQ(r.channel_slots->period,
              (r.slots.period + 2) / 3)  // ceil(m / 3)
        << r.backend;
    EXPECT_TRUE(r.collision_free) << r.backend;
    EXPECT_EQ(r.effective_period(), r.channel_slots->period) << r.backend;
  }
}

TEST(PlanService, MobileBackendFlowsThroughPlanResult) {
  PlanService service;
  ScenarioParams params;
  params.n = 6;
  BatchItem item;
  item.query = ScenarioQuery{"grid", params};
  item.backends = {"mobile"};
  const BatchReport report = service.run({item});
  ASSERT_EQ(report.items.size(), 1u);
  ASSERT_TRUE(report.items[0].built);
  ASSERT_EQ(report.items[0].results.size(), 1u);
  const PlanResult& r = report.items[0].results[0];
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.collision_free);
  ASSERT_NE(r.mobile, nullptr);
  EXPECT_EQ(r.mobile->period(), 9u);
  // The scheduler is live: the location rule answers queries.
  EXPECT_LT(r.mobile->slot_of_location({0.2, 0.3}), 9u);
}

TEST(PlanService, HexScenarioDrivesMobileWithHexGeometry) {
  PlanService service;
  BatchItem item;
  item.query = ScenarioQuery{"hex", {}};
  item.backends = {"mobile"};
  const BatchReport report = service.run({item});
  ASSERT_TRUE(report.items[0].built) << report.items[0].error;
  const PlanResult& r = report.items[0].results[0];
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_NE(r.mobile, nullptr);
  // The Voronoi cells of the location rule must match the deployment's
  // geometry, not default to the square lattice.
  EXPECT_EQ(r.mobile->lattice().name(), "hexagonal");
  EXPECT_EQ(r.mobile->period(), 7u);  // |hex ball| = 7 (Theorem 1)
}

TEST(PlanService, SecondIdenticalBatchIsServedFromCache) {
  // The acceptance bar: a second identical batch over the full scenario
  // registry is >= 5x faster because every torus search hits the
  // TilingCache.  The batch is tiling-only with verification off so the
  // measured work is exactly what the cache can and cannot save (the
  // collision checker is uncached and identical in both runs; the
  // coloring backends never search).  A radius sweep joins the registry
  // batch so the cold cost is dominated by genuine searches.
  set_parallel_threads(1);
  PlanService service;
  ScenarioParams params;
  params.n = 8;
  std::vector<BatchItem> items =
      service.registry_batch(params, {"tiling"});
  for (const ScenarioQuery& q :
       radius_sweep("grid", params, {2, 3, 4})) {
    BatchItem item;
    item.query = q;
    item.backends = {"tiling"};
    items.push_back(std::move(item));
  }
  for (BatchItem& item : items) item.verify = false;

  const double cold = run_seconds(service, items);
  const TilingCache::Stats after_cold = service.tiling_cache().stats();
  EXPECT_GT(after_cold.misses, 0u);
  EXPECT_GT(after_cold.entries, 0u);

  // Warm runs: every search must hit.  Take the best of two to shield
  // the wall-clock ratio from scheduler noise.
  double warm = run_seconds(service, items);
  warm = std::min(warm, run_seconds(service, items));
  const TilingCache::Stats after_warm = service.tiling_cache().stats();
  EXPECT_EQ(after_warm.misses, after_cold.misses)
      << "a warm batch must not re-run any torus search";
  EXPECT_GT(after_warm.hits, after_cold.hits);

  EXPECT_GE(cold / warm, 5.0)
      << "cold " << cold * 1e3 << "ms vs warm " << warm * 1e3 << "ms";
  set_parallel_threads(0);
}

TEST(PlanService, CacheCountersSurfaceInBatchReports) {
  set_parallel_threads(1);
  PlanService service;
  ScenarioParams params;
  params.n = 6;
  BatchItem item;
  item.query = ScenarioQuery{"grid", params};
  item.backends = {"tiling"};
  const BatchReport cold = service.run({item});
  EXPECT_EQ(cold.counters.cache_misses, 1u);
  EXPECT_EQ(cold.counters.cache_hits, 0u);
  const BatchReport warm = service.run({item});
  EXPECT_EQ(warm.counters.cache_misses, 0u);
  EXPECT_EQ(warm.counters.cache_hits, 1u);
  set_parallel_threads(0);
}

TEST(PlanService, DynamicItemsRunTheirTraceStepByStep) {
  set_parallel_threads(1);
  PlanService service;
  ScenarioParams params;
  params.n = 6;
  params.steps = 3;
  BatchItem item;
  item.query = ScenarioQuery{"grid-failures", params};
  item.backends = {"tiling", "greedy", "tdma"};
  const BatchReport report = service.run({item});
  set_parallel_threads(0);
  ASSERT_EQ(report.items.size(), 1u);
  const BatchItemReport& out = report.items.front();
  ASSERT_TRUE(out.built) << out.error;
  EXPECT_TRUE(out.all_ok());
  ASSERT_EQ(out.steps.size(), 4u);  // initial + 3 failure rounds
  EXPECT_EQ(out.steps[0].step, 0u);
  EXPECT_EQ(out.steps[0].sensors, 36u);
  std::size_t previous = out.steps[0].sensors + 1;
  for (const BatchStepReport& step : out.steps) {
    EXPECT_LT(step.sensors, previous);  // sensors die every round
    previous = step.sensors;
    ASSERT_EQ(step.results.size(), 3u);
    for (const PlanResult& r : step.results) {
      EXPECT_TRUE(r.ok) << r.backend << ": " << r.error;
      EXPECT_TRUE(r.collision_free) << r.backend;
      EXPECT_EQ(r.slots.slot.size(), step.sensors) << r.backend;
    }
  }
  // results mirrors the final step.
  ASSERT_EQ(out.results.size(), 3u);
  EXPECT_EQ(out.results[0].slots.slot,
            out.steps.back().results[0].slots.slot);
  // The session reused the memoized search: one miss for the grid ball,
  // hits for every later step.
  EXPECT_EQ(report.counters.cache_misses, 1u);
  EXPECT_GE(report.counters.cache_hits, 3u);
}

TEST(PlanService, TraceScriptOverridesTheScenarioTrace) {
  PlanService service;
  ScenarioParams params;
  params.n = 5;
  BatchItem item;
  item.query = ScenarioQuery{"grid", params};  // static scenario...
  item.backends = {"tdma"};
  item.trace_script = "step\nremove 0 0\nstep\nremove 4 4\n";  // ...scripted
  const BatchReport report = service.run({item});
  ASSERT_EQ(report.items.size(), 1u);
  const BatchItemReport& out = report.items.front();
  ASSERT_TRUE(out.built) << out.error;
  ASSERT_EQ(out.steps.size(), 3u);
  EXPECT_EQ(out.steps[0].sensors, 25u);
  EXPECT_EQ(out.steps[1].sensors, 24u);
  EXPECT_EQ(out.steps[2].sensors, 23u);
  EXPECT_TRUE(out.all_ok());

  // A malformed script is an item failure, not a thrown batch.
  BatchItem bad = item;
  bad.trace_script = "remove 0 0\n";  // op before any step
  const BatchReport failed = service.run({bad});
  ASSERT_EQ(failed.items.size(), 1u);
  EXPECT_FALSE(failed.items[0].built);
  EXPECT_NE(failed.items[0].error.find("step"), std::string::npos);
  EXPECT_FALSE(failed.all_ok());
}

TEST(PlanService, FullRegistryWithDynamicScenariosIsDeterministic) {
  // The thread-count determinism pin, now covering traces: dynamic
  // items replan per step, and every step's slot tables must be
  // identical at any pool width.
  ScenarioParams params;
  params.n = 6;
  std::vector<BatchReport> reports;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_parallel_threads(threads);
    PlanService service;
    reports.push_back(service.run(service.registry_batch(
        params, {"tiling", "greedy", "tdma"})));
  }
  set_parallel_threads(0);
  ASSERT_EQ(reports[0].items.size(), reports[1].items.size());
  bool saw_dynamic = false;
  for (std::size_t i = 0; i < reports[0].items.size(); ++i) {
    const BatchItemReport& a = reports[0].items[i];
    const BatchItemReport& b = reports[1].items[i];
    ASSERT_EQ(a.steps.size(), b.steps.size()) << a.scenario;
    saw_dynamic = saw_dynamic || !a.steps.empty();
    for (std::size_t s = 0; s < a.steps.size(); ++s) {
      EXPECT_EQ(a.steps[s].step, b.steps[s].step);
      EXPECT_EQ(a.steps[s].sensors, b.steps[s].sensors);
      ASSERT_EQ(a.steps[s].results.size(), b.steps[s].results.size());
      for (std::size_t j = 0; j < a.steps[s].results.size(); ++j) {
        EXPECT_EQ(a.steps[s].results[j].slots.slot,
                  b.steps[s].results[j].slots.slot);
      }
    }
  }
  EXPECT_TRUE(saw_dynamic);
}

TEST(PlanService, ScenarioFailuresAreReportedNotThrown) {
  PlanService service;
  BatchItem bad;
  bad.query = ScenarioQuery{"no-such-scenario", {}};
  BatchItem good;
  good.query = ScenarioQuery{"grid", {}};
  good.backends = {"tdma"};
  const BatchReport report = service.run({bad, good});
  ASSERT_EQ(report.items.size(), 2u);
  EXPECT_FALSE(report.items[0].built);
  EXPECT_NE(report.items[0].error.find("no-such-scenario"),
            std::string::npos);
  EXPECT_TRUE(report.items[1].all_ok());
  EXPECT_FALSE(report.all_ok());

  BatchItem typo;
  typo.query = ScenarioQuery{"grid", {}};
  typo.backends = {"no-such-backend"};
  EXPECT_THROW(service.run({typo}), std::invalid_argument);
}

TEST(PlanService, BatchIsDeterministicAcrossThreadCounts) {
  // Results AND cache counters: items racing on one cold key may both
  // search, but only the insert counts a miss.  A racing miss shows up
  // in most 4-thread runs, so five fresh runs make a regression
  // near-certain to fail.
  ScenarioParams params;
  params.n = 6;
  const auto run = [&](std::size_t threads) {
    set_parallel_threads(threads);
    PlanService service;
    return service.run(
        service.registry_batch(params, {"tiling", "dsatur", "tdma"}));
  };
  const BatchReport serial = run(1);
  std::vector<BatchReport> threaded;
  for (int round = 0; round < 5; ++round) threaded.push_back(run(4));
  set_parallel_threads(0);
  for (std::size_t round = 0; round < threaded.size(); ++round) {
    const BatchReport& report = threaded[round];
    EXPECT_EQ(serial.counters.cache_hits, report.counters.cache_hits)
        << "round " << round;
    EXPECT_EQ(serial.counters.cache_misses, report.counters.cache_misses)
        << "round " << round;
    ASSERT_EQ(serial.items.size(), report.items.size());
    for (std::size_t i = 0; i < serial.items.size(); ++i) {
      const BatchItemReport& a = serial.items[i];
      const BatchItemReport& b = report.items[i];
      EXPECT_EQ(a.label, b.label);
      ASSERT_EQ(a.results.size(), b.results.size());
      for (std::size_t j = 0; j < a.results.size(); ++j) {
        EXPECT_EQ(a.results[j].backend, b.results[j].backend);
        EXPECT_EQ(a.results[j].slots.slot, b.results[j].slots.slot);
        EXPECT_EQ(a.results[j].slots.period, b.results[j].slots.period);
      }
    }
  }
}

}  // namespace
}  // namespace latticesched
