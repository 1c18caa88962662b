// The streamed greedy table behind `greedy` and its second name
// `region-greedy`, and the session's repair count.
//
// The load-bearing pin is EXACTNESS: plan_greedy and every warm replan
// must return exactly greedy_coloring(build_conflict_graph(d)) — the
// serial cold plan — for every prototile mix and delta sequence,
// because the streamed path replaces the materialized conflict graph on
// the scale path and any drift would silently change schedules.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/plan_service.hpp"
#include "core/plan_session.hpp"
#include "core/region_shard.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "dist/coordinator.hpp"
#include "tiling/shapes.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace latticesched {
namespace {

Deployment grid_deployment(std::int64_t n, std::int64_t r = 1) {
  return Deployment::grid(Box::cube(2, 0, n - 1),
                          shapes::chebyshev_ball(2, r));
}

/// Mixed-prototile scatter: alternating Chebyshev and l1 neighborhoods
/// over a seeded random subset — exercises the pairwise conflict
/// confirmation the single-prototile fast path skips.
Deployment mixed_scatter(std::int64_t n, std::uint64_t seed) {
  PointVec cells = Box::cube(2, 0, n - 1).points();
  Rng rng(seed);
  rng.shuffle(cells);
  cells.resize(std::max<std::size_t>(2, cells.size() / 2));
  std::vector<std::uint32_t> types;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    types.push_back(static_cast<std::uint32_t>(i % 2));
  }
  return Deployment::assemble(
      std::move(cells), std::move(types),
      {shapes::chebyshev_ball(2, 1), shapes::l1_ball(2, 2)});
}

Coloring serial_greedy(const Deployment& d) {
  return greedy_coloring(build_conflict_graph(d));
}

/// Seeded scatter over a hull far past the dense index's cap, so
/// positions are hashed.
Deployment hashed_scatter(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  PointVec cells;
  for (std::size_t i = 0; i < n; ++i) {
    cells.push_back(Point{static_cast<std::int64_t>(i) * 100'003,
                          static_cast<std::int64_t>(rng.next_below(1000))});
  }
  rng.shuffle(cells);
  return Deployment::uniform(std::move(cells), shapes::chebyshev_ball(2, 1));
}

TEST(RegionShard, ColdPlanIdenticalToSerialGreedy) {
  for (const std::int64_t n : {5, 12, 16}) {
    for (const std::int64_t r : {1, 2}) {
      const Deployment d = grid_deployment(n, r);
      EXPECT_EQ(plan_greedy(d), serial_greedy(d)) << "n=" << n << " r=" << r;
    }
  }
  // Radius 4: a 9x9 block is a clique, so sensors take slots past 64,
  // beyond the fused pass's one-word mask.
  const Deployment wide = grid_deployment(20, 4);
  EXPECT_GE(color_count(plan_greedy(wide)), 81u);
  EXPECT_EQ(plan_greedy(wide), serial_greedy(wide)) << "r=4";
  // A grid-large prefix: 31 full rows of 32 and a last row of 8, so the
  // hull has holes and the ids still ascend with cells.
  for (const std::int64_t r : {1, 2}) {
    ScenarioParams params;
    params.n = 1000;
    params.radius = r;
    const Deployment d =
        ScenarioRegistry::global().build("grid-large", params).deployment;
    ASSERT_EQ(d.size(), 1000u);
    ASSERT_TRUE(d.position_index()->ids_ascend());
    EXPECT_EQ(plan_greedy(d), serial_greedy(d)) << "grid-large r=" << r;
  }
}

TEST(RegionShard, ColdPlanIdenticalOnMixedPrototiles) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Deployment d = mixed_scatter(12, seed);
    EXPECT_EQ(plan_greedy(d), serial_greedy(d)) << "seed=" << seed;
  }
  const Deployment scatter = hashed_scatter(60, 5);
  ASSERT_EQ(scatter.position_index(), nullptr);
  EXPECT_EQ(plan_greedy(scatter), serial_greedy(scatter)) << "hashed";
}

TEST(RegionShard, WarmReplanMatchesColdAfterDeltaSequence) {
  // Drive a region-greedy session through removals, additions and a
  // move; every replan must equal the serial cold plan of the current
  // deployment.
  SessionConfig config;
  config.backends = {"region-greedy"};
  PlanSession session(grid_deployment(16), config);
  auto check = [&](const char* what) {
    const std::vector<PlanResult> results = session.replan();
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << what << ": " << results[0].error;
    EXPECT_TRUE(results[0].collision_free) << what;
    EXPECT_EQ(results[0].slots.slot, serial_greedy(session.deployment()))
        << what;
  };
  check("cold");

  DeploymentDelta remove;
  remove.remove_sensors = {Point{1, 1}, Point{9, 12}};
  session.apply(remove);
  check("after remove");

  DeploymentDelta add;
  add.add_sensors.push_back(
      DeploymentDelta::SensorAdd{Point{16, 3}, std::nullopt});
  session.apply(add);
  check("after add");

  DeploymentDelta move;
  move.move_sensors.push_back(
      DeploymentDelta::SensorMove{Point{4, 4}, Point{17, 17}});
  session.apply(move);
  check("after move (hull growth)");

  DeploymentDelta reshape;
  DeploymentDelta::RadiusChange rc;
  rc.sensors = {Point{8, 8}};
  rc.radius = 2;
  reshape.set_radius.push_back(std::move(rc));
  session.apply(reshape);
  check("after radius change");
}

TEST(RegionShard, WarmRegionReplanRecolorsOnlyChangedSlots) {
  SessionConfig config;
  config.backends = {"region-greedy"};
  PlanSession session(grid_deployment(16), config);
  const Coloring cold = session.replan()[0].slots.slot;
  const PlanSession::Stats after_cold = session.stats();
  EXPECT_EQ(after_cold.stitch_recolored, 0u);  // a cold plan repairs nothing

  // One sensor dies.  The warm replan plans nothing: apply()'s repair
  // fixes the carried table, so it recolors exactly the sensors whose
  // slot differs from that table.
  const std::size_t victim = *session.deployment().sensor_at(Point{1, 1});
  DeploymentDelta delta;
  delta.remove_sensors = {Point{1, 1}};
  session.apply(delta);
  const Coloring warm = session.replan()[0].slots.slot;
  const PlanSession::Stats after_delta = session.stats();

  Coloring carried = cold;
  carried.erase(carried.begin() + static_cast<std::ptrdiff_t>(victim));
  ASSERT_EQ(carried.size(), warm.size());
  std::uint64_t changed = 0;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    if (warm[i] != carried[i]) ++changed;
  }
  EXPECT_GT(changed, 0u);
  EXPECT_EQ(after_delta.stitch_recolored - after_cold.stitch_recolored,
            changed);
  EXPECT_EQ(warm, serial_greedy(session.deployment()));
}

/// Slots of `after` that differ from `before` once `removed` is erased.
std::uint64_t slots_changed(Coloring before, std::size_t removed,
                            const Coloring& after) {
  before.erase(before.begin() + static_cast<std::ptrdiff_t>(removed));
  std::uint64_t changed = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i] != after[i]) ++changed;
  }
  return changed;
}

TEST(RegionShard, WarmRecolorCountSumsTheRepairsSinceTheLastReplan) {
  // apply() counts each repair's changed slots, whichever greedy name
  // the session plans with.
  for (const char* backend : {"greedy", "region-greedy"}) {
    SCOPED_TRACE(backend);
    SessionConfig config;
    config.backends = {backend};
    PlanSession session(grid_deployment(16), config);
    const auto remove = [&](const Point& p) {
      const std::size_t victim = *session.deployment().sensor_at(p);
      DeploymentDelta delta;
      delta.remove_sensors = {p};
      session.apply(delta);
      return victim;
    };

    // One delta per replan: the count grows by that delta's repair.
    const Coloring cold = session.replan()[0].slots.slot;
    const std::size_t first_victim = remove(Point{1, 1});
    const Coloring first = session.replan()[0].slots.slot;
    EXPECT_EQ(session.stats().stitch_recolored,
              slots_changed(cold, first_victim, first));
    const std::uint64_t recolored_first = session.stats().stitch_recolored;
    const std::size_t second_victim = remove(Point{9, 12});
    const Coloring second = session.replan()[0].slots.slot;
    const std::uint64_t second_changed =
        slots_changed(first, second_victim, second);
    EXPECT_GT(second_changed, 0u);
    EXPECT_EQ(session.stats().stitch_recolored - recolored_first,
              second_changed);

    // Two deltas, then one replan: the count grows by both repairs.
    const std::uint64_t recolored_second = session.stats().stitch_recolored;
    const std::size_t third_victim = remove(Point{4, 7});
    const Coloring third = serial_greedy(session.deployment());
    const std::size_t fourth_victim = remove(Point{5, 7});
    const Coloring fourth = session.replan()[0].slots.slot;
    EXPECT_EQ(session.stats().stitch_recolored - recolored_second,
              slots_changed(second, third_victim, third) +
                  slots_changed(third, fourth_victim, fourth));
  }
}

TEST(RegionShard, RandomChurnKeepsWarmAndColdIdentical) {
  // Sessions of greedy backends only: their warm table is carried and
  // repaired without any conflict graph, through removals, additions,
  // moves and radius changes, on a one-prototile grid and on a grid with
  // every third column at radius 2.
  PointVec cells = Box::cube(2, 0, 15).points();
  std::vector<std::uint32_t> types;
  for (const Point& p : cells) types.push_back(p[1] % 3 == 0 ? 1 : 0);
  const Deployment mixed = Deployment::assemble(
      std::move(cells), std::move(types),
      {shapes::chebyshev_ball(2, 1), shapes::chebyshev_ball(2, 2)});
  for (const std::vector<std::string>& backends :
       {std::vector<std::string>{"region-greedy"},
        std::vector<std::string>{"greedy", "region-greedy"}}) {
    for (const Deployment* initial : {static_cast<const Deployment*>(nullptr),
                                      &mixed}) {
      const std::string what = std::to_string(backends.size()) +
                               " backend(s), " +
                               (initial != nullptr ? "mixed" : "12x12");
      Rng rng(11);
      SessionConfig config;
      config.backends = backends;
      PlanSession session(initial != nullptr ? *initial : grid_deployment(12),
                          config);
      (void)session.replan();
      std::int64_t spare_row = initial != nullptr ? 16 : 12;
      const auto random_position = [&] {
        return session.deployment().position(
            rng.next_below(session.deployment().size()));
      };
      for (int step = 0; step < 8; ++step) {
        DeploymentDelta delta;
        switch (step % 4) {
          case 0:
            delta.remove_sensors = {random_position()};
            break;
          case 1:
            delta.add_sensors.push_back(DeploymentDelta::SensorAdd{
                Point{spare_row++, static_cast<std::int64_t>(step)},
                std::nullopt});
            break;
          case 2:
            delta.move_sensors.push_back(DeploymentDelta::SensorMove{
                random_position(),
                Point{spare_row++, static_cast<std::int64_t>(step)}});
            break;
          default: {
            DeploymentDelta::RadiusChange rc;
            rc.sensors = {random_position()};
            rc.radius = 2;
            delta.set_radius.push_back(std::move(rc));
          }
        }
        session.apply(delta);
        const std::vector<PlanResult> results = session.replan();
        ASSERT_EQ(results.size(), backends.size()) << what;
        for (const PlanResult& result : results) {
          ASSERT_TRUE(result.ok) << what << " step " << step << ": "
                                 << result.error;
          EXPECT_EQ(result.slots.slot, serial_greedy(session.deployment()))
              << what << " step " << step << " " << result.backend;
        }
      }
      EXPECT_EQ(session.stats().graph_builds, 0u) << what;
      EXPECT_EQ(session.stats().warm_greedy, 8u) << what;
    }
  }
}

/// The report row of `r` under the name `backend`, wall time zeroed.
std::string row_named(PlanResult r, const std::string& backend,
                      const std::string& label, std::uint64_t step) {
  r.backend = backend;
  r.wall_seconds = 0.0;
  return plan_results_to_json({r}, label, step);
}

TEST(RegionShard, RegionGreedyRowsEqualGreedyRowsExceptBackend) {
  // `region-greedy` is `greedy`'s second name: on every registry
  // scenario, step by step for the dynamic ones, its report row differs
  // from greedy's only in the backend column.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    ScenarioParams params;
    params.seed = seed;
    PlanService service;
    const BatchReport report = service.run(
        service.registry_batch(params, {"greedy", "region-greedy"}));
    for (const BatchItemReport& item : report.items) {
      ASSERT_TRUE(item.built) << item.scenario << ": " << item.error;
      std::vector<BatchStepReport> steps = item.steps;
      if (steps.empty()) {
        steps.push_back(BatchStepReport{0, item.sensors, item.results});
      }
      for (const BatchStepReport& step : steps) {
        ASSERT_EQ(step.results.size(), 2u);
        EXPECT_EQ(step.results[1].backend, "region-greedy");
        EXPECT_EQ(row_named(step.results[1], "greedy", item.label, step.step),
                  row_named(step.results[0], "greedy", item.label, step.step))
            << "seed " << seed << " step " << step.step;
      }
    }
  }
}

TEST(RegionShard, DefaultSetLeavesRegionGreedyOut) {
  const Deployment d = grid_deployment(6);
  PlanRequest request;
  request.deployment = &d;
  const std::vector<PlanResult> results =
      PlannerRegistry::global().plan_all(request);
  const auto planned = [&](const std::string& name) {
    return std::any_of(
        results.begin(), results.end(),
        [&](const PlanResult& r) { return r.backend == name; });
  };
  EXPECT_TRUE(planned("greedy"));
  EXPECT_FALSE(planned("region-greedy"));
  EXPECT_FALSE(
      PlannerRegistry::global().find("region-greedy")->in_default_set());
}

TEST(RegionShard, GridLargeScenarioGeneratesLinearly) {
  ScenarioParams params;
  params.n = 5000;
  const ScenarioInstance inst =
      ScenarioRegistry::global().build("grid-large", params);
  EXPECT_EQ(inst.deployment.size(), 5000u);
  // side = ceil(sqrt(5000)) = 71; first 5000 cells row-major.
  EXPECT_EQ(inst.deployment.position(0), (Point{0, 0}));
  EXPECT_EQ(inst.deployment.position(71), (Point{1, 0}));
  EXPECT_EQ(inst.deployment.position(4999), (Point{70, 29}));
}

TEST(RegionShard, GridScenarioDelegatesToGridLargeAtScale) {
  ScenarioParams params;
  params.n = 100000;  // sensor-count semantics past the threshold
  const ScenarioInstance inst =
      ScenarioRegistry::global().build("grid", params);
  EXPECT_EQ(inst.scenario, "grid-large");
  EXPECT_EQ(inst.deployment.size(), 100000u);
}

TEST(RegionShard, RandomSubsetSparseWindowNeverMaterialized) {
  ScenarioParams params;
  params.n = 100000;  // 10^10-cell window; dense shuffle would OOM
  params.density = 1e-6;
  const ScenarioInstance inst =
      ScenarioRegistry::global().build("random-subset", params);
  EXPECT_EQ(inst.deployment.size(), 10000u);
  // Rejection sampling cannot cover dense scatters; the guard throws
  // instead of silently allocating the quadratic window.
  params.density = 0.75;
  EXPECT_THROW(ScenarioRegistry::global().build("random-subset", params),
               std::invalid_argument);
}

TEST(RegionShard, PeakRssProbeReportsCurrentUsage) {
#ifdef __linux__
  EXPECT_GT(peak_rss_bytes(), 0u);
#else
  SUCCEED();
#endif
}

TEST(RegionShard, ShardWeightsSaturateInsteadOfWrapping) {
  // n = 2^32 makes the naive n^2 weight wrap to 0; saturated weights
  // keep the million-sensor item the heaviest, so weighted LPT gives it
  // a shard of its own instead of stacking real work on top of it.
  std::vector<BatchItem> items(4);
  items[0].query.params.n = std::int64_t{1} << 32;
  for (std::size_t i = 1; i < items.size(); ++i) {
    items[i].query.params.n = 100;
  }
  const auto shards = dist::ShardCoordinator::partition(
      items, 2, dist::ShardStrategy::kSizeWeighted);
  ASSERT_EQ(shards.size(), 2u);
  for (const auto& shard : shards) {
    if (std::find(shard.begin(), shard.end(), 0u) != shard.end()) {
      EXPECT_EQ(shard.size(), 1u) << "huge item must ride alone";
    }
  }
}

}  // namespace
}  // namespace latticesched
