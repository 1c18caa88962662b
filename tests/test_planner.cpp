// Planner registry unit tests: backend inventory, result surfaces,
// failure reporting, fan-out ordering, the multichannel/mobile planner
// currency and the report emitters.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/mobile.hpp"
#include "core/planner.hpp"
#include "core/report.hpp"
#include "core/tiling_cache.hpp"
#include "tiling/shapes.hpp"
#include "util/parallel.hpp"

namespace latticesched {
namespace {

const Deployment& small_grid() {
  static const Deployment d =
      Deployment::grid(Box::cube(2, 0, 5), shapes::chebyshev_ball(2, 1));
  return d;
}

TEST(Planner, RegistryListsBuiltinBackends) {
  const auto names = PlannerRegistry::global().names();
  const std::vector<std::string> expected = {
      "tiling", "greedy",    "welsh-powell", "dsatur",
      "annealing", "tdma", "mobile"};
  for (const std::string& name : expected) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
    EXPECT_NE(PlannerRegistry::global().find(name), nullptr) << name;
  }
  EXPECT_EQ(PlannerRegistry::global().find("no-such-backend"), nullptr);
}

TEST(Planner, TilingBackendIsOptimalOnGrid) {
  PlanRequest request;
  request.deployment = &small_grid();
  const PlanResult r =
      PlannerRegistry::global().find("tiling")->plan(request);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.collision_free);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.slots.period, 9u);      // |N| = 9 (Theorem 1)
  EXPECT_EQ(r.lower_bound, 9u);

  // Skipping verification must be visible: collision_free stays
  // (trivially) true but verified records that no checker ran.
  PlanRequest unchecked = request;
  unchecked.verify = false;
  const PlanResult u =
      PlannerRegistry::global().find("tiling")->plan(unchecked);
  ASSERT_TRUE(u.ok) << u.error;
  EXPECT_TRUE(u.collision_free);
  EXPECT_FALSE(u.verified);
  EXPECT_DOUBLE_EQ(r.optimality_gap, 1.0);
  EXPECT_DOUBLE_EQ(r.duty_cycle, 1.0 / 9.0);
  ASSERT_TRUE(r.tiling.has_value());
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST(Planner, TdmaBackendUsesOneSlotPerSensor) {
  PlanRequest request;
  request.deployment = &small_grid();
  const PlanResult r = PlannerRegistry::global().find("tdma")->plan(request);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.collision_free);
  EXPECT_EQ(r.slots.period, small_grid().size());
  EXPECT_DOUBLE_EQ(r.slot_balance, 1.0);  // one sensor per slot
}

TEST(Planner, NonExactPrototileFailsGracefully) {
  // The F-pentomino admits no translate tiling: the tiling backend must
  // report the failure instead of throwing out of plan().
  const Prototile f(PointVec{{0, 0}, {1, 0}, {-1, 1}, {0, 1}, {0, 2}}, "F");
  const Deployment d = Deployment::grid(Box::cube(2, 0, 3), f);
  PlanRequest request;
  request.deployment = &d;
  request.search.max_period_cells = 40;
  const PlanResult r =
      PlannerRegistry::global().find("tiling")->plan(request);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  // The baselines still schedule it.
  const PlanResult ds =
      PlannerRegistry::global().find("dsatur")->plan(request);
  ASSERT_TRUE(ds.ok) << ds.error;
  EXPECT_TRUE(ds.collision_free);
}

TEST(Planner, PlanAllPreservesRequestOrder) {
  PlanRequest request;
  request.deployment = &small_grid();
  request.sa.max_iters = 5'000;
  const std::vector<std::string> order = {"tdma", "tiling", "dsatur"};
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_parallel_threads(threads);
    const auto results = PlannerRegistry::global().plan_all(request, order);
    ASSERT_EQ(results.size(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(results[i].backend, order[i]) << threads << " threads";
      EXPECT_TRUE(results[i].ok) << results[i].error;
    }
  }
  set_parallel_threads(0);
}

TEST(Planner, PlanAllRejectsUnknownBackendAndNullDeployment) {
  PlanRequest request;
  request.deployment = &small_grid();
  EXPECT_THROW(PlannerRegistry::global().plan_all(request, {"nope"}),
               std::invalid_argument);
  PlanRequest empty;
  EXPECT_THROW(PlannerRegistry::global().plan_all(empty),
               std::invalid_argument);
  EXPECT_THROW(PlannerRegistry::global().find("tiling")->plan(empty),
               std::invalid_argument);
}

TEST(Planner, SharedConflictGraphMatchesPerBackendBuild) {
  PlanRequest request;
  request.deployment = &small_grid();
  request.sa.max_iters = 5'000;
  // plan_all prebuilds the graph; a lone plan() builds its own.  The
  // coloring outcome must not depend on which path supplied the graph.
  const auto all =
      PlannerRegistry::global().plan_all(request, {"greedy", "dsatur"});
  const PlanResult lone_greedy =
      PlannerRegistry::global().find("greedy")->plan(request);
  ASSERT_TRUE(all[0].ok);
  ASSERT_TRUE(lone_greedy.ok);
  EXPECT_EQ(all[0].slots.slot, lone_greedy.slots.slot);
  EXPECT_EQ(all[0].slots.period, lone_greedy.slots.period);
}

TEST(Planner, GreedyRowsNameTheirSourceAndSlotCount) {
  // One engine serves both names; each keeps its own row text.
  const Deployment d =
      Deployment::grid(Box::cube(2, 0, 5), shapes::chebyshev_ball(2, 1));
  PlanRequest request;
  request.deployment = &d;
  const std::vector<PlanResult> results =
      PlannerRegistry::global().plan_all(request, {"greedy", "region-greedy"});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].slots.source, "coloring-greedy");
  EXPECT_EQ(results[0].detail, "conflict-graph coloring (greedy), 9 slots");
  EXPECT_EQ(results[1].slots.source, "region-greedy");
  EXPECT_EQ(results[1].detail, "region-sharded greedy (1 region(s), 9 slots)");
  EXPECT_EQ(results[0].slots.slot, results[1].slots.slot);
}

TEST(Planner, ParseBackendList) {
  EXPECT_TRUE(parse_backend_list("").empty());
  EXPECT_TRUE(parse_backend_list("all").empty());
  const auto two = parse_backend_list("tiling,tdma");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], "tiling");
  EXPECT_EQ(two[1], "tdma");
}

TEST(Planner, ChannelsFoldEveryBackend) {
  PlanRequest request;
  request.deployment = &small_grid();
  request.channels = 2;
  request.sa.max_iters = 5'000;
  const auto results = PlannerRegistry::global().plan_all(
      request, {"tiling", "dsatur", "tdma"});
  for (const PlanResult& r : results) {
    ASSERT_TRUE(r.ok) << r.backend << ": " << r.error;
    ASSERT_TRUE(r.channel_slots.has_value()) << r.backend;
    EXPECT_EQ(r.channel_slots->channels, 2u);
    EXPECT_EQ(r.channel_slots->period, (r.slots.period + 1) / 2);
    EXPECT_EQ(r.effective_period(), r.channel_slots->period);
    // The verdict covers the folded (slot, channel) schedule.
    EXPECT_TRUE(r.collision_free) << r.backend;
    // Folding preserves the base slot partition: same (slot, channel)
    // pair implies same original slot.
    for (std::size_t i = 0; i < r.slots.slot.size(); ++i) {
      const SlotChannel& a = r.channel_slots->assignment[i];
      EXPECT_EQ(a.slot, r.slots.slot[i] / 2);
      EXPECT_EQ(a.channel, r.slots.slot[i] % 2);
    }
    EXPECT_NEAR(r.duty_cycle, 1.0 / r.effective_period(), 1e-12);
  }
  // The 9-slot tiling schedule on 2 channels: period 5, gap vs
  // ceil(9/2) = 5 is exactly 1 (pigeonhole-optimal).
  EXPECT_EQ(results[0].effective_period(), 5u);
  EXPECT_DOUBLE_EQ(results[0].optimality_gap, 1.0);

  request.channels = 0;
  EXPECT_THROW(PlannerRegistry::global().find("tdma")->plan(request),
               std::invalid_argument);
}

TEST(Planner, MobileBackendOwnsTheLocationScheduler) {
  PlanRequest request;
  request.deployment = &small_grid();
  const PlanResult r =
      PlannerRegistry::global().find("mobile")->plan(request);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.collision_free);
  EXPECT_EQ(r.slots.period, 9u);
  ASSERT_NE(r.mobile, nullptr);
  EXPECT_EQ(r.mobile->period(), 9u);
  ASSERT_TRUE(r.tiling.has_value());
  // The location rule is consistent with the lattice schedule it wraps.
  EXPECT_LT(r.mobile->slot_of_location({0.1, -0.2}), 9u);
}

TEST(Planner, MobileBackendIsTwoDimensionalOnly) {
  const Deployment cube =
      Deployment::grid(Box::cube(3, 0, 3), shapes::chebyshev_ball(3, 1));
  PlanRequest request;
  request.deployment = &cube;
  const Planner* mobile = PlannerRegistry::global().find("mobile");
  ASSERT_NE(mobile, nullptr);
  EXPECT_FALSE(mobile->supports(request));
  // Explicitly named: runs and fails gracefully.
  const PlanResult r = mobile->plan(request);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  // Default "all" selection sits the mobile backend out.
  const auto results = PlannerRegistry::global().plan_all(request);
  for (const PlanResult& res : results) {
    EXPECT_NE(res.backend, "mobile");
    EXPECT_TRUE(res.ok) << res.backend << ": " << res.error;
  }
}

TEST(Planner, TilingCacheServesRepeatPlans) {
  TilingCache cache;
  PlanRequest request;
  request.deployment = &small_grid();
  request.tiling_cache = &cache;
  const PlanResult first =
      PlannerRegistry::global().find("tiling")->plan(request);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(cache.stats().misses, 1u);
  const PlanResult second =
      PlannerRegistry::global().find("tiling")->plan(request);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(first.slots.slot, second.slots.slot);
  // The mobile backend shares the same cache key (same prototiles, same
  // budget): a third plan is another hit.
  const PlanResult third =
      PlannerRegistry::global().find("mobile")->plan(request);
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Planner, ReportEmitters) {
  PlanRequest request;
  request.deployment = &small_grid();
  const auto results =
      PlannerRegistry::global().plan_all(request, {"tiling", "tdma"});
  const std::string csv = plan_results_to_csv(results, "unit");
  EXPECT_NE(csv.find("scenario,step,backend"), std::string::npos);
  EXPECT_NE(csv.find("unit,0,tiling"), std::string::npos);
  EXPECT_NE(csv.find("unit,0,tdma"), std::string::npos);
  const std::string json = plan_results_to_json(results, "unit");
  EXPECT_NE(json.find("\"backend\": \"tiling\""), std::string::npos);
  EXPECT_NE(json.find("\"collision_free\": true"), std::string::npos);
}

}  // namespace
}  // namespace latticesched
