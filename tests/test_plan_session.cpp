// PlanSession tests: the incremental session API.  The load-bearing
// pin is delta/cold EQUIVALENCE — replan() after any delta sequence
// must produce results identical (slots, verdict, optimality gap,
// detail text) to a cold Planner::plan of the final deployment, for
// every backend and every dynamic scenario — plus the incremental-reuse
// accounting (one graph build per delta that needs one, warm greedy
// recoloring) and the >= 5x incremental-vs-cold wall-clock pin on
// small-delta steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "core/plan_session.hpp"
#include "core/scenario.hpp"
#include "tiling/shapes.hpp"
#include "tune/knob_space.hpp"
#include "tune/tune_cache.hpp"
#include "tune/tuner.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace latticesched {
namespace {

using Clock = std::chrono::steady_clock;

void expect_equivalent(const PlanResult& warm, const PlanResult& cold) {
  EXPECT_EQ(warm.backend, cold.backend);
  EXPECT_EQ(warm.ok, cold.ok) << warm.backend << ": " << warm.error << " / "
                              << cold.error;
  EXPECT_EQ(warm.error, cold.error) << warm.backend;
  EXPECT_EQ(warm.detail, cold.detail) << warm.backend;
  EXPECT_EQ(warm.slots.slot, cold.slots.slot) << warm.backend;
  EXPECT_EQ(warm.slots.period, cold.slots.period) << warm.backend;
  EXPECT_EQ(warm.collision_free, cold.collision_free) << warm.backend;
  EXPECT_EQ(warm.verified, cold.verified) << warm.backend;
  EXPECT_EQ(warm.optimality_gap, cold.optimality_gap) << warm.backend;
  EXPECT_EQ(warm.channels, cold.channels) << warm.backend;
  EXPECT_EQ(warm.effective_period(), cold.effective_period())
      << warm.backend;
}

/// Cold plan of the session's CURRENT deployment: a fresh plan_all
/// (fresh scoped cache, fresh conflict graph, no warm state).
std::vector<PlanResult> cold_plan(const PlanSession& session,
                                  const std::vector<std::string>& backends,
                                  const Lattice* lattice = nullptr,
                                  bool verify = true) {
  PlanRequest request;
  request.deployment = &session.deployment();
  request.tiling = session.tiling();
  request.channels = session.channels();
  request.lattice = lattice;
  request.verify = verify;
  return PlannerRegistry::global().plan_all(request, backends);
}

void expect_all_equivalent(std::vector<PlanResult> warm,
                           std::vector<PlanResult> cold) {
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    expect_equivalent(warm[i], cold[i]);
  }
}

Deployment grid_deployment(std::int64_t n, std::int64_t r = 1) {
  return Deployment::grid(Box::cube(2, 0, n - 1),
                          shapes::chebyshev_ball(2, r));
}

TEST(PlanSession, SingleStepSessionMatchesPlanAll) {
  const Deployment d = grid_deployment(6);
  SessionConfig config;
  PlanSession session(grid_deployment(6), config);
  const std::vector<PlanResult> via_session = session.replan();

  PlanRequest request;
  request.deployment = &d;
  const std::vector<PlanResult> via_plan_all =
      PlannerRegistry::global().plan_all(request);
  expect_all_equivalent(via_session, via_plan_all);
  EXPECT_EQ(session.stats().replans, 1u);
  EXPECT_EQ(session.stats().deltas, 0u);
}

TEST(PlanSession, RemovalsReplanEqualsColdAndRebuildsTheGraph) {
  SessionConfig config;
  config.backends = {"tiling", "greedy", "dsatur", "tdma"};
  PlanSession session(grid_deployment(8), config);
  (void)session.replan();

  DeploymentDelta delta;
  delta.remove_sensors = {Point{0, 0}, Point{3, 4}, Point{7, 7}};
  session.apply(delta);
  EXPECT_EQ(session.deployment().size(), 61u);

  expect_all_equivalent(session.replan(),
                        cold_plan(session, config.backends));
  EXPECT_EQ(session.stats().graph_builds, 2u);
  EXPECT_EQ(session.stats().graph_patches, 0u);
  EXPECT_EQ(session.stats().warm_greedy, 1u);

  // No delta since the last replan: its graph is reused.
  (void)session.replan();
  EXPECT_EQ(session.stats().graph_builds, 2u);
}

TEST(PlanSession, AddMoveRadiusChannelsEqualCold) {
  SessionConfig config;
  config.backends = {"tiling", "greedy", "welsh-powell", "tdma"};
  PlanSession session(grid_deployment(6), config);
  (void)session.replan();

  // Adds (off the grid edge), a move, and a channel change.
  DeploymentDelta delta;
  delta.add_sensors.push_back(
      DeploymentDelta::SensorAdd{Point{6, 2}, std::nullopt});
  delta.add_sensors.push_back(
      DeploymentDelta::SensorAdd{Point{7, 2}, std::nullopt});
  delta.move_sensors.push_back(
      DeploymentDelta::SensorMove{Point{0, 0}, Point{6, 0}});
  delta.set_channels = 2;
  session.apply(delta);
  EXPECT_EQ(session.deployment().size(), 38u);
  EXPECT_EQ(session.channels(), 2u);
  expect_all_equivalent(session.replan(),
                        cold_plan(session, config.backends));

  // Fleet-wide radius change: new prototile geometry — the tiling
  // backend re-searches (new cache key), coloring re-runs on the
  // reshaped graph; still cold-identical.
  DeploymentDelta reshape;
  DeploymentDelta::RadiusChange rc;
  rc.radius = 2;
  reshape.set_radius.push_back(rc);
  session.apply(reshape);
  ASSERT_EQ(session.deployment().prototiles().size(), 1u);
  EXPECT_EQ(session.deployment().prototiles()[0].size(), 25u);
  expect_all_equivalent(session.replan(),
                        cold_plan(session, config.backends));
}

TEST(PlanSession, SubsetRadiusChangeCreatesSecondPrototileType) {
  SessionConfig config;
  config.backends = {"greedy", "tdma"};
  PlanSession session(grid_deployment(5), config);
  (void)session.replan();

  DeploymentDelta delta;
  DeploymentDelta::RadiusChange rc;
  rc.sensors = {Point{2, 2}};
  rc.radius = 2;
  delta.set_radius.push_back(rc);
  session.apply(delta);
  EXPECT_EQ(session.deployment().prototiles().size(), 2u);
  expect_all_equivalent(session.replan(),
                        cold_plan(session, config.backends));

  // Restoring the radius dedupes back onto the original prototile.
  DeploymentDelta restore;
  DeploymentDelta::RadiusChange back;
  back.sensors = {Point{2, 2}};
  back.radius = 1;
  restore.set_radius.push_back(back);
  session.apply(restore);
  EXPECT_EQ(session.deployment().prototiles().size(), 1u);
  expect_all_equivalent(session.replan(),
                        cold_plan(session, config.backends));
}

TEST(PlanSession, ScenarioTilingIsDroppedByTheFirstDelta) {
  ScenarioInstance instance = ScenarioRegistry::global().build("figure5");
  SessionConfig config;
  config.backends = {"tiling"};
  config.tiling = &*instance.tiling;
  PlanSession session(std::move(instance.deployment), config);
  EXPECT_NE(session.tiling(), nullptr);
  (void)session.replan();

  DeploymentDelta delta;
  delta.remove_sensors = {session.deployment().position(0)};
  session.apply(delta);
  EXPECT_EQ(session.tiling(), nullptr);
  expect_all_equivalent(session.replan(),
                        cold_plan(session, config.backends));
}

TEST(PlanSession, InvalidDeltasThrowAndLeaveTheSessionUntouched) {
  SessionConfig config;
  config.backends = {"greedy"};
  PlanSession session(grid_deployment(4), config);
  (void)session.replan();
  const std::size_t before = session.deployment().size();

  DeploymentDelta missing;
  missing.remove_sensors = {Point{99, 99}};
  EXPECT_THROW(session.apply(missing), std::invalid_argument);

  DeploymentDelta collide;
  collide.move_sensors.push_back(
      DeploymentDelta::SensorMove{Point{0, 0}, Point{1, 1}});
  EXPECT_THROW(session.apply(collide), std::invalid_argument);

  DeploymentDelta dup_add;
  dup_add.add_sensors.push_back(
      DeploymentDelta::SensorAdd{Point{2, 2}, std::nullopt});
  EXPECT_THROW(session.apply(dup_add), std::invalid_argument);

  DeploymentDelta zero_channels;
  zero_channels.set_channels = 0;
  EXPECT_THROW(session.apply(zero_channels), std::invalid_argument);

  DeploymentDelta moved_and_removed;
  moved_and_removed.remove_sensors = {Point{0, 0}};
  moved_and_removed.move_sensors.push_back(
      DeploymentDelta::SensorMove{Point{0, 0}, Point{9, 9}});
  EXPECT_THROW(session.apply(moved_and_removed), std::invalid_argument);

  EXPECT_EQ(session.deployment().size(), before);
  EXPECT_EQ(session.steps_applied(), 0u);
  expect_all_equivalent(session.replan(),
                        cold_plan(session, config.backends));
}

TEST(PlanSession, LargeDeltaFallsBackToFullRebuildAndStaysExact) {
  SessionConfig config;
  config.backends = {"greedy", "dsatur"};
  PlanSession session(grid_deployment(6), config);
  (void)session.replan();

  // Move half the fleet: far past the warm-repair threshold.
  DeploymentDelta delta;
  for (std::int64_t x = 0; x < 6; ++x) {
    for (std::int64_t y = 0; y < 3; ++y) {
      delta.move_sensors.push_back(
          DeploymentDelta::SensorMove{Point{x, y}, Point{x + 10, y}});
    }
  }
  session.apply(delta);
  expect_all_equivalent(session.replan(),
                        cold_plan(session, config.backends));
  EXPECT_EQ(session.stats().graph_patches, 0u);
  EXPECT_EQ(session.stats().graph_builds, 2u);
  EXPECT_EQ(session.stats().warm_greedy, 0u);
}

TEST(PlanSession, WarmGreedyStaysExactOverLongDeltaChains) {
  SessionConfig config;
  config.backends = {"greedy"};
  PlanSession session(grid_deployment(7), config);
  (void)session.replan();

  Rng rng(7);
  for (int step = 0; step < 8; ++step) {
    DeploymentDelta delta;
    const std::size_t n = session.deployment().size();
    // A couple of removals and one re-add per step.
    delta.remove_sensors.push_back(session.deployment().position(
        static_cast<std::size_t>(rng.next_below(n))));
    const Point spare{static_cast<std::int64_t>(20 + step), 0};
    delta.add_sensors.push_back(
        DeploymentDelta::SensorAdd{spare, std::nullopt});
    session.apply(delta);
    expect_all_equivalent(session.replan(),
                          cold_plan(session, config.backends));
  }
  EXPECT_EQ(session.stats().graph_builds, 0u);
  EXPECT_EQ(session.stats().graph_patches, 0u);
  EXPECT_EQ(session.stats().warm_greedy, 8u);
}

// `auto` hands its delegate its request.  With a tune-cache winner
// naming `region-greedy`, a replan of {auto, region-greedy} runs two
// greedy plans in one fan-out over one shared request; no backend writes
// a counter, so the session's stats do not depend on the pool width (and
// the TSan job sees no shared write).
TEST(PlanSession, RegionCountsOfAutoAndRegionGreedyDoNotDependOnThreads) {
  // Winners for the grid before and after the delta below.
  PointVec cells = Box::cube(2, 0, 5).points();
  const Deployment before =
      Deployment::uniform(cells, shapes::chebyshev_ball(2, 1));
  cells.erase(std::find(cells.begin(), cells.end(), Point{1, 1}));
  const Deployment after =
      Deployment::uniform(cells, shapes::chebyshev_ball(2, 1));
  tune::TuneCache cache;
  for (const Deployment* d : {&before, &after}) {
    PlanRequest probe;
    probe.deployment = d;
    probe.tune_family = "grid";
    cache.record_winner(tune::fingerprint_of(probe),
                        tune::default_config("region-greedy"));
  }
  const auto stats_at = [&](std::size_t threads) {
    set_parallel_threads(threads);
    SessionConfig config;
    config.backends = {"auto", "region-greedy"};
    config.tune_cache = &cache;
    config.tune_family = "grid";
    PlanSession session(grid_deployment(6), config);
    std::vector<PlanResult> results = session.replan();
    DeploymentDelta delta;
    delta.remove_sensors = {Point{1, 1}};
    session.apply(delta);
    for (const PlanResult& r : session.replan()) results.push_back(r);
    set_parallel_threads(0);
    for (const PlanResult& r : results) {
      EXPECT_TRUE(r.ok) << r.backend << ": " << r.error;
      if (r.backend == "auto") EXPECT_EQ(r.tuned, "cache-hit");
    }
    return session.stats();
  };
  const PlanSession::Stats serial = stats_at(1);
  EXPECT_EQ(serial.replans, 2u);
  EXPECT_EQ(serial.warm_greedy, 1u);
  EXPECT_GT(serial.stitch_recolored, 0u);
  for (int round = 0; round < 4; ++round) {
    const PlanSession::Stats wide = stats_at(4);
    EXPECT_EQ(wide.replans, serial.replans);
    EXPECT_EQ(wide.deltas, serial.deltas);
    EXPECT_EQ(wide.graph_builds, serial.graph_builds);
    EXPECT_EQ(wide.warm_greedy, serial.warm_greedy);
    EXPECT_EQ(wide.stitch_recolored, serial.stitch_recolored);
  }
}

// The acceptance property: random delta sequences on random scenarios,
// every backend, replan() == cold plan of the final deployment.
TEST(PlanSession, PropertyRandomDeltaSequencesEqualColdForEveryBackend) {
  set_parallel_threads(1);
  const std::vector<std::string> backends = {
      "tiling", "greedy", "welsh-powell", "dsatur", "annealing",
      "region-greedy", "tdma", "mobile"};
  for (const char* scenario : {"grid", "mobile", "random-subset"}) {
    ScenarioParams params;
    params.n = 5;
    params.seed = 11;
    ScenarioInstance instance =
        ScenarioRegistry::global().build(scenario, params);
    SessionConfig config;
    config.backends = backends;
    if (instance.lattice.has_value()) config.lattice = &*instance.lattice;
    if (instance.tiling.has_value()) config.tiling = &*instance.tiling;
    PlanSession session(std::move(instance.deployment), config);
    expect_all_equivalent(session.replan(),
                          cold_plan(session, backends, config.lattice));

    Rng rng(std::hash<std::string>{}(scenario) & 0xffff);
    for (int step = 0; step < 3; ++step) {
      DeploymentDelta delta;
      const Deployment& d = session.deployment();
      // 1-2 removals, an add on a free cell, sometimes a move or a
      // radius change.
      const std::size_t removals = 1 + rng.next_below(2);
      for (std::size_t k = 0; k < removals && d.size() > k + 2; ++k) {
        const Point victim =
            d.position(static_cast<std::size_t>(rng.next_below(d.size())));
        bool duplicate = false;
        for (const Point& p : delta.remove_sensors) {
          if (p == victim) duplicate = true;
        }
        if (!duplicate) delta.remove_sensors.push_back(victim);
      }
      delta.add_sensors.push_back(DeploymentDelta::SensorAdd{
          Point{static_cast<std::int64_t>(30 + step),
                static_cast<std::int64_t>(rng.next_below(5))},
          std::nullopt});
      if (rng.next_below(2) == 0) {
        DeploymentDelta::RadiusChange rc;
        rc.radius = 1 + static_cast<std::int64_t>(rng.next_below(2));
        delta.set_radius.push_back(rc);
      }
      if (rng.next_below(2) == 0) delta.set_channels = 1 + rng.next_below(3);
      session.apply(delta);
      expect_all_equivalent(session.replan(),
                            cold_plan(session, backends, config.lattice));
    }
  }
  set_parallel_threads(0);
}

// Every dynamic scenario in the registry: replaying its trace through a
// session matches cold plans at every step (the other half of the
// acceptance criterion; PlanService runs exactly this loop).
TEST(PlanSession, DynamicScenarioTracesEqualColdAtEveryStep) {
  set_parallel_threads(1);
  const std::vector<std::string> backends = {"tiling", "greedy", "dsatur",
                                             "region-greedy", "tdma"};
  for (const char* name : {"grid-failures", "mobile-churn",
                           "radius-degradation", "staged-rollout"}) {
    ScenarioParams params;
    params.n = 6;
    ScenarioInstance instance =
        ScenarioRegistry::global().build(name, params);
    ASSERT_FALSE(instance.trace.empty()) << name;
    SessionConfig config;
    config.backends = backends;
    PlanSession session(std::move(instance.deployment), config);
    expect_all_equivalent(session.replan(), cold_plan(session, backends));
    for (const MutationStep& step : instance.trace.steps) {
      session.apply(step.delta);
      expect_all_equivalent(session.replan(), cold_plan(session, backends));
    }
  }
  set_parallel_threads(0);
}

TEST(PlanSession, IncrementalReplanAtLeast5xFasterThanColdOnSmallDeltas) {
  // The bench_session acceptance bar, pinned in-tree: warm grid
  // session, one-sensor deltas, incremental replan vs a cold plan of
  // the same deployment.  Verification off so the measured work is
  // what the session can and cannot reuse (the collision checker is
  // delta-independent and identical on both sides).
  set_parallel_threads(1);
  SessionConfig config;
  config.backends = {"tiling", "greedy"};
  config.verify = false;
  PlanSession session(grid_deployment(12, 2), config);
  (void)session.replan();  // warm the session (search + graph + colors)

  double incremental = 1e300, cold = 1e300;
  for (int step = 0; step < 3; ++step) {
    DeploymentDelta delta;
    delta.remove_sensors = {session.deployment().position(
        static_cast<std::size_t>(17 + 5 * step))};
    session.apply(delta);
    const Clock::time_point t0 = Clock::now();
    (void)session.replan();
    incremental = std::min(
        incremental,
        std::chrono::duration<double>(Clock::now() - t0).count());

    const Clock::time_point t1 = Clock::now();
    (void)cold_plan(session, config.backends, nullptr, /*verify=*/false);
    cold = std::min(
        cold, std::chrono::duration<double>(Clock::now() - t1).count());
  }
  EXPECT_GE(cold / incremental, 5.0)
      << "cold " << cold * 1e3 << "ms vs incremental " << incremental * 1e3
      << "ms";
  set_parallel_threads(0);
}

// ---------------------------------------------------------------------------
// Mutation scripts
// ---------------------------------------------------------------------------

TEST(MutationScript, ParsesEveryDirectiveAndRoundTrips) {
  const std::string script =
      "# churn script\n"
      "dim 2\n"
      "step\n"
      "remove 0 0\n"
      "move 1 1 9 9\n"
      "add 5 5\n"
      "add 6 6 r 2\n"
      "step 4\n"
      "radius 2\n"
      "radius 1 at 3 3 4 4\n"
      "channels 2\n";
  const MutationTrace trace = parse_mutation_script(script);
  ASSERT_EQ(trace.steps.size(), 2u);
  EXPECT_EQ(trace.steps[0].at, 1u);
  EXPECT_EQ(trace.steps[1].at, 4u);
  EXPECT_EQ(trace.steps[0].delta.remove_sensors,
            (PointVec{Point{0, 0}}));
  ASSERT_EQ(trace.steps[0].delta.move_sensors.size(), 1u);
  EXPECT_EQ(trace.steps[0].delta.move_sensors[0].to, (Point{9, 9}));
  ASSERT_EQ(trace.steps[0].delta.add_sensors.size(), 2u);
  ASSERT_TRUE(trace.steps[0].delta.add_sensors[1].neighborhood.has_value());
  EXPECT_EQ(trace.steps[0].delta.add_sensors[1].neighborhood->size(), 25u);
  ASSERT_EQ(trace.steps[1].delta.set_radius.size(), 2u);
  EXPECT_TRUE(trace.steps[1].delta.set_radius[0].sensors.empty());
  EXPECT_EQ(trace.steps[1].delta.set_radius[1].sensors.size(), 2u);
  EXPECT_EQ(trace.steps[1].delta.set_channels, 2u);

  // Emit -> parse is the identity on the structured form.
  const std::string emitted = mutation_trace_to_script(trace);
  const MutationTrace reparsed = parse_mutation_script(emitted);
  ASSERT_EQ(reparsed.steps.size(), trace.steps.size());
  for (std::size_t s = 0; s < trace.steps.size(); ++s) {
    EXPECT_EQ(reparsed.steps[s].at, trace.steps[s].at);
    EXPECT_EQ(reparsed.steps[s].delta.remove_sensors,
              trace.steps[s].delta.remove_sensors);
    EXPECT_EQ(reparsed.steps[s].delta.add_sensors.size(),
              trace.steps[s].delta.add_sensors.size());
    EXPECT_EQ(reparsed.steps[s].delta.set_radius.size(),
              trace.steps[s].delta.set_radius.size());
    EXPECT_EQ(reparsed.steps[s].delta.set_channels,
              trace.steps[s].delta.set_channels);
  }
}

TEST(MutationScript, RejectsMalformedInput) {
  EXPECT_THROW(parse_mutation_script("add 1 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_mutation_script("step\nfrobnicate 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_mutation_script("step\nadd 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_mutation_script("step\nadd 1 x\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_mutation_script("step 3\nstep 2\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_mutation_script("step\nchannels 0\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_mutation_script("step\nradius -1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_mutation_script("step\ndim 3\n"),
               std::invalid_argument);
  // Strict numbers: no sign on a step, no wrap past uint32_t channels.
  for (const char* script :
       {"step -5\n", "step 1\nstep -1\n", "step\nchannels 4294967296\n",
        "step\nchannels 4294967297\n"}) {
    EXPECT_THROW(parse_mutation_script(script), std::invalid_argument)
        << script;
  }
  // Line numbers surface in the error.
  try {
    parse_mutation_script("step\nadd 1 1\nbogus\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(MutationScript, ScriptDrivenSessionEqualsColdPlans) {
  const MutationTrace trace = parse_mutation_script(
      "step\nremove 0 0\nremove 1 1\nstep\nadd 8 8\nmove 2 2 9 9\n"
      "step\nradius 2\n");
  SessionConfig config;
  config.backends = {"tiling", "greedy", "tdma"};
  PlanSession session(grid_deployment(6), config);
  (void)session.replan();
  for (const MutationStep& step : trace.steps) {
    session.apply(step.delta);
    expect_all_equivalent(session.replan(),
                          cold_plan(session, config.backends));
  }
}

}  // namespace
}  // namespace latticesched
