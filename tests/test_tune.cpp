// Auto-tuning subsystem tests: the knob-space currency (TunedConfig
// round-trips), seeded tuner determinism, the `auto` backend's
// delegate-equivalence property, TuneCache persistence (warm hits,
// corrupt-entry eviction) and the acceptance pins — a warm full-registry
// `auto` sweep runs ZERO tuning searches, and a distributed warm `auto`
// sweep serializes byte-identically to the serial one.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/plan_service.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "dist/coordinator.hpp"
#include "test_helpers.hpp"
#include "tiling/shapes.hpp"
#include "tune/auto_planner.hpp"
#include "tune/knob_space.hpp"
#include "tune/tune_cache.hpp"
#include "tune/tuner.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace latticesched {
namespace {

using test_helpers::TempDir;
using tune::Fingerprint;
using tune::KnobSpace;
using tune::TuneCache;
using tune::TunedConfig;
using tune::Tuner;
using tune::TuneOptions;

Deployment grid_deployment(std::int64_t n, std::int64_t r) {
  return Deployment::grid(Box::cube(2, 0, n - 1),
                          shapes::chebyshev_ball(2, r));
}

// ---- knob space -----------------------------------------------------------

TEST(KnobSpaceTest, RegistryCoversTunableBackends) {
  const KnobSpace& space = KnobSpace::global();
  EXPECT_FALSE(space.knobs_for("tiling").empty());
  EXPECT_FALSE(space.knobs_for("annealing").empty());
  EXPECT_TRUE(space.knobs_for("region-greedy").empty());
  EXPECT_TRUE(space.knobs_for("").empty());  // every knob has a backend
  EXPECT_TRUE(space.knobs_for("tdma").empty());
  EXPECT_TRUE(space.knobs_for("greedy").empty());

  const tune::KnobSpec* node_limit = space.find("tiling", "node_limit");
  ASSERT_NE(node_limit, nullptr);
  EXPECT_GT(node_limit->max, node_limit->min);
  EXPECT_GE(node_limit->def, node_limit->min);
  EXPECT_LE(node_limit->def, node_limit->max);
  EXPECT_EQ(space.find("tiling", "no_such_knob"), nullptr);
}

TEST(KnobSpaceTest, TunedConfigSerializeParseRoundTrip) {
  for (const std::string backend :
       {"tiling", "annealing", "region-greedy", "mobile"}) {
    const TunedConfig config = tune::default_config(backend);
    const std::string text = config.serialize();
    // Token-safe: embeds in whitespace-tokenized cache entries and
    // unquoted CSV cells.
    EXPECT_EQ(text.find(' '), std::string::npos) << text;
    EXPECT_EQ(text.find(','), std::string::npos) << text;
    const auto parsed = TunedConfig::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(*parsed, config) << text;
  }

  // Values survive exactly, including non-integral ones.
  TunedConfig config = tune::default_config("annealing");
  config.set("sa_initial_temperature", 3.75);
  config.set("sa_max_iters", 50'000.0);
  const auto parsed = TunedConfig::parse(config.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->get("sa_initial_temperature", 0.0), 3.75);
  EXPECT_DOUBLE_EQ(parsed->get("sa_max_iters", 0.0), 50'000.0);
  EXPECT_EQ(*parsed, config);
}

TEST(KnobSpaceTest, MalformedConfigTextParsesToNullopt) {
  EXPECT_FALSE(TunedConfig::parse("").has_value());
  EXPECT_FALSE(TunedConfig::parse("node_limit=5").has_value());  // no backend
  EXPECT_FALSE(TunedConfig::parse("backend=tiling;node_limit").has_value());
  EXPECT_FALSE(
      TunedConfig::parse("backend=tiling;node_limit=xyz").has_value());
}

TEST(KnobSpaceTest, NeighborsStayInRangeAndDifferFromOrigin) {
  const KnobSpace& space = KnobSpace::global();
  for (const std::string backend : {"tiling", "annealing", "mobile"}) {
    const TunedConfig origin = tune::default_config(backend);
    const std::vector<TunedConfig> moved = tune::neighbors(origin);
    EXPECT_FALSE(moved.empty()) << backend;
    for (const TunedConfig& c : moved) {
      EXPECT_NE(c, origin) << backend;
      for (const auto& [name, value] : c.values) {
        const tune::KnobSpec* spec = space.find(backend, name);
        ASSERT_NE(spec, nullptr) << backend << "." << name;
        EXPECT_GE(value, spec->min) << backend << "." << name;
        EXPECT_LE(value, spec->max) << backend << "." << name;
      }
    }
  }
}

TEST(KnobSpaceTest, RandomConfigsSeededAndInRange) {
  const KnobSpace& space = KnobSpace::global();
  Rng a(7), b(7);
  for (int i = 0; i < 16; ++i) {
    const TunedConfig ca = tune::random_config("tiling", a);
    const TunedConfig cb = tune::random_config("tiling", b);
    EXPECT_EQ(ca, cb) << "same seed, same stream";
    for (const auto& [name, value] : ca.values) {
      const tune::KnobSpec* spec = space.find("tiling", name);
      ASSERT_NE(spec, nullptr);
      EXPECT_GE(value, spec->min);
      EXPECT_LE(value, spec->max);
    }
  }
}

// ---- tuner ----------------------------------------------------------------

TEST(TunerTest, SeededSearchIsDeterministic) {
  const Deployment d = grid_deployment(6, 1);
  PlanRequest request;
  request.deployment = &d;
  request.verify = false;
  request.sa.max_iters = 5'000;

  TuneOptions options;
  options.trials = 6;

  // Fresh caches on both sides: the cost model prunes from recorded
  // observations, so a shared cache would make run 2 see run 1's data.
  TuneCache cache_a, cache_b;
  const tune::TuneOutcome a =
      Tuner(&PlannerRegistry::global(), &cache_a).search(request, options);
  const tune::TuneOutcome b =
      Tuner(&PlannerRegistry::global(), &cache_b).search(request, options);

  EXPECT_EQ(a.best.serialize(), b.best.serialize());
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].config.serialize(), b.trials[i].config.serialize());
    EXPECT_EQ(a.trials[i].ok, b.trials[i].ok);
    EXPECT_EQ(a.trials[i].effective_period, b.trials[i].effective_period);
    EXPECT_DOUBLE_EQ(a.trials[i].work, b.trials[i].work);
  }
  EXPECT_EQ(cache_a.stats().searches, 1u);
  EXPECT_EQ(cache_a.stats().trials, a.trials.size());
}

TEST(TunerTest, BestNeverLosesToTheDefault) {
  const Deployment d = grid_deployment(6, 1);
  PlanRequest request;
  request.deployment = &d;
  request.verify = false;
  request.sa.max_iters = 5'000;

  TuneCache cache;
  TuneOptions options;
  options.trials = 8;
  const tune::TuneOutcome outcome =
      Tuner(&PlannerRegistry::global(), &cache).search(request, options);
  ASSERT_FALSE(outcome.trials.empty());
  // Trial 0 is THE default (first default-set backend at its defaults).
  const tune::TrialOutcome& def = outcome.trials.front();
  ASSERT_TRUE(def.ok);
  const tune::TrialOutcome* best = nullptr;
  for (const tune::TrialOutcome& t : outcome.trials) {
    if (t.config == outcome.best) best = &t;
  }
  ASSERT_NE(best, nullptr) << "best config must have been measured";
  EXPECT_TRUE(best->ok);
  EXPECT_LE(best->effective_period, def.effective_period);
}

// ---- auto backend ---------------------------------------------------------

TEST(AutoBackend, ProducesValidPlanEquivalentToItsDelegate) {
  const Deployment d = grid_deployment(6, 1);
  TuneCache cache;
  PlanRequest request;
  request.deployment = &d;
  request.tune_cache = &cache;
  request.tune_trials = 4;

  const Planner* auto_planner = PlannerRegistry::global().find("auto");
  ASSERT_NE(auto_planner, nullptr);
  EXPECT_FALSE(auto_planner->in_default_set());

  const PlanResult result = auto_planner->plan(request);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.backend, "auto");
  EXPECT_TRUE(result.collision_free);
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.tuned, "searched");
  EXPECT_GE(result.optimality_gap, 1.0);

  // The stamped config replays: running the delegate explicitly with the
  // same knobs produces the identical slot table.
  const auto config = TunedConfig::parse(result.tuned_config);
  ASSERT_TRUE(config.has_value()) << result.tuned_config;
  const Planner* delegate = PlannerRegistry::global().find(config->backend);
  ASSERT_NE(delegate, nullptr) << config->backend;
  PlanRequest replay;
  replay.deployment = &d;
  tune::apply_config(*config, &replay);
  const PlanResult direct = delegate->plan(replay);
  ASSERT_TRUE(direct.ok) << direct.error;
  EXPECT_EQ(result.slots.period, direct.slots.period);
  EXPECT_EQ(result.slots.slot, direct.slots.slot);

  // Second plan against the same cache: warm hit, same config, no search.
  const std::uint64_t searches_before = cache.stats().searches;
  const PlanResult warm = auto_planner->plan(request);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.tuned, "cache-hit");
  EXPECT_EQ(warm.tuned_config, result.tuned_config);
  EXPECT_EQ(warm.slots.slot, result.slots.slot);
  EXPECT_EQ(cache.stats().searches, searches_before);
}

// ---- tune cache persistence -----------------------------------------------

TEST(TuneCachePersist, WarmHitAcrossProcessesViaDisk) {
  TempDir dir;
  const Fingerprint fp{"grid", 36.0, 1.0, 1.0};
  TunedConfig config = tune::default_config("tiling");
  config.set("node_limit", 5'000'000.0);

  {
    TuneCache writer;
    writer.set_persist_dir(dir.path);
    writer.record_observation(fp, config, 9, 1234.0, 0.5);
    writer.record_winner(fp, config);
  }
  ASSERT_TRUE(std::filesystem::exists(TuneCache::entry_path(dir.path, "grid")));

  TuneCache reader;
  reader.set_persist_dir(dir.path);
  const auto found = reader.find(fp);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, config);
  EXPECT_EQ(reader.stats().hits, 1u);
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  EXPECT_EQ(reader.stats().misses, 0u);

  // The observations came back too: the cost model can price the config.
  const auto prediction = reader.predict(fp, config);
  ASSERT_TRUE(prediction.has_value());
  EXPECT_DOUBLE_EQ(prediction->period, 9.0);
  EXPECT_DOUBLE_EQ(prediction->work, 1234.0);
}

TEST(TuneCachePersist, CorruptEntryIsEvictedAndRecomputed) {
  TempDir dir;
  const Fingerprint fp{"grid", 36.0, 1.0, 1.0};
  const TunedConfig config = tune::default_config("tiling");

  {
    TuneCache writer;
    writer.set_persist_dir(dir.path);
    writer.record_winner(fp, config);
  }
  const std::string path = TuneCache::entry_path(dir.path, "grid");
  ASSERT_TRUE(std::filesystem::exists(path));

  // Flip one byte past the header — the checksum must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char c = 0;
    f.seekg(40);
    f.get(c);
    f.seekp(40);
    f.put(c == 'x' ? 'y' : 'x');
  }

  TuneCache reader;
  reader.set_persist_dir(dir.path);
  EXPECT_FALSE(reader.find(fp).has_value());
  EXPECT_EQ(reader.stats().misses, 1u);
  EXPECT_EQ(reader.stats().checksum_failures, 1u);
  EXPECT_FALSE(std::filesystem::exists(path))
      << "corrupt entries are evicted, not retried forever";

  // Recompute + re-record round-trips: the slot is clean again.
  reader.record_winner(fp, config);
  TuneCache verify;
  verify.set_persist_dir(dir.path);
  EXPECT_TRUE(verify.find(fp).has_value());
}

TEST(TuneCachePersist, WriteCorruptionHookModelsTornWrites) {
  TempDir dir;
  const Fingerprint fp{"hex", 24.0, 1.0, 0.8};
  TuneCache writer;
  writer.set_persist_dir(dir.path);
  writer.set_write_corruption_hook(
      [](std::string& bytes) { bytes[bytes.size() / 2] ^= 0x20; });
  writer.record_winner(fp, tune::default_config("tiling"));

  TuneCache reader;
  reader.set_persist_dir(dir.path);
  EXPECT_FALSE(reader.find(fp).has_value());
  EXPECT_EQ(reader.stats().checksum_failures, 1u);
}

TEST(TuneCachePersist, RetiredRegionsKnobParsesAndIsIgnored) {
  // A winner tuned while `region-greedy` still had a `regions` knob.
  const auto retired = TunedConfig::parse("backend=region-greedy;regions=4");
  ASSERT_TRUE(retired.has_value());
  EXPECT_DOUBLE_EQ(retired->get("regions", 0.0), 4.0);

  // apply_config leaves the request as it was.
  const Deployment d = grid_deployment(6, 1);
  PlanRequest request;
  request.deployment = &d;
  request.tune_family = "grid";
  tune::apply_config(*retired, &request);
  EXPECT_EQ(request.regions, 1u);
  EXPECT_EQ(request.search.node_limit, PlanRequest{}.search.node_limit);

  TempDir dir;
  {
    TuneCache writer;
    writer.set_persist_dir(dir.path);
    writer.record_winner(tune::fingerprint_of(request), *retired);
  }
  TuneCache reader;
  reader.set_persist_dir(dir.path);

  // `auto` serves the entry as a cache hit and plans the greedy table.
  request.tune_cache = &reader;
  const PlanResult result =
      PlannerRegistry::global().find("auto")->plan(request);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.tuned, "cache-hit");
  EXPECT_EQ(result.tuned_config, "backend=region-greedy;regions=4");
  EXPECT_EQ(result.slots.slot, greedy_coloring(build_conflict_graph(d)));
  EXPECT_EQ(reader.stats().searches, 0u);
}

// ---- acceptance pins ------------------------------------------------------

TEST(AutoBackend, WarmFullRegistrySweepRunsZeroSearches) {
  // The headline acceptance: after one cold sweep populated the
  // persistent tune cache, a fresh service replanning the full registry
  // with the `auto` backend performs ZERO tuning searches — every family
  // is served from disk.
  TempDir cache_dir;
  PlanService cold_service;
  ScenarioParams params;
  params.n = 6;
  std::vector<BatchItem> items =
      cold_service.registry_batch(params, {"auto"});
  for (BatchItem& item : items) item.tune_trials = 2;

  cold_service.tiling_cache().set_persist_dir(cache_dir.path);
  cold_service.tune_cache().set_persist_dir(cache_dir.path);
  const BatchReport cold = cold_service.run(items);
  ASSERT_TRUE(cold.all_ok());
  EXPECT_GT(cold.counters.tune_searches, 0u);
  EXPECT_GT(cold.counters.tune_trials_run, 0u);

  PlanService warm_service;
  warm_service.tiling_cache().set_persist_dir(cache_dir.path);
  warm_service.tune_cache().set_persist_dir(cache_dir.path);
  const BatchReport warm = warm_service.run(items);
  ASSERT_TRUE(warm.all_ok());
  EXPECT_EQ(warm.counters.tune_misses, 0u);
  EXPECT_EQ(warm.counters.tune_searches, 0u)
      << "a populated tune cache must serve every family without a search";
  EXPECT_EQ(warm.counters.tune_trials_run, 0u);
  EXPECT_GT(warm.counters.tune_hits, 0u);

  // Same plans, warm or cold: the cache changed the cost, not the answer.
  for (std::size_t i = 0; i < warm.items.size(); ++i) {
    ASSERT_EQ(warm.items[i].results.size(), cold.items[i].results.size());
    for (std::size_t r = 0; r < warm.items[i].results.size(); ++r) {
      EXPECT_EQ(warm.items[i].results[r].tuned_config,
                cold.items[i].results[r].tuned_config)
          << warm.items[i].label;
      EXPECT_EQ(warm.items[i].results[r].slots.period,
                cold.items[i].results[r].slots.period)
          << warm.items[i].label;
    }
  }
}

/// Zeroes every "wall_ms" value (the one legitimately nondeterministic
/// report field) — the same normalization tests/test_dist.cpp pins the
/// distributed service with.
std::string normalize_wall(std::string json) {
  const std::string needle = "\"wall_ms\": ";
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    std::size_t end = pos;
    while (end < json.size() && json[end] != ',' && json[end] != '}' &&
           json[end] != '\n') {
      ++end;
    }
    json.replace(pos, end - pos, "0");
    ++pos;
  }
  return json;
}

TEST(AutoBackend, DistributedWarmSweepByteIdenticalToSerial) {
  // Distributed acceptance: with a shared warm --cache-dir, a
  // multi-worker `auto` sweep merges to the byte-identical report a
  // serial run produces — tuned configs, provenance columns and the
  // tuning counter footer included.
  TempDir cache_dir;
  std::vector<BatchItem> items;
  for (const std::string scenario : {"grid", "hex"}) {
    BatchItem item;
    item.query.scenario = scenario;
    item.query.params.n = 6;
    item.backends = {"auto"};
    item.tune_trials = 2;
    items.push_back(item);
  }

  set_parallel_threads(1);
  PlanService cold_service;
  cold_service.tiling_cache().set_persist_dir(cache_dir.path);
  cold_service.tune_cache().set_persist_dir(cache_dir.path);
  ASSERT_TRUE(cold_service.run(items).all_ok());

  PlanService warm_service;
  warm_service.tiling_cache().set_persist_dir(cache_dir.path);
  warm_service.tune_cache().set_persist_dir(cache_dir.path);
  const BatchReport serial = warm_service.run(items);
  ASSERT_TRUE(serial.all_ok());
  EXPECT_EQ(serial.counters.tune_searches, 0u);
  set_parallel_threads(0);

  dist::CoordinatorConfig config;
  config.workers = 2;
  config.cache_dir = cache_dir.path;
  config.worker_exe = LATTICESCHED_CLI_PATH;
  config.worker_threads = 1;
  dist::ShardCoordinator coordinator(config);
  const BatchReport distributed = coordinator.run(items);
  ASSERT_TRUE(distributed.all_ok());
  EXPECT_EQ(distributed.counters.tune_searches, 0u)
      << "a populated tune cache must serve every worker without a search";
  EXPECT_EQ(distributed.counters.tune_hits, serial.counters.tune_hits);

  EXPECT_EQ(normalize_wall(batch_report_to_json(distributed)),
            normalize_wall(batch_report_to_json(serial)));

  std::uint64_t worker_tune_hits = 0;
  for (const dist::WorkerCacheStats& w : coordinator.worker_stats()) {
    worker_tune_hits += w.counters.tune_hits;
    EXPECT_EQ(w.counters.tune_searches, 0u) << "pid " << w.pid;
  }
  EXPECT_EQ(worker_tune_hits, distributed.counters.tune_hits);
}

}  // namespace
}  // namespace latticesched
