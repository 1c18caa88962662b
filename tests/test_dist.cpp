// Distributed planning service tests: shard partitioning, the wire
// protocol, and the acceptance pins — a multi-worker registry sweep is
// byte-identical (modulo wall times) to the single-process PlanService
// run, a warm shared --cache-dir sweep reports ZERO torus-search misses
// across all workers, and a worker killed mid-sweep has its shard
// reassigned without losing a single item.
//
// Worker processes are the real CLI (LATTICESCHED_CLI_PATH, injected by
// CMake), so these tests exercise the exact binary a deployment runs.
#include <gtest/gtest.h>

#include <string>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

#include "core/plan_service.hpp"
#include "core/report.hpp"
#include "dist/coordinator.hpp"
#include "dist/wire.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace latticesched {
namespace {

using dist::CoordinatorConfig;
using dist::ShardCoordinator;
using dist::ShardStrategy;
using test_helpers::TempDir;

CoordinatorConfig config_for(std::size_t workers,
                             const std::string& cache_dir = "") {
  CoordinatorConfig config;
  config.workers = workers;
  config.cache_dir = cache_dir;
  config.worker_exe = LATTICESCHED_CLI_PATH;
  config.worker_threads = 1;  // deterministic worker-side cache counters
  return config;
}

/// Zeroes every "wall_ms" value — the one field the acceptance
/// criterion excludes from byte-identity.
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

/// Additionally blanks the cache-counter and worker-failure footer for
/// tests where the comparison targets the planned items themselves
/// (failure reassignment legitimately shifts per-worker counters).
std::string normalize_volatile(std::string json) {
  json = normalize_wall(std::move(json));
  const std::string cache_needle = "\"cache\": {";
  std::size_t pos = json.find(cache_needle);
  if (pos != std::string::npos) {
    const std::size_t end = json.find('}', pos);
    json.replace(pos, end - pos + 1, "\"cache\": {0}");
  }
  for (const std::string needle :
       {"\"worker_failures\": ", "\"worker_timeouts\": "}) {
    pos = json.find(needle);
    if (pos != std::string::npos) {
      std::size_t end = pos + needle.size();
      while (end < json.size() && json[end] != ',') ++end;
      json.replace(pos, end - pos, needle + "0");
    }
  }
  return json;
}

std::vector<BatchItem> registry_items(
    const std::vector<std::string>& backends) {
  PlanService service;
  ScenarioParams params;
  params.n = 6;
  return service.registry_batch(params, backends);
}

// ---- partitioning ---------------------------------------------------------

std::vector<BatchItem> dummy_items(const std::vector<std::int64_t>& sizes) {
  std::vector<BatchItem> items;
  for (std::int64_t n : sizes) {
    BatchItem item;
    item.query.scenario = "grid";
    item.query.params.n = n;
    items.push_back(std::move(item));
  }
  return items;
}

void expect_exact_cover(
    const std::vector<std::vector<std::size_t>>& shards, std::size_t n) {
  std::vector<int> seen(n, 0);
  for (const auto& shard : shards) {
    EXPECT_FALSE(shard.empty()) << "no shard may be empty";
    for (std::size_t idx : shard) {
      ASSERT_LT(idx, n);
      ++seen[idx];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(seen[i], 1) << "item " << i << " must appear exactly once";
  }
}

TEST(ShardPartition, BlockIsContiguousAndBalanced) {
  const auto items = dummy_items(std::vector<std::int64_t>(10, 6));
  const auto shards =
      ShardCoordinator::partition(items, 4, ShardStrategy::kBlock);
  ASSERT_EQ(shards.size(), 4u);
  expect_exact_cover(shards, items.size());
  // Balanced: 10 = 3 + 3 + 2 + 2, contiguous and in order.
  EXPECT_EQ(shards[0], (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(shards[1], (std::vector<std::size_t>{3, 4, 5}));
  EXPECT_EQ(shards[2], (std::vector<std::size_t>{6, 7}));
  EXPECT_EQ(shards[3], (std::vector<std::size_t>{8, 9}));
}

TEST(ShardPartition, WeightedBalancesLoadDeterministically) {
  // One monster item plus small ones: LPT must isolate the monster and
  // spread the rest rather than splitting 'contiguously by count'.
  const auto items = dummy_items({100, 4, 4, 4, 4, 4, 4});
  const auto shards =
      ShardCoordinator::partition(items, 2, ShardStrategy::kSizeWeighted);
  ASSERT_EQ(shards.size(), 2u);
  expect_exact_cover(shards, items.size());
  EXPECT_EQ(shards[0], (std::vector<std::size_t>{0}));
  EXPECT_EQ(shards[1], (std::vector<std::size_t>{1, 2, 3, 4, 5, 6}));
  // Deterministic: same inputs, same partition.
  EXPECT_EQ(shards, ShardCoordinator::partition(
                        items, 2, ShardStrategy::kSizeWeighted));
}

TEST(ShardPartition, ShardCountCapsAtItemCount) {
  const auto items = dummy_items({6, 6, 6});
  for (const ShardStrategy strategy :
       {ShardStrategy::kBlock, ShardStrategy::kSizeWeighted}) {
    const auto shards = ShardCoordinator::partition(items, 8, strategy);
    ASSERT_EQ(shards.size(), 3u);
    expect_exact_cover(shards, items.size());
  }
  EXPECT_TRUE(
      ShardCoordinator::partition({}, 4, ShardStrategy::kBlock).empty());
}

TEST(ShardPartition, ParseStrategyNames) {
  EXPECT_EQ(dist::parse_shard_strategy("block"), ShardStrategy::kBlock);
  EXPECT_EQ(dist::parse_shard_strategy("weighted"),
            ShardStrategy::kSizeWeighted);
  EXPECT_THROW(dist::parse_shard_strategy("round-robin"),
               std::invalid_argument);
}

// ---- wire protocol --------------------------------------------------------

TEST(Wire, FrameRoundTripOverSocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const dist::WireMessage sent{"ASSIGN",
                               "3\n{\"scenario\": \"grid\"}\nwith\nlines"};
  ASSERT_TRUE(dist::write_frame(sv[0], sent));
  ASSERT_TRUE(dist::write_frame(sv[0], {"SHUTDOWN", ""}));
  dist::WireMessage got;
  ASSERT_TRUE(dist::read_frame(sv[1], &got));
  EXPECT_EQ(got.verb, sent.verb);
  EXPECT_EQ(got.body, sent.body);
  ASSERT_TRUE(dist::read_frame(sv[1], &got));
  EXPECT_EQ(got.verb, "SHUTDOWN");
  EXPECT_EQ(got.body, "");
  // EOF after the peer closes.
  ::close(sv[0]);
  EXPECT_FALSE(dist::read_frame(sv[1], &got));
  ::close(sv[1]);

  std::string shard, rest;
  dist::split_body(sent.body, &shard, &rest);
  EXPECT_EQ(shard, "3");
  EXPECT_EQ(rest, "{\"scenario\": \"grid\"}\nwith\nlines");
}

TEST(Wire, WriteToClosedPeerFailsInsteadOfSigpipe) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[1]);
  EXPECT_FALSE(dist::write_frame(sv[0], {"ASSIGN", "payload"}));
  ::close(sv[0]);
}

TEST(Wire, BatchItemsJsonRoundTripsExactly) {
  std::vector<BatchItem> items;
  BatchItem a;
  a.query.scenario = "random-subset";
  a.query.params.n = 14;
  a.query.params.radius = 3;
  a.query.params.seed = 77;
  a.query.params.channels = 4;
  a.query.params.density = 1.0 / 3.0;  // %.6g would corrupt this
  a.backends = {"tiling", "dsatur"};
  a.search.max_period_cells = 123;
  a.search.node_limit = 456789;
  a.search.require_all_prototiles = true;
  a.search.use_dense_engine = false;
  a.search.use_parallel = false;
  a.sa.max_iters = 31337;
  a.sa.initial_temperature = 1.75;
  a.sa.cooling = 0.99991;
  a.sa.seed = 9;
  a.sa.restarts = 2;
  a.verify = false;
  items.push_back(a);
  BatchItem b;  // defaults + empty backend list ("all")
  b.query.scenario = "grid";
  items.push_back(b);

  const auto parsed = parse_batch_items_json(batch_items_to_json(items));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].query.scenario, "random-subset");
  EXPECT_EQ(parsed[0].query.params.n, 14);
  EXPECT_EQ(parsed[0].query.params.radius, 3);
  EXPECT_EQ(parsed[0].query.params.seed, 77u);
  EXPECT_EQ(parsed[0].query.params.channels, 4u);
  EXPECT_EQ(parsed[0].query.params.density, 1.0 / 3.0);  // bit-exact
  EXPECT_EQ(parsed[0].backends,
            (std::vector<std::string>{"tiling", "dsatur"}));
  EXPECT_EQ(parsed[0].search.max_period_cells, 123);
  EXPECT_EQ(parsed[0].search.node_limit, 456789u);
  EXPECT_TRUE(parsed[0].search.require_all_prototiles);
  EXPECT_FALSE(parsed[0].search.use_dense_engine);
  EXPECT_FALSE(parsed[0].search.use_parallel);
  EXPECT_EQ(parsed[0].sa.max_iters, 31337u);
  EXPECT_EQ(parsed[0].sa.initial_temperature, 1.75);
  EXPECT_EQ(parsed[0].sa.cooling, 0.99991);
  EXPECT_EQ(parsed[0].sa.seed, 9u);
  EXPECT_EQ(parsed[0].sa.restarts, 2u);
  EXPECT_FALSE(parsed[0].verify);
  EXPECT_EQ(parsed[1].query.scenario, "grid");
  EXPECT_TRUE(parsed[1].backends.empty());
  EXPECT_TRUE(parsed[1].verify);
}

TEST(Wire, BatchReportJsonParseEmitIsIdentity) {
  set_parallel_threads(1);
  PlanService service;
  ScenarioParams params;
  params.n = 6;
  params.channels = 2;
  std::vector<BatchItem> items;
  for (const char* name : {"grid", "multichannel", "no-such-scenario"}) {
    BatchItem item;
    item.query = ScenarioQuery{name, params};
    item.backends = name == std::string("no-such-scenario")
                        ? std::vector<std::string>{}
                        : std::vector<std::string>{"tiling", "tdma"};
    items.push_back(std::move(item));
  }
  const BatchReport report = service.run(items);
  set_parallel_threads(0);
  EXPECT_FALSE(report.all_ok());  // the bad scenario is a reported failure

  const std::string emitted = batch_report_to_json(report);
  const BatchReport parsed = parse_batch_report_json(emitted);
  ASSERT_EQ(parsed.items.size(), report.items.size());
  EXPECT_EQ(parsed.counters.cache_hits, report.counters.cache_hits);
  EXPECT_EQ(parsed.counters.cache_misses, report.counters.cache_misses);
  EXPECT_FALSE(parsed.items[2].built);
  // Emit ∘ parse ∘ emit is the identity — the distributed merge path
  // cannot lose or reshape a field without this failing.
  EXPECT_EQ(batch_report_to_json(parsed), emitted);

  EXPECT_THROW(parse_batch_report_json("{}"), std::invalid_argument);
}

// ---- coordinator end-to-end ----------------------------------------------

TEST(DistributedService, WarmSweepByteIdenticalToSerialAndMissFree) {
  // The acceptance pin.  One cold serial sweep populates a persistent
  // cache directory; then a fresh serial service and a 4-worker
  // distributed run replan the identical full-registry batch from that
  // directory.  Both warm runs must (a) report ZERO torus-search misses
  // and (b) serialize byte-identically modulo wall times — including
  // the cache counters, because every worker's searches hit the shared
  // persistent cache.
  TempDir cache_dir;
  set_parallel_threads(1);
  const std::vector<BatchItem> items =
      registry_items({"tiling", "dsatur", "tdma"});

  PlanService cold_service;
  cold_service.tiling_cache().set_persist_dir(cache_dir.path);
  const BatchReport cold = cold_service.run(items);
  ASSERT_TRUE(cold.all_ok());
  EXPECT_GT(cold.counters.cache_misses, 0u);

  PlanService warm_service;
  warm_service.tiling_cache().set_persist_dir(cache_dir.path);
  const BatchReport serial = warm_service.run(items);
  ASSERT_TRUE(serial.all_ok());
  EXPECT_EQ(serial.counters.cache_misses, 0u);
  set_parallel_threads(0);

  ShardCoordinator coordinator(config_for(4, cache_dir.path));
  const BatchReport distributed = coordinator.run(items);
  ASSERT_TRUE(distributed.all_ok());
  EXPECT_EQ(distributed.worker_failures, 0u);
  EXPECT_EQ(distributed.counters.cache_misses, 0u)
      << "a populated --cache-dir must serve every worker's torus "
         "search from disk";
  EXPECT_EQ(distributed.counters.cache_hits, serial.counters.cache_hits)
      << "workers collectively run exactly the serial run's searches";
  EXPECT_EQ(coordinator.worker_stats().size(), 4u);
  for (const dist::WorkerCacheStats& w : coordinator.worker_stats()) {
    EXPECT_EQ(w.counters.cache_misses, 0u) << "pid " << w.pid;
    EXPECT_FALSE(w.failed);
  }

  EXPECT_EQ(normalize_wall(batch_report_to_json(distributed)),
            normalize_wall(batch_report_to_json(serial)));

  // The warm plans are the cold plans: the cache changed the cost, not
  // one byte of the answer.
  EXPECT_EQ(normalize_volatile(batch_report_to_json(distributed)),
            normalize_volatile(batch_report_to_json(cold)));
}

TEST(DistributedService, SingleItemBatchColdByteIdentical) {
  // A one-item batch through the coordinator: one shard, one worker
  // (the fleet caps at the shard count), and — because the cold cache
  // work is identical — the FULL report including cache counters
  // matches the serial run byte-for-byte modulo wall times.
  BatchItem item;
  item.query.scenario = "grid";
  item.query.params.n = 6;
  item.backends = {"tiling"};

  set_parallel_threads(1);
  PlanService service;
  const BatchReport serial = service.run({item});
  set_parallel_threads(0);

  ShardCoordinator coordinator(config_for(4));
  const BatchReport distributed = coordinator.run({item});
  ASSERT_TRUE(distributed.all_ok());
  EXPECT_EQ(coordinator.worker_stats().size(), 1u)
      << "a single-item batch must not spawn idle workers";
  EXPECT_EQ(distributed.counters.cache_misses, 1u);
  EXPECT_EQ(normalize_wall(batch_report_to_json(distributed)),
            normalize_wall(batch_report_to_json(serial)));
}

TEST(DistributedService, EmptyBatchSpawnsNothing) {
  ShardCoordinator coordinator(config_for(4));
  const BatchReport report = coordinator.run({});
  EXPECT_TRUE(report.items.empty());
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.worker_failures, 0u);
  EXPECT_TRUE(coordinator.worker_stats().empty());
}

TEST(DistributedService, EmptySweepListsProduceEmptyBatches) {
  // Sweep expanders fed empty lists produce empty query lists; both the
  // serial service and the coordinator must treat the resulting empty
  // batch as a successful no-op.
  const auto queries = radius_sweep("grid", {}, {});
  EXPECT_TRUE(queries.empty());
  const auto items = PlanService::items_for(queries, {"tiling"});
  EXPECT_TRUE(items.empty());
  PlanService service;
  EXPECT_TRUE(service.run(items).items.empty());
  ShardCoordinator coordinator(config_for(2));
  EXPECT_TRUE(coordinator.run(items).items.empty());
}

TEST(DistributedService, DuplicateScenarioItemsPlanIndependently) {
  // A comma list can name the same scenario twice ("grid,grid"): two
  // identical items, two identical result sets, even when the shards
  // land on different workers with private caches.
  BatchItem item;
  item.query.scenario = "grid";
  item.query.params.n = 6;
  item.backends = {"tiling", "tdma"};
  const std::vector<BatchItem> items = {item, item};

  set_parallel_threads(1);
  PlanService service;
  const BatchReport serial = service.run(items);
  set_parallel_threads(0);
  ASSERT_TRUE(serial.all_ok());
  ASSERT_EQ(serial.items.size(), 2u);
  EXPECT_EQ(serial.items[0].label, serial.items[1].label);

  ShardCoordinator coordinator(config_for(2));
  const BatchReport distributed = coordinator.run(items);
  ASSERT_TRUE(distributed.all_ok());
  EXPECT_EQ(coordinator.worker_stats().size(), 2u);
  // Cache counters legitimately differ (the serial run's second item
  // hits the first item's search; separate workers each pay it), so
  // the pin covers the planned items, not the counter footer.
  EXPECT_EQ(normalize_volatile(batch_report_to_json(distributed)),
            normalize_volatile(batch_report_to_json(serial)));
}

TEST(DistributedService, DynamicTracesShipOverTheWireByteIdentical) {
  // A dynamic scenario AND a script-driven item distributed across
  // workers: the per-step results (step column, shrinking fleets) must
  // merge byte-identically to the serial run — traces are first-class
  // wire citizens, not a driver-only feature.
  BatchItem dynamic;
  dynamic.query.scenario = "grid-failures";
  dynamic.query.params.n = 6;
  dynamic.query.params.steps = 2;
  dynamic.backends = {"tiling", "tdma"};
  BatchItem scripted;
  scripted.query.scenario = "grid";
  scripted.query.params.n = 5;
  scripted.backends = {"greedy", "tdma"};
  scripted.trace_script = "step\nremove 0 0\nstep\nadd 9 9\nradius 2\n";
  const std::vector<BatchItem> items = {dynamic, scripted};

  set_parallel_threads(1);
  PlanService service;
  const BatchReport serial = service.run(items);
  set_parallel_threads(0);
  ASSERT_TRUE(serial.all_ok());
  ASSERT_EQ(serial.items[0].steps.size(), 3u);
  ASSERT_EQ(serial.items[1].steps.size(), 3u);

  ShardCoordinator coordinator(config_for(2));
  const BatchReport distributed = coordinator.run(items);
  ASSERT_TRUE(distributed.all_ok());
  ASSERT_EQ(distributed.items[0].steps.size(), 3u);
  EXPECT_EQ(distributed.items[1].steps[2].sensors, 25u);  // 25 - 1 + 1
  EXPECT_EQ(normalize_volatile(batch_report_to_json(distributed)),
            normalize_volatile(batch_report_to_json(serial)));
}

TEST(DistributedService, KilledWorkerShardIsReassigned) {
  // The failure-handling regression: worker 1 crashes before sending its
  // first RESULT (fault-injected, deterministic).  With retries=0 the
  // slot stays dead, so the coordinator must detect the death, hand the
  // shard to a surviving worker, surface exactly one failure, and still
  // deliver every item of the sweep.
  const std::vector<BatchItem> items = registry_items({"tiling"});
  ASSERT_GE(items.size(), 3u);

  set_parallel_threads(1);
  PlanService service;
  const BatchReport serial = service.run(items);
  set_parallel_threads(0);

  CoordinatorConfig config = config_for(3);
  config.fault_plan = "worker=1:crash:after-frames=1";
  config.retries = 0;
  ShardCoordinator coordinator(std::move(config));
  const BatchReport distributed = coordinator.run(items);

  ASSERT_TRUE(distributed.all_ok())
      << "every item must survive the worker death";
  EXPECT_EQ(distributed.worker_failures, 1u);
  EXPECT_EQ(distributed.worker_timeouts, 0u);
  EXPECT_FALSE(distributed.degraded);
  EXPECT_TRUE(distributed.quarantined_items.empty());
  ASSERT_EQ(coordinator.worker_stats().size(), 3u);
  EXPECT_TRUE(coordinator.worker_stats()[1].failed);
  EXPECT_EQ(coordinator.worker_stats()[1].shards_completed, 0u);
  EXPECT_EQ(coordinator.worker_stats()[1].respawns, 0u);
  EXPECT_FALSE(coordinator.worker_stats()[0].failed);
  EXPECT_FALSE(coordinator.worker_stats()[2].failed);
  EXPECT_EQ(normalize_volatile(batch_report_to_json(distributed)),
            normalize_volatile(batch_report_to_json(serial)));
}

TEST(DistributedService, UnknownBackendThrowsBeforeSpawning) {
  BatchItem item;
  item.query.scenario = "grid";
  item.backends = {"no-such-backend"};
  ShardCoordinator coordinator(config_for(2));
  EXPECT_THROW(coordinator.run({item}), std::invalid_argument);
  EXPECT_TRUE(coordinator.worker_stats().empty());
}

TEST(DistributedService, MissingWorkerExecutableDegradesToSerial) {
  // exec failure = instant child exit on every spawn, including every
  // respawn.  The chaos-hardened coordinator must exhaust the retry
  // budget and then finish the batch in-process (degraded) instead of
  // hanging, crashing, or throwing away the sweep.
  BatchItem item;
  item.query.scenario = "grid";
  item.query.params.n = 6;
  item.backends = {"tdma"};
  CoordinatorConfig config = config_for(2);
  config.worker_exe = "/no/such/binary";
  config.retries = 1;
  config.backoff_base_ms = 1;  // keep the retry schedule test-fast
  config.quarantine_crashes = 100;  // isolate degradation from quarantine
  ShardCoordinator coordinator(std::move(config));
  const BatchReport report = coordinator.run({item});
  ASSERT_TRUE(report.degraded);
  ASSERT_TRUE(report.all_ok()) << "the item must complete in-process";
  // One shard for one item -> one slot, dying 1 + retries times.
  EXPECT_EQ(report.worker_failures, 2u);
  EXPECT_TRUE(report.quarantined_items.empty());
  ASSERT_EQ(coordinator.worker_stats().size(), 1u);
  EXPECT_TRUE(coordinator.worker_stats()[0].failed);
  EXPECT_EQ(coordinator.worker_stats()[0].respawns, 1u);
}

TEST(DistributedService, ConfigValidation) {
  CoordinatorConfig zero = config_for(2);
  zero.workers = 0;
  EXPECT_THROW(ShardCoordinator{zero}, std::invalid_argument);
  CoordinatorConfig no_exe = config_for(2);
  no_exe.worker_exe.clear();
  EXPECT_THROW(ShardCoordinator{no_exe}, std::invalid_argument);
}

}  // namespace
}  // namespace latticesched
