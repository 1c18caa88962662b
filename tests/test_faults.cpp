// Chaos-hardening tests: the deterministic fault-injection framework
// (dist/faults.hpp) and the coordinator's survival guarantees under it —
// deadlines, the liveness state machine, retry/respawn, quarantine, and
// graceful serial degradation.
//
// The property every fault-matrix case pins: under a seeded FaultPlan
// the distributed sweep completes with ZERO lost items and a merged
// report identical (modulo wall times and the failure counters) to the
// single-process serial run.
#include <gtest/gtest.h>

#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/plan_service.hpp"
#include "core/report.hpp"
#include "dist/coordinator.hpp"
#include "dist/faults.hpp"
#include "dist/wire.hpp"
#include "serve/server.hpp"
#include "util/parallel.hpp"

namespace latticesched {
namespace {

using dist::CoordinatorConfig;
using dist::FaultKind;
using dist::FaultPlan;
using dist::ShardCoordinator;
using dist::WireIoStatus;

// ---- fault spec grammar ---------------------------------------------------

TEST(FaultPlan, ParseToSpecRoundTrip) {
  const std::string spec =
      "seed=42;worker=1:crash:after-frames=1;"
      "worker=*:hang-ms=500:after-frames=2:gens=all;"
      "worker=0:drop-frame:after-frames=3:gens=2;"
      "worker=2:truncate-frame:after-frames=0;"
      "worker=*:delay-io-ms=10:after-frames=0;"
      "cache:corrupt-write:nth=3:worker=1";
  const FaultPlan plan = FaultPlan::parse(spec);
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.actions.size(), 6u);
  EXPECT_EQ(plan.actions[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.actions[0].worker, 1);
  EXPECT_EQ(plan.actions[0].after_frames, 1u);
  EXPECT_EQ(plan.actions[0].gens, 1u);
  EXPECT_EQ(plan.actions[1].kind, FaultKind::kHangMs);
  EXPECT_EQ(plan.actions[1].worker, -1);
  EXPECT_EQ(plan.actions[1].ms, 500u);
  EXPECT_EQ(plan.actions[1].gens, 0u);  // "all"
  EXPECT_EQ(plan.actions[2].gens, 2u);
  EXPECT_EQ(plan.actions[5].kind, FaultKind::kCorruptCacheWrite);
  EXPECT_EQ(plan.actions[5].nth, 3u);
  EXPECT_EQ(plan.actions[5].worker, 1);
  EXPECT_TRUE(plan.has_cache_faults());

  // to_spec is a parse fixed point: parse(to_spec(parse(s))) == the plan.
  const FaultPlan reparsed = FaultPlan::parse(plan.to_spec());
  EXPECT_EQ(reparsed.to_spec(), plan.to_spec());

  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_FALSE(FaultPlan::parse("").has_cache_faults());
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  for (const char* bad :
       {"worker=0",                     // missing kind
        "worker=0:explode",             // unknown kind
        "worker=x:crash",               // bad index
        "worker=9999:crash",            // index out of range
        "pod=0:crash",                  // unknown target
        "worker=0:crash:nth=1",         // nth on a wire fault
        "cache:drop-frame",             // cache only corrupts writes
        "cache:corrupt-write:nth=0",    // nth is 1-based
        "worker=0:hang-ms=abc",         // bad duration
        "seed=nope;worker=0:crash",     // bad seed
        "worker=0:crash:sometimes"}) {  // unknown param
    EXPECT_THROW(FaultPlan::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(FaultPlan, ForWorkerFiltersSlotAndGeneration) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=7;worker=1:crash:after-frames=1;"
      "worker=*:delay-io-ms=5:gens=all;"
      "worker=0:drop-frame:gens=2;cache:corrupt-write:worker=1");

  // Slot 1, generation 0: its crash, the wildcard delay, its cache fault.
  const FaultPlan w1g0 = plan.for_worker(1, 0);
  ASSERT_EQ(w1g0.actions.size(), 3u);
  EXPECT_EQ(w1g0.seed, 7u);
  // Forwarded unscoped — the worker applies everything it is handed.
  for (const auto& action : w1g0.actions) EXPECT_EQ(action.worker, -1);

  // Slot 1, generation 1: the crash covered only generation 0 (gens=1
  // default); the cache fault likewise.  Only the gens=all delay stays.
  const FaultPlan w1g1 = plan.for_worker(1, 1);
  ASSERT_EQ(w1g1.actions.size(), 1u);
  EXPECT_EQ(w1g1.actions[0].kind, FaultKind::kDelayIoMs);

  // Slot 0: no crash; drop-frame covers generations 0 and 1, not 2.
  EXPECT_EQ(plan.for_worker(0, 0).actions.size(), 2u);
  EXPECT_EQ(plan.for_worker(0, 1).actions.size(), 2u);
  EXPECT_EQ(plan.for_worker(0, 2).actions.size(), 1u);
}

TEST(FaultPlan, CacheCorruptionHookFlipsOneByteOfNthWrite) {
  const FaultPlan plan = FaultPlan::parse("seed=5;cache:corrupt-write:nth=2");
  const auto hook = dist::cache_corruption_hook(plan);
  ASSERT_TRUE(static_cast<bool>(hook));
  const std::string original = "lattice-tilings 2\nbody body body\nend\n";
  std::string first = original;
  hook(first);
  EXPECT_EQ(first, original) << "nth=2 must not touch the first write";
  std::string second = original;
  hook(second);
  EXPECT_NE(second, original);
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (second[i] != original[i]) ++flipped;
  }
  EXPECT_EQ(flipped, 1u) << "exactly one byte flips";

  EXPECT_FALSE(static_cast<bool>(
      dist::cache_corruption_hook(FaultPlan::parse("worker=0:crash"))));
}

// ---- deadline-bounded wire I/O --------------------------------------------

TEST(WireDeadline, ReadTimesOutOnSilenceAndReadsAfterData) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(dist::set_nonblocking(sv[0]));
  dist::WireMessage got;
  EXPECT_EQ(dist::read_frame_deadline(sv[0], &got, 50), WireIoStatus::kTimeout);
  ASSERT_TRUE(dist::write_frame(sv[1], {"PING", ""}));
  EXPECT_EQ(dist::read_frame_deadline(sv[0], &got, 1000), WireIoStatus::kOk);
  EXPECT_EQ(got.verb, "PING");
  ::close(sv[1]);
  EXPECT_EQ(dist::read_frame_deadline(sv[0], &got, 50), WireIoStatus::kClosed);
  ::close(sv[0]);
}

TEST(WireDeadline, TruncatedFrameTimesOutMidFrame) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(dist::set_nonblocking(sv[0]));
  // A length prefix promising more bytes than ever arrive: the deadline
  // bounds the WHOLE frame, so the reader must give up, not spin.
  const unsigned char prefix[4] = {100, 0, 0, 0};
  ASSERT_EQ(::send(sv[1], prefix, 4, 0), 4);
  ASSERT_EQ(::send(sv[1], "RESU", 4, 0), 4);
  dist::WireMessage got;
  EXPECT_EQ(dist::read_frame_deadline(sv[0], &got, 100),
            WireIoStatus::kTimeout);
  ::close(sv[0]);
  ::close(sv[1]);
}

// ---- worker liveness (the reader thread) ----------------------------------

TEST(WorkerLiveness, IdleWorkerAnswersPingWithPong) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // The worker loop is PlanServer::serve_fd; it owns and closes sv[1].
  serve::PlanServer server{serve::ServerConfig{}};
  std::thread worker([&] { server.serve_fd(sv[1]); });
  dist::WireMessage got;
  ASSERT_TRUE(dist::read_frame(sv[0], &got));
  EXPECT_EQ(got.verb, "HELLO");
  ASSERT_TRUE(dist::write_frame(sv[0], {"PING", ""}));
  ASSERT_TRUE(dist::read_frame(sv[0], &got));
  EXPECT_EQ(got.verb, "PONG");
  EXPECT_EQ(got.body, "");
  ASSERT_TRUE(dist::write_frame(sv[0], {"SHUTDOWN", ""}));
  worker.join();  // SHUTDOWN ends the loop
  ::close(sv[0]);
}

// ---- coordinator under injected faults ------------------------------------

CoordinatorConfig chaos_config(std::size_t workers,
                               const std::string& fault_plan) {
  CoordinatorConfig config;
  config.workers = workers;
  config.worker_exe = LATTICESCHED_CLI_PATH;
  config.worker_threads = 1;
  config.fault_plan = fault_plan;
  config.worker_timeout_ms = 500;
  config.max_silent_pings = 2;
  config.retries = 2;
  config.backoff_base_ms = 1;
  config.backoff_max_ms = 50;
  return config;
}

/// Cheap, fast batch (tdma plans in microseconds) so per-frame deadlines
/// can be tight without killing healthy-but-busy workers.
std::vector<BatchItem> small_batch() {
  std::vector<BatchItem> items;
  for (const std::int64_t n : {4, 5, 6, 7}) {
    BatchItem item;
    item.query.scenario = "grid";
    item.query.params.n = n;
    item.backends = {"tdma", "greedy"};
    items.push_back(std::move(item));
  }
  return items;
}

std::string items_json(const BatchReport& report) {
  BatchReport items_only;
  items_only.items = report.items;
  std::string json = batch_report_to_json(items_only);
  // Blank per-result wall times the same way test_dist.cpp does.
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

TEST(ChaosCoordinator, HungWorkerIsDetectedKilledAndReplaced) {
  // The hung-worker regression (the bug class this layer exists for):
  // worker 1 wedges for 60 s while sending its first RESULT, holding the
  // channel write lock so even PONGs cannot flow.  Pre-hardening this
  // hung the whole sweep on poll(-1); now the deadline moves the worker
  // to Suspect, the silent probe kills it, the respawned generation is
  // healthy, and the sweep finishes in deadline-budget time.
  const std::vector<BatchItem> items = small_batch();
  set_parallel_threads(1);
  PlanService service;
  const BatchReport serial = service.run(items);
  set_parallel_threads(0);

  ShardCoordinator coordinator(
      chaos_config(3, "worker=1:hang-ms=60000:after-frames=1"));
  const BatchReport distributed = coordinator.run(items);

  ASSERT_TRUE(distributed.all_ok());
  EXPECT_EQ(distributed.worker_timeouts, 1u);
  EXPECT_EQ(distributed.worker_failures, 0u);
  EXPECT_FALSE(distributed.degraded);
  EXPECT_TRUE(distributed.quarantined_items.empty());
  EXPECT_LT(distributed.wall_seconds, 30.0)
      << "detection must cost deadline budgets, not the hang duration";
  ASSERT_EQ(coordinator.worker_stats().size(), 3u);
  EXPECT_TRUE(coordinator.worker_stats()[1].timed_out);
  EXPECT_FALSE(coordinator.worker_stats()[1].failed);
  EXPECT_EQ(coordinator.worker_stats()[1].respawns, 1u);
  EXPECT_EQ(items_json(distributed), items_json(serial));
}

TEST(ChaosCoordinator, FaultMatrixLosesNoItems) {
  // The acceptance property, swept across every wire-fault kind: under
  // each seeded plan the distributed run completes every item and the
  // planned results are identical to the serial run's.
  const std::vector<BatchItem> items = small_batch();
  set_parallel_threads(1);
  PlanService service;
  const BatchReport serial = service.run(items);
  set_parallel_threads(0);
  ASSERT_TRUE(serial.all_ok());
  const std::string expected = items_json(serial);

  const struct {
    const char* plan;
    bool survivable;  ///< no worker should die at all
  } cases[] = {
      {"worker=0:crash:after-frames=1", false},
      {"worker=1:hang-ms=60000:after-frames=1", false},
      {"worker=1:hang-ms=50:after-frames=1", true},  // short blip, no kill
      {"worker=1:drop-frame:after-frames=1", false},
      {"worker=0:truncate-frame:after-frames=1", false},
      {"worker=*:delay-io-ms=10:after-frames=0:gens=all", true},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.plan);
    ShardCoordinator coordinator(chaos_config(2, c.plan));
    const BatchReport report = coordinator.run(items);
    ASSERT_EQ(report.items.size(), items.size());
    EXPECT_TRUE(report.all_ok()) << "no fault may lose or fail an item";
    EXPECT_FALSE(report.degraded);
    EXPECT_TRUE(report.quarantined_items.empty());
    if (c.survivable) {
      EXPECT_EQ(report.worker_failures + report.worker_timeouts, 0u);
    } else {
      EXPECT_EQ(report.worker_failures + report.worker_timeouts, 1u);
    }
    EXPECT_EQ(items_json(report), expected);
  }
}

TEST(ChaosCoordinator, RepeatCrashersAreQuarantined) {
  // One worker slot, crashing before its first RESULT on EVERY
  // generation: the whole assignment is implicated twice and must be
  // quarantined (reported, not retried forever), with no degradation —
  // the quarantine resolved the work.
  const std::vector<BatchItem> items = small_batch();
  CoordinatorConfig config =
      chaos_config(1, "worker=0:crash:after-frames=1:gens=all");
  config.retries = 3;
  config.quarantine_crashes = 2;
  ShardCoordinator coordinator(std::move(config));
  const BatchReport report = coordinator.run(items);

  EXPECT_FALSE(report.all_ok());
  EXPECT_FALSE(report.degraded);
  ASSERT_EQ(report.quarantined_items.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(report.quarantined_items[i], i);  // sorted ascending
    EXPECT_FALSE(report.items[i].built);
    EXPECT_NE(report.items[i].error.find("quarantined"), std::string::npos);
  }
  EXPECT_EQ(report.worker_failures, 2u)
      << "quarantine at the second death, not after the full retry budget";
}

TEST(ChaosCoordinator, ExhaustedFleetDegradesToSerial) {
  // Every spawn of every slot dies before HELLO, every retry included:
  // the coordinator must finish the whole batch in-process and say so,
  // not throw away the sweep.
  const std::vector<BatchItem> items = small_batch();
  set_parallel_threads(1);
  PlanService service;
  const BatchReport serial = service.run(items);
  set_parallel_threads(0);

  CoordinatorConfig config =
      chaos_config(2, "worker=*:crash:after-frames=0:gens=all");
  config.retries = 1;
  config.quarantine_crashes = 100;  // isolate degradation from quarantine
  ShardCoordinator coordinator(std::move(config));
  const BatchReport report = coordinator.run(items);

  ASSERT_TRUE(report.degraded);
  ASSERT_TRUE(report.all_ok()) << "every item completes in-process";
  EXPECT_TRUE(report.quarantined_items.empty());
  // Two slots, each spawning 1 + retries times, every spawn a crash.
  EXPECT_EQ(report.worker_failures, 4u);
  for (const auto& stats : coordinator.worker_stats()) {
    EXPECT_TRUE(stats.failed);
    EXPECT_EQ(stats.respawns, 1u);
    EXPECT_EQ(stats.shards_completed, 0u);
  }
  EXPECT_EQ(items_json(report), items_json(serial));
}

TEST(ChaosCoordinator, MalformedFaultPlanThrowsBeforeSpawning) {
  CoordinatorConfig config = chaos_config(2, "worker=0:explode");
  ShardCoordinator coordinator(std::move(config));
  EXPECT_THROW(coordinator.run(small_batch()), std::invalid_argument);
  EXPECT_TRUE(coordinator.worker_stats().empty());
}

}  // namespace
}  // namespace latticesched
