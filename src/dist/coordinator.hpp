// Multi-process shard coordinator for batch planning sweeps.
//
// The ROADMAP's sharding seam: a `std::vector<BatchItem>` is the unit of
// distribution (each item is an independent (scenario, backend-set)
// plan), so the coordinator partitions the batch into shards, spawns N
// `latticesched --worker` child processes connected by socketpairs,
// streams each worker its shard over the wire protocol (dist/wire.hpp),
// and merges the returned BatchReports — items restored to request
// order, batch counters merged across workers — into one report
// indistinguishable from a single-process PlanService::run (pinned
// byte-for-byte, modulo wall times and failure counters, by
// tests/test_dist.cpp).
//
// Fault tolerance (the chaos-hardening layer): every worker read AND
// write is bounded by `worker_timeout_ms`, and each worker runs the
// ek-kor2-shaped liveness state machine Unknown → Alive → Suspect →
// Dead — a missed deadline moves it to Suspect and sends a PING; a
// healthy-but-busy worker (serve::PlanServer::serve_fd on its
// socketpair) answers PONG from its connection's reader thread, while
// a silent one is SIGKILLed, reaped, counted in
// BatchReport::worker_timeouts, and its shards reassigned (crashes —
// EOF/EPIPE — count in worker_failures instead).  Dead slots are
// respawned up to `retries` times with bounded exponential backoff and
// deterministic jitter; an item whose assignment has crashed
// `quarantine_crashes` workers is quarantined (reported, never
// retried).  When every slot is exhausted the coordinator degrades to
// in-process serial execution of the remaining items
// (BatchReport::degraded) rather than discarding completed work.  All
// of it is reproducibly testable through the seeded FaultPlan spec in
// `fault_plan` (dist/faults.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

#include "core/plan_service.hpp"

namespace latticesched::dist {

enum class ShardStrategy {
  /// Contiguous blocks of near-equal item count (default: preserves
  /// request locality, trivially predictable).
  kBlock,
  /// Longest-processing-time greedy on a per-item cost estimate
  /// (~ window area x neighborhood size), so one huge scenario does not
  /// serialize the sweep behind it.
  kSizeWeighted,
};

/// Parses "block" / "weighted" (the driver's --shard flag); throws
/// std::invalid_argument otherwise.
ShardStrategy parse_shard_strategy(const std::string& name);

/// Per-worker liveness, ek-kor2 heartbeat shape.  Transitions:
/// Unknown -(HELLO)-> Alive; Alive -(missed deadline, PING sent)->
/// Suspect; Suspect -(PONG/RESULT)-> Alive; Suspect -(missed deadline)->
/// Dead; Unknown -(missed handshake deadline)-> Dead; any -(EOF/EPIPE)->
/// Dead.  Dead slots are respawned (back to Unknown) while their retry
/// budget lasts.
enum class WorkerLiveness { kUnknown, kAlive, kSuspect, kDead };

struct CoordinatorConfig {
  /// Worker processes to spawn (>= 1; capped at the shard count, so a
  /// two-item batch never pays for eight processes).
  std::size_t workers = 2;
  ShardStrategy strategy = ShardStrategy::kBlock;
  /// Shared persistent TilingCache directory, forwarded to every worker
  /// as --cache-dir ("" = per-worker in-memory caches only).
  std::string cache_dir;
  /// Worker executable (the latticesched CLI); must understand
  /// --worker.  Required — the driver passes self_exe_path().
  std::string worker_exe;
  /// Forwarded to workers as --threads.  0 = divide the machine:
  /// max(1, hardware_concurrency / workers) per worker, so the fleet
  /// never oversubscribes the box.
  std::size_t worker_threads = 0;
  /// Per-frame deadline (ms) on every worker read and write, including
  /// the HELLO handshake; a worker that misses it is PINGed (Suspect)
  /// and killed if still silent one deadline later.  0 disables
  /// deadlines entirely (the pre-hardening wait-forever behavior).
  std::uint64_t worker_timeout_ms = 30000;
  /// Respawn budget per worker slot: a slot may die 1 + retries times
  /// before it is permanently exhausted.
  std::size_t retries = 2;
  /// Exponential respawn backoff: attempt k (0-based) waits
  /// backoff_base_ms << k plus deterministic jitter in [0, base), capped
  /// at backoff_max_ms.
  std::uint64_t backoff_base_ms = 25;
  std::uint64_t backoff_max_ms = 2000;
  /// Seed of the deterministic backoff jitter (the driver passes
  /// --seed, so a rerun reproduces the exact respawn schedule).
  std::uint64_t backoff_seed = 1;
  /// A worker that answers this many consecutive PING probes without
  /// delivering a RESULT is treated as stalled and killed (a dropped
  /// RESULT frame is indistinguishable from planning forever); the
  /// effective stall budget is worker_timeout_ms * (max_silent_pings+1)
  /// per assignment.
  std::size_t max_silent_pings = 4;
  /// An item implicated in this many worker deaths is quarantined
  /// instead of reassigned again (>= 1; 2 = "twice", the default).
  std::size_t quarantine_crashes = 2;
  /// Deterministic fault-injection spec (dist/faults.hpp grammar),
  /// filtered per (slot, generation) and forwarded to workers as
  /// --fault-plan.  "" = no injected faults.  Internal/testing only.
  std::string fault_plan;
};

/// Per-worker accounting surfaced by the driver's --cache-stats footer.
/// A respawned slot accumulates across its generations; pid is the
/// latest generation's.
struct WorkerCacheStats {
  pid_t pid = -1;
  /// The batch counters of this worker's shards, merged.
  Counters counters;
  std::size_t shards_completed = 0;
  bool failed = false;     ///< some generation crashed or exited nonzero
  bool timed_out = false;  ///< some generation was killed for a missed deadline
  std::size_t respawns = 0;
};

class ShardCoordinator {
 public:
  explicit ShardCoordinator(CoordinatorConfig config);

  /// Plans the batch across the worker fleet and returns the merged
  /// report (items in request order).  Unknown backend names throw
  /// std::invalid_argument before any process is spawned, exactly like
  /// PlanService::run.  Worker crashes and hangs do NOT throw: shards
  /// are reassigned, slots respawned, and if the whole fleet is
  /// exhausted the remaining items complete in-process
  /// (report.degraded).  A protocol violation (worker ERROR frame,
  /// version mismatch, bogus shard id) still throws std::runtime_error
  /// after reaping all children.  An empty batch returns an empty
  /// report without spawning anything.
  BatchReport run(const std::vector<BatchItem>& items);

  /// Accounting for the run() that most recently finished.
  const std::vector<WorkerCacheStats>& worker_stats() const {
    return worker_stats_;
  }

  /// Shard s -> indices into `items`, every index exactly once.  Shards
  /// are never empty; at most min(shard_count, items.size()) of them.
  /// Deterministic for a given (items, shard_count, strategy).
  static std::vector<std::vector<std::size_t>> partition(
      const std::vector<BatchItem>& items, std::size_t shard_count,
      ShardStrategy strategy);

 private:
  /// argv of one worker child; `fleet_size` (the spawned worker count,
  /// <= config workers) sizes the default per-worker thread split.
  std::vector<std::string> worker_argv(std::size_t fleet_size) const;

  CoordinatorConfig config_;
  std::vector<WorkerCacheStats> worker_stats_;
};

}  // namespace latticesched::dist
