#include "dist/coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <deque>
#include <numeric>
#include <poll.h>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/planner.hpp"
#include "core/report.hpp"
#include "dist/faults.hpp"
#include "dist/process.hpp"
#include "dist/wire.hpp"
#include "util/cli.hpp"

namespace latticesched::dist {

namespace {

using Clock = std::chrono::steady_clock;

/// Relative cost estimate of planning one item: window area times
/// neighborhood area, scaled by the step count of a dynamic item (each
/// step replans).  Only the RATIO between items matters (LPT bin
/// packing), so a crude geometric proxy beats no estimate without
/// needing to build the scenario.
/// Saturating multiply: million-sensor items would overflow the naive
/// n²·ball²·steps product and wrap to a TINY weight, inverting the LPT
/// packing exactly on the items that need balancing most.
std::uint64_t mul_sat(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r;
  if (__builtin_mul_overflow(a, b, &r)) return UINT64_MAX;
  return r;
}

std::uint64_t item_weight(const BatchItem& item) {
  const std::uint64_t n =
      static_cast<std::uint64_t>(std::max<std::int64_t>(1, item.query.params.n));
  const std::uint64_t ball = static_cast<std::uint64_t>(
      2 * std::max<std::int64_t>(0, item.query.params.radius) + 1);
  const std::uint64_t steps = static_cast<std::uint64_t>(
      1 + std::max<std::int64_t>(0, item.query.params.steps));
  const std::uint64_t w =
      mul_sat(mul_sat(mul_sat(n, n), mul_sat(ball, ball)), steps);
  return std::max<std::uint64_t>(1, w);
}

/// SplitMix64 — the deterministic jitter source for respawn backoff.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Milliseconds from `now` until `t`, clamped to [0, INT_MAX] for poll.
int ms_until(Clock::time_point now, Clock::time_point t) {
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(t - now).count();
  if (left <= 0) return 0;
  if (left > INT_MAX) return INT_MAX;
  return static_cast<int>(left);
}

}  // namespace

ShardStrategy parse_shard_strategy(const std::string& name) {
  if (name == "block") return ShardStrategy::kBlock;
  if (name == "weighted") return ShardStrategy::kSizeWeighted;
  throw std::invalid_argument("unknown shard strategy '" + name +
                              "' (block | weighted)");
}

ShardCoordinator::ShardCoordinator(CoordinatorConfig config)
    : config_(std::move(config)) {
  if (config_.workers == 0) {
    throw std::invalid_argument("ShardCoordinator: workers must be >= 1");
  }
  if (config_.worker_exe.empty()) {
    throw std::invalid_argument("ShardCoordinator: worker_exe is required");
  }
  if (config_.quarantine_crashes == 0) {
    throw std::invalid_argument(
        "ShardCoordinator: quarantine_crashes must be >= 1");
  }
}

std::vector<std::vector<std::size_t>> ShardCoordinator::partition(
    const std::vector<BatchItem>& items, std::size_t shard_count,
    ShardStrategy strategy) {
  const std::size_t n = items.size();
  shard_count = std::min(std::max<std::size_t>(1, shard_count), n);
  std::vector<std::vector<std::size_t>> shards;
  if (n == 0) return shards;
  shards.resize(shard_count);

  if (strategy == ShardStrategy::kBlock) {
    // Balanced contiguous blocks: the first n % shard_count shards get
    // one extra item.
    const std::size_t base = n / shard_count;
    const std::size_t extra = n % shard_count;
    std::size_t next = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      const std::size_t take = base + (s < extra ? 1 : 0);
      for (std::size_t k = 0; k < take; ++k) shards[s].push_back(next++);
    }
    return shards;
  }

  // Size-weighted LPT: heaviest item first onto the lightest shard
  // (ties by index / lowest shard id keep the result deterministic).
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&items](std::size_t a, std::size_t b) {
                     return item_weight(items[a]) > item_weight(items[b]);
                   });
  std::vector<std::uint64_t> load(shard_count, 0);
  for (std::size_t idx : order) {
    std::size_t target = 0;
    for (std::size_t s = 1; s < shard_count; ++s) {
      if (load[s] < load[target]) target = s;
    }
    shards[target].push_back(idx);
    load[target] += item_weight(items[idx]);
  }
  // Request order within each shard (stable wire bytes, stable merges).
  for (std::vector<std::size_t>& shard : shards) {
    std::sort(shard.begin(), shard.end());
  }
  return shards;
}

std::vector<std::string> ShardCoordinator::worker_argv(
    std::size_t fleet_size) const {
  std::vector<std::string> argv = {config_.worker_exe, "--worker",
                                   "--worker-fd",
                                   std::to_string(kWorkerChannelFd)};
  if (!config_.cache_dir.empty()) {
    argv.push_back("--cache-dir");
    argv.push_back(config_.cache_dir);
  }
  // Default: split the machine across the fleet ACTUALLY spawned (small
  // batches cap it below config_.workers).  Letting every worker
  // auto-size to hardware_concurrency would oversubscribe the box
  // workers-fold and can make the fleet slower than a serial run.
  std::size_t threads = config_.worker_threads;
  if (threads == 0) {
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    threads = std::max<std::size_t>(1, hw / std::max<std::size_t>(
                                             1, fleet_size));
  }
  argv.push_back("--threads");
  argv.push_back(std::to_string(threads));
  return argv;
}

BatchReport ShardCoordinator::run(const std::vector<BatchItem>& items) {
  // Fail fast on unknown backend names — same contract as
  // PlanService::run, checked before a single process is spawned.
  for (const BatchItem& item : items) {
    for (const std::string& name : item.backends) {
      if (PlannerRegistry::global().find(name) == nullptr) {
        throw std::invalid_argument("ShardCoordinator: unknown backend '" +
                                    name + "'");
      }
    }
  }
  // A malformed fault plan is a configuration error, also pre-spawn.
  const FaultPlan fault_plan = config_.fault_plan.empty()
                                   ? FaultPlan{}
                                   : FaultPlan::parse(config_.fault_plan);

  const auto t0 = Clock::now();
  worker_stats_.clear();
  BatchReport merged;
  merged.items.resize(items.size());
  if (items.empty()) {
    merged.wall_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return merged;
  }

  // Mutable: quarantine filters items out of a dead worker's shards.
  std::vector<std::vector<std::size_t>> shards =
      partition(items, config_.workers, config_.strategy);

  const int timeout_ms =
      config_.worker_timeout_ms == 0
          ? -1
          : static_cast<int>(std::min<std::uint64_t>(config_.worker_timeout_ms,
                                                     INT_MAX));

  // The liveness state machine lives here: one Slot per worker seat,
  // surviving respawns (generation bumps, queue and stats accumulate).
  struct Slot {
    WorkerProcess proc;
    std::deque<std::size_t> queue;  ///< shards assigned, oldest first
    WorkerLiveness state = WorkerLiveness::kDead;
    bool has_deadline = false;
    Clock::time_point deadline;
    std::size_t respawns_used = 0;
    std::uint64_t generation = 0;
    bool respawn_pending = false;
    Clock::time_point respawn_at;
    std::size_t silent_pings = 0;  ///< consecutive PONGs since a RESULT
  };
  std::vector<Slot> slots(shards.size());
  worker_stats_.resize(slots.size());

  // Shards waiting for a worker; seeded with every shard, refilled by
  // worker deaths.
  std::deque<std::size_t> pending;
  for (std::size_t s = 0; s < shards.size(); ++s) pending.push_back(s);

  // Worker deaths each item has been implicated in (the quarantine
  // trigger) and items still unresolved.
  std::vector<std::size_t> crash_counts(items.size(), 0);
  std::size_t remaining = items.size();

  const auto cleanup = [&]() {
    for (Slot& s : slots) {
      if (s.proc.pid > 0) kill_worker(s.proc);
      (void)close_and_reap(s.proc);
      s.state = WorkerLiveness::kDead;
    }
  };

  const auto arm_deadline = [&](Slot& s) {
    if (timeout_ms < 0) {
      s.has_deadline = false;
      return;
    }
    s.deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    s.has_deadline = true;
  };

  const auto backoff_delay = [&](std::size_t w, std::size_t attempt) {
    const std::uint64_t base = std::max<std::uint64_t>(1, config_.backoff_base_ms);
    std::uint64_t wait = attempt >= 60 ? config_.backoff_max_ms
                                       : base << attempt;
    wait = std::min(wait, std::max<std::uint64_t>(1, config_.backoff_max_ms));
    const std::uint64_t jitter =
        splitmix64(config_.backoff_seed ^ (0x517cc1b727220a95ull * (w + 1)) ^
                   attempt) %
        base;
    return std::chrono::milliseconds(wait + jitter);
  };

  const auto quarantine_item = [&](std::size_t idx) {
    BatchItemReport report;
    report.scenario = items[idx].query.scenario;
    report.label = items[idx].query.scenario;
    report.built = false;
    report.error = "quarantined: assignment crashed " +
                   std::to_string(crash_counts[idx]) + " worker(s)";
    merged.items[idx] = std::move(report);
    merged.quarantined_items.push_back(idx);
    --remaining;
  };

  // Declared before the lambdas that call it (spawn happens inside the
  // loop too, for respawns).
  const std::vector<std::string> base_argv = worker_argv(slots.size());
  const auto spawn_slot = [&](std::size_t w) {
    Slot& s = slots[w];
    std::vector<std::string> argv = base_argv;
    const FaultPlan sub = fault_plan.for_worker(w, s.generation);
    if (!sub.empty()) {
      argv.push_back("--fault-plan");
      argv.push_back(sub.to_spec());
    }
    s.proc = spawn_worker_process(argv);
    if (!set_nonblocking(s.proc.fd)) {
      throw std::runtime_error(
          "ShardCoordinator: cannot make worker channel nonblocking");
    }
    s.state = WorkerLiveness::kUnknown;
    s.respawn_pending = false;
    s.silent_pings = 0;
    worker_stats_[w].pid = s.proc.pid;
    arm_deadline(s);  // the HELLO handshake deadline
  };

  /// Kills/reaps the slot, counts the death, requeues its shards with
  /// quarantine filtering, and schedules a respawn while the retry
  /// budget lasts.  `timed_out` distinguishes deadline kills from
  /// crashes in the report counters.
  const auto handle_death = [&](std::size_t w, bool timed_out) {
    Slot& s = slots[w];
    if (s.state == WorkerLiveness::kDead) return;  // already handled
    kill_worker(s.proc);  // no-op if already gone
    (void)close_and_reap(s.proc);
    s.state = WorkerLiveness::kDead;
    s.has_deadline = false;
    s.silent_pings = 0;
    worker_stats_[w].failed = worker_stats_[w].failed || !timed_out;
    worker_stats_[w].timed_out = worker_stats_[w].timed_out || timed_out;
    if (timed_out) {
      ++merged.worker_timeouts;
    } else {
      ++merged.worker_failures;
    }
    while (!s.queue.empty()) {
      const std::size_t shard = s.queue.front();
      s.queue.pop_front();
      // Every item in a dying worker's shards is implicated; the ones
      // that have now been implicated too often are quarantined, the
      // rest requeued for reassignment.
      std::vector<std::size_t> keep;
      keep.reserve(shards[shard].size());
      for (std::size_t idx : shards[shard]) {
        if (++crash_counts[idx] >= config_.quarantine_crashes) {
          quarantine_item(idx);
        } else {
          keep.push_back(idx);
        }
      }
      shards[shard] = std::move(keep);
      if (!shards[shard].empty()) pending.push_back(shard);
    }
    if (s.respawns_used < config_.retries) {
      const std::size_t attempt = s.respawns_used++;
      ++s.generation;
      ++worker_stats_[w].respawns;
      s.respawn_pending = true;
      s.respawn_at = Clock::now() + backoff_delay(w, attempt);
    }
  };

  // Assigns pending shards to idle workers (empty queue, not Dead, not
  // Suspect — a probed worker must answer before it gets more work).
  // Unknown is assignable: the ASSIGN sits in the socket buffer until
  // the worker finishes its HELLO, exactly like the pre-hardening
  // coordinator.  Writes are deadline-bounded, so a worker that stopped
  // reading its socket is a death, not a coordinator stall.
  const auto drain_pending = [&]() {
    while (!pending.empty()) {
      std::size_t target = slots.size();
      for (std::size_t w = 0; w < slots.size(); ++w) {
        if ((slots[w].state == WorkerLiveness::kUnknown ||
             slots[w].state == WorkerLiveness::kAlive) &&
            slots[w].queue.empty()) {
          target = w;
          break;
        }
      }
      if (target == slots.size()) return;  // nobody idle right now
      const std::size_t shard = pending.front();
      if (shards[shard].empty()) {  // fully quarantined while waiting
        pending.pop_front();
        continue;
      }
      std::vector<BatchItem> shard_items;
      shard_items.reserve(shards[shard].size());
      for (std::size_t idx : shards[shard]) {
        shard_items.push_back(items[idx]);
      }
      const WireIoStatus st = write_frame_deadline(
          slots[target].proc.fd,
          {"ASSIGN",
           std::to_string(shard) + "\n" + batch_items_to_json(shard_items)},
          timeout_ms);
      if (st == WireIoStatus::kOk) {
        pending.pop_front();
        slots[target].queue.push_back(shard);
        if (!slots[target].has_deadline) arm_deadline(slots[target]);
      } else {
        // EPIPE = crash; a write that cannot even drain into the socket
        // buffer within the deadline = wedged worker.
        handle_death(target, st == WireIoStatus::kTimeout);
      }
    }
  };

  /// True while any seat can still make progress (live, or a respawn is
  /// scheduled).
  const auto fleet_viable = [&]() {
    for (const Slot& s : slots) {
      if (s.state != WorkerLiveness::kDead || s.respawn_pending) return true;
    }
    return false;
  };

  // Every worker seat exhausted with work left: finish the remaining
  // items in-process rather than throwing away everything the fleet
  // already completed.  Quarantined items stay quarantined — an item
  // that crashed two workers would likely take this process down too.
  const auto degrade_to_serial = [&]() {
    merged.degraded = true;
    std::vector<std::size_t> leftover;
    for (const std::size_t shard : pending) {
      leftover.insert(leftover.end(), shards[shard].begin(),
                      shards[shard].end());
    }
    pending.clear();
    std::sort(leftover.begin(), leftover.end());
    std::vector<BatchItem> sub;
    sub.reserve(leftover.size());
    for (const std::size_t idx : leftover) sub.push_back(items[idx]);
    PlanService fallback;
    if (!config_.cache_dir.empty()) {
      fallback.tiling_cache().set_persist_dir(config_.cache_dir);
      fallback.tune_cache().set_persist_dir(config_.cache_dir);
    }
    const BatchReport sub_report = fallback.run(sub);
    merged.counters.merge(sub_report.counters);
    for (std::size_t k = 0; k < leftover.size(); ++k) {
      merged.items[leftover[k]] = sub_report.items[k];
    }
    remaining -= leftover.size();
  };

  try {
    for (std::size_t w = 0; w < slots.size(); ++w) spawn_slot(w);
    drain_pending();

    while (remaining > 0) {
      // Respawns that have served their backoff.
      const auto now = Clock::now();
      for (std::size_t w = 0; w < slots.size(); ++w) {
        if (slots[w].respawn_pending && now >= slots[w].respawn_at) {
          spawn_slot(w);
        }
      }
      drain_pending();
      if (remaining == 0) break;
      if (!fleet_viable()) {
        degrade_to_serial();
        break;
      }

      // One poll over every live channel, bounded by the nearest worker
      // deadline or scheduled respawn — the infinite poll is gone.
      std::vector<pollfd> fds;
      std::vector<std::size_t> fd_worker;
      int poll_ms = -1;
      const auto consider = [&](Clock::time_point t) {
        const int ms = ms_until(now, t);
        if (poll_ms < 0 || ms < poll_ms) poll_ms = ms;
      };
      for (std::size_t w = 0; w < slots.size(); ++w) {
        const Slot& s = slots[w];
        if (s.respawn_pending) consider(s.respawn_at);
        if (s.state == WorkerLiveness::kDead) continue;
        fds.push_back(pollfd{s.proc.fd, POLLIN, 0});
        fd_worker.push_back(w);
        if (s.has_deadline) consider(s.deadline);
      }
      int rc;
      do {
        rc = ::poll(fds.empty() ? nullptr : fds.data(), fds.size(), poll_ms);
      } while (rc < 0 && errno == EINTR);
      if (rc < 0) {
        throw std::runtime_error("ShardCoordinator: poll failed");
      }

      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const std::size_t w = fd_worker[i];
        Slot& s = slots[w];
        // The slot may have died (and even respawned onto a fresh fd)
        // earlier in this sweep.
        if (s.state == WorkerLiveness::kDead || s.proc.fd != fds[i].fd) {
          continue;
        }
        WireMessage message;
        const WireIoStatus st =
            read_frame_deadline(s.proc.fd, &message, timeout_ms);
        if (st != WireIoStatus::kOk) {
          // kTimeout here is a mid-frame stall: the stream has no
          // resync point, so a trickling worker is a dead worker.
          handle_death(w, st == WireIoStatus::kTimeout);
          drain_pending();
          continue;
        }
        if (message.verb == "HELLO") {
          // Exact-body match: a substring test would accept version 10
          // as version 1 — the opposite of a fail-fast handshake.
          if (message.body !=
              "{\"protocol\": " + std::to_string(kProtocolVersion) + "}") {
            throw std::runtime_error(
                "ShardCoordinator: worker protocol mismatch: " +
                message.body);
          }
          if (s.state == WorkerLiveness::kUnknown) {
            s.state = WorkerLiveness::kAlive;
          }
          // The handshake deadline is met; the clock now covers the
          // first assignment, if one is queued.
          if (s.queue.empty()) {
            s.has_deadline = false;
          } else {
            arm_deadline(s);
          }
          continue;
        }
        if (message.verb == "PONG") {
          if (s.state == WorkerLiveness::kSuspect) {
            s.state = WorkerLiveness::kAlive;
          }
          ++s.silent_pings;
          if (s.silent_pings > config_.max_silent_pings) {
            // Answers probes but never delivers: a dropped RESULT frame
            // or an endless plan.  Either way the assignment is stalled.
            handle_death(w, true);
            drain_pending();
          } else {
            arm_deadline(s);
          }
          continue;
        }
        if (message.verb == "ERROR") {
          throw std::runtime_error("ShardCoordinator: worker error: " +
                                   message.body);
        }
        if (message.verb != "RESULT") {
          throw std::runtime_error(
              "ShardCoordinator: unexpected worker frame '" + message.verb +
              "'");
        }
        std::string shard_id, report_json;
        split_body(message.body, &shard_id, &report_json);
        const std::size_t shard = parse_u64(shard_id, "RESULT shard id");
        const auto owned =
            shard < shards.size()
                ? std::find(s.queue.begin(), s.queue.end(), shard)
                : s.queue.end();
        if (owned == s.queue.end()) {
          throw std::runtime_error(
              "ShardCoordinator: worker answered shard " + shard_id +
              " it does not own");
        }
        BatchReport report = parse_batch_report_json(report_json);
        if (report.items.size() != shards[shard].size()) {
          throw std::runtime_error(
              "ShardCoordinator: shard " + shard_id + " returned " +
              std::to_string(report.items.size()) + " items, expected " +
              std::to_string(shards[shard].size()));
        }
        merged.counters.merge(report.counters);
        worker_stats_[w].counters.merge(report.counters);
        ++worker_stats_[w].shards_completed;
        s.queue.erase(owned);
        for (std::size_t k = 0; k < shards[shard].size(); ++k) {
          merged.items[shards[shard][k]] = std::move(report.items[k]);
        }
        remaining -= shards[shard].size();
        shards[shard].clear();
        s.silent_pings = 0;
        if (s.state == WorkerLiveness::kSuspect) {
          s.state = WorkerLiveness::kAlive;
        }
        if (s.queue.empty()) {
          s.has_deadline = false;
        } else {
          arm_deadline(s);
        }
        drain_pending();  // this worker is idle again; hand it a shard
      }

      // Deadline expiries: the state machine's timed transitions.
      const auto after = Clock::now();
      for (std::size_t w = 0; w < slots.size(); ++w) {
        Slot& s = slots[w];
        if (s.state == WorkerLiveness::kDead || !s.has_deadline ||
            after < s.deadline) {
          continue;
        }
        // A deadline judges SILENCE — but a long blocking read on some
        // other slot may have eaten this worker's budget while its
        // frames sat unread in the socket buffer.  Pending input is
        // progress: let the next sweep read it before judging.
        pollfd probe{s.proc.fd, POLLIN, 0};
        int pr;
        do {
          pr = ::poll(&probe, 1, 0);
        } while (pr < 0 && errno == EINTR);
        if (pr > 0 &&
            (probe.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          continue;
        }
        switch (s.state) {
          case WorkerLiveness::kUnknown:
            // Never even said HELLO in time.
            handle_death(w, true);
            break;
          case WorkerLiveness::kAlive: {
            if (s.queue.empty()) {
              s.has_deadline = false;  // nothing owed; stale deadline
              break;
            }
            // Missed a frame deadline while owing a RESULT: Suspect,
            // probe it.  The reply (or the next silence) decides.
            s.state = WorkerLiveness::kSuspect;
            const WireIoStatus st =
                write_frame_deadline(s.proc.fd, {"PING", ""}, timeout_ms);
            if (st != WireIoStatus::kOk) {
              handle_death(w, st == WireIoStatus::kTimeout);
            } else {
              arm_deadline(s);
            }
            break;
          }
          case WorkerLiveness::kSuspect:
            // Probed and still silent: hung.
            handle_death(w, true);
            break;
          case WorkerLiveness::kDead:
            break;
        }
        drain_pending();
      }
    }

    // Orderly shutdown; a worker that dies with a nonzero status even
    // here is still a failure worth surfacing.
    for (std::size_t w = 0; w < slots.size(); ++w) {
      Slot& s = slots[w];
      if (s.state == WorkerLiveness::kDead) continue;
      if (write_frame_deadline(s.proc.fd, {"SHUTDOWN", ""}, timeout_ms) !=
          WireIoStatus::kOk) {
        kill_worker(s.proc);
      }
      if (close_and_reap(s.proc) != 0) {
        worker_stats_[w].failed = true;
        ++merged.worker_failures;
      }
      s.state = WorkerLiveness::kDead;
    }
  } catch (...) {
    cleanup();
    throw;
  }

  std::sort(merged.quarantined_items.begin(), merged.quarantined_items.end());
  merged.wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return merged;
}

}  // namespace latticesched::dist
