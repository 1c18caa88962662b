// Batched planning service: many (scenario, backend-set) pairs in one
// call, fanned over the shared thread pool, with torus-search results
// memoized in a TilingCache.
//
// This is the workload shape a production scheduler serves (the related
// work frames sensor scheduling as batch optimization over many
// instances): a client submits a sweep — every registry scenario, a
// radius sweep, seed replicas — and the service plans them all.  The
// cache makes repeated sweeps near-free: the period sweep for a given
// (prototile set, search budget) runs once per service lifetime, and
// the hit/miss counters come back in every BatchReport so reports can
// prove it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/counters.hpp"
#include "core/plan_session.hpp"
#include "core/planner.hpp"
#include "core/scenario.hpp"
#include "core/tiling_cache.hpp"
#include "tune/tune_cache.hpp"

namespace latticesched {

/// One unit of batch work: build the scenario, plan it on the backends.
/// Dynamic scenarios (a non-empty ScenarioInstance::trace, or an
/// explicit `trace_script`) run through a PlanSession: step 0 plans the
/// initial deployment, then every trace delta is applied and replanned
/// incrementally.
struct BatchItem {
  ScenarioQuery query;
  /// Backend names; empty = every registered backend supporting the
  /// request (PlannerRegistry::plan_all semantics).
  std::vector<std::string> backends;
  TorusSearchConfig search;
  SaConfig sa;
  bool verify = true;
  /// Ignored: no backend shards a deployment into regions.  The field
  /// stays only because perfbench/workloads.cpp assigns it; it does not
  /// ship over the wire.
  std::size_t regions = 1;
  /// Ignored: no backend reads a region halo.  The field stays only
  /// because perfbench/workloads.cpp assigns it; it does not ship over
  /// the wire.
  std::int64_t region_halo = -1;
  /// Optional mutation trace in the parse_mutation_script text format
  /// (core/plan_session.hpp); overrides the scenario's own trace.  The
  /// driver's --script flag ships through here — including over the
  /// distributed wire.
  std::string trace_script;
  /// Auto-backend tuning budgets (SessionConfig::{tune_trials,
  /// tune_budget_ms}); ship over the distributed wire like every other
  /// planning knob.
  std::size_t tune_trials = 8;
  std::uint64_t tune_budget_ms = 0;
};

/// The SessionConfig `item` plans with: the item's knobs, the built
/// instance's channels and geometry (borrowed, so `instance` must outlive
/// the session), and the shared caches and registry.  PlanService::run
/// and the planning server open every item session through it.
SessionConfig session_config(const BatchItem& item,
                             const ScenarioInstance& instance,
                             TilingCache* tiling_cache,
                             tune::TuneCache* tune_cache,
                             const PlannerRegistry* planners);

/// Results of one step of a dynamic item.
struct BatchStepReport {
  std::uint64_t step = 0;   ///< 0 = initial deployment, else the trace `at`
  std::size_t sensors = 0;  ///< fleet size at this step
  std::vector<PlanResult> results;
};

struct BatchItemReport {
  std::string scenario;        ///< registry name
  std::string label;           ///< instance label (report key)
  std::size_t sensors = 0;     ///< initial fleet size
  std::uint32_t channels = 1;
  bool built = false;          ///< scenario generator succeeded
  std::string error;           ///< generator failure (built == false)
  /// Static items: the backends' results.  Dynamic items: the FINAL
  /// step's results (the full sequence lives in `steps`).
  std::vector<PlanResult> results;
  /// Per-step results of a dynamic item, in step order (empty for
  /// static items).
  std::vector<BatchStepReport> steps;

  /// Built, and every backend produced a verified collision-free plan
  /// (on every step, for dynamic items).
  bool all_ok() const;
};

struct BatchReport {
  std::vector<BatchItemReport> items;  ///< in request order
  /// Cache and tuning counters of THIS run.
  Counters counters;
  /// Worker processes that died (or exited nonzero) during a distributed
  /// run (src/dist); their shards were reassigned, so a nonzero count
  /// with all_ok() means the sweep survived the failures.  Always 0 for
  /// in-process PlanService runs.
  std::uint64_t worker_failures = 0;
  /// Workers killed by the coordinator for missing their deadlines
  /// (hung handshake, silent Suspect probe, mid-frame stall) — counted
  /// separately from worker_failures because a hang usually means a
  /// deadline/budget problem, not a crash.  Always 0 in-process.
  std::uint64_t worker_timeouts = 0;
  /// True when the coordinator exhausted every worker slot (spawns plus
  /// retries) and finished the remaining items by in-process serial
  /// execution instead of throwing away completed work.
  bool degraded = false;
  /// Indices (into `items`) quarantined after their assignment crashed
  /// repeated workers; reported as built=false items with a quarantine
  /// error instead of being retried forever.  Sorted ascending.
  std::vector<std::size_t> quarantined_items;
  double wall_seconds = 0.0;

  bool all_ok() const;
};

class PlanService {
 public:
  /// Uses the global planner/scenario registries unless given others.
  /// The service owns its TilingCache; keep one service alive across
  /// batches to keep the cache warm.
  explicit PlanService(const PlannerRegistry* planners = nullptr,
                       const ScenarioRegistry* scenarios = nullptr);

  TilingCache& tiling_cache() { return cache_; }
  tune::TuneCache& tune_cache() { return tune_cache_; }

  /// Plans every item (fanned over the shared pool; results in request
  /// order at any thread count).  Scenario-build failures are reported
  /// per item, never thrown; unknown backend names throw
  /// std::invalid_argument before any work starts.
  BatchReport run(const std::vector<BatchItem>& items);

  /// Convenience: one BatchItem per registered scenario, sharing params
  /// and backend set — "plan the whole registry".
  std::vector<BatchItem> registry_batch(
      const ScenarioParams& params = {},
      const std::vector<std::string>& backends = {}) const;

  /// Lifts (scenario, params) queries (e.g. sweep-helper output) into
  /// batch items sharing one backend set.
  static std::vector<BatchItem> items_for(
      const std::vector<ScenarioQuery>& queries,
      const std::vector<std::string>& backends = {});

 private:
  const PlannerRegistry* planners_;
  const ScenarioRegistry* scenarios_;
  TilingCache cache_;
  tune::TuneCache tune_cache_;
};

}  // namespace latticesched
