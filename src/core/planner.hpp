// Unified planner pipeline: one way to produce and evaluate schedules.
//
// Every consumer used to hand-wire deployment → scheduler → verification
// → metrics; this subsystem folds that pipeline into a single
// `PlanRequest → PlanResult` call behind a registry of backends, so the
// paper's head-to-head comparison (constructive tiling schedules vs.
// coloring/TDMA baselines) is one `plan_all` invocation — the examples,
// the comparison benches and the `latticesched` CLI driver all run
// through here.  Backends:
//
//   tiling        Theorem-1/2 constructive schedule (torus/lattice search)
//   greedy        first-fit conflict-graph coloring over streamed rows
//                 (no graph is materialized)
//   welsh-powell  first-fit by decreasing degree
//   dsatur        Brélaz saturation coloring
//   annealing     simulated-annealing coloring (Wang–Ansari stand-in)
//   region-greedy spatially sharded greedy: per-region streamed conflict
//                 rows + seam stitching (exactly the greedy table)
//   tdma          one slot per sensor (the paper's non-scaling foil)
//   mobile        tiling schedule + the Conclusions' location-based rule
//                 (2-D only; PlanResult::mobile carries the scheduler)
//   auto          meta-backend: picks a delegate backend + knob config via
//                 the tuning subsystem (src/tune/), consulting a persistent
//                 TuneCache and falling back to a bounded search on miss;
//                 excluded from the default "all" selection
//
// Two extensions are part of the planner currency rather than bolted on
// by consumers: multi-channel schedules (request.channels > 1 folds every
// backend's slot table into per-sensor (slot, channel) assignments,
// verified by the multichannel collision checker) and tiling memoization
// (request.tiling_cache routes the torus search through a TilingCache so
// scenario sweeps re-pay only the first search).
//
// plan_all fans the selected backends out over the shared thread pool
// (util/parallel.hpp) and prebuilds the conflict graph once for the
// order-sensitive coloring backends (welsh-powell, dsatur, annealing,
// and auto, which may delegate to them); results come back in request
// order regardless of thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/collision.hpp"
#include "core/multichannel.hpp"
#include "core/schedule.hpp"
#include "graph/interference.hpp"
#include "graph/sa_coloring.hpp"
#include "tiling/tiling.hpp"
#include "tiling/torus_search.hpp"

namespace latticesched {

class Lattice;
class MobileScheduler;
class TilingCache;
struct RegionShardStats;

namespace tune {
class TuneCache;
}  // namespace tune

/// The warm state a PlanSession hands its backends: the exact greedy
/// fixpoint table of the request's deployment.  PlanSession::apply keeps
/// it exact across deltas (greedy first-fit is the unique fixpoint of
/// c(u) = mex of lower-neighbor colors, so repairing the changed region
/// converges to the cold answer — see graph/coloring.hpp), and `greedy`
/// and `region-greedy` return it as is.
struct PlanWarmStart {
  /// Greedy slot table of the CURRENT deployment.
  std::vector<std::uint32_t> greedy_colors;
  /// Slots the session's repairs changed since the table was last handed
  /// to a replan.  After several deltas this is a sum over them (a slot
  /// changed by two deltas counts twice).  region-greedy reports it as
  /// its stitch_recolored.
  std::uint64_t recolored = 0;
};

struct PlanRequest {
  /// Deployment to schedule.  Required; must outlive the call.
  const Deployment* deployment = nullptr;

  /// Known tiling consistent with the deployment (e.g. the one a rule-D1
  /// deployment was built from).  The tiling backend uses it directly
  /// instead of searching for one.
  const Tiling* tiling = nullptr;

  /// Torus-search knobs for the tiling backend's period sweep.
  TorusSearchConfig search;

  /// Annealing knobs for the `annealing` backend.
  SaConfig sa;

  /// Run the paper's exhaustive collision checker on the produced slots.
  bool verify = true;

  /// Orthogonal frequency channels (>= 1).  When > 1 the pipeline folds
  /// the backend's slot table into (slot, channel) assignments — slot
  /// e maps to (e / channels, e % channels), the multichannel extension's
  /// construction — and the collision verdict covers the folded schedule.
  std::uint32_t channels = 1;

  /// Memoization cache for the torus search (tiling/mobile backends).
  /// When null every plan re-runs the period sweep; the batch service
  /// always supplies its cache.
  TilingCache* tiling_cache = nullptr;

  /// Euclidean geometry of the deployment's coordinates (the mobile
  /// backend's Voronoi cells).  Null = the square lattice Z².  Must
  /// outlive the call.
  const Lattice* lattice = nullptr;

  /// Prebuilt conflict graph of `deployment` (the order-sensitive
  /// coloring backends).  When null, plan_all builds it once and shares
  /// it; a lone Planner::plan call builds its own.
  const Graph* conflict_graph = nullptr;

  /// Warm-start state kept current across deltas (supplied by
  /// PlanSession::replan).  Backends that declare wants_warm_start() may
  /// return its table instead of planning; the result MUST equal the
  /// cold plan.  Must outlive the call.
  const PlanWarmStart* warm = nullptr;

  /// Spatial shard count for the region-sharded backend (>= 1; 1 = one
  /// region, still planned via the streaming builder).  Other backends
  /// ignore it.
  std::size_t regions = 1;

  /// Ignored: no backend reads a region halo.  The field stays only
  /// because perfbench/workloads.cpp assigns it.
  std::int64_t region_halo = -1;

  /// When non-null, the region-sharded backend accumulates its partition
  /// / seam / stitch counters here (flows into SessionStats and the
  /// batch report footer).
  RegionShardStats* region_stats = nullptr;

  /// Persistent tuning cache for the `auto` backend (tune/tune_cache.hpp).
  /// Null = the auto backend tunes into a private in-memory cache that
  /// dies with the call; the batch service always supplies its cache.
  tune::TuneCache* tune_cache = nullptr;

  /// Trial budget for an auto-backend tuning search on a tune-cache miss
  /// (measured candidate configs; the default config is always trial 0).
  std::size_t tune_trials = 8;

  /// Wall-clock budget (ms) for that search; 0 = trials-only.  A wall
  /// budget is inherently timing-dependent, so seeded-determinism
  /// guarantees hold only under a pure trial budget.
  std::uint64_t tune_budget_ms = 0;

  /// Scenario-family label for the tuning fingerprint ("" = derived from
  /// the deployment's dimension / channel / prototile shape).  The batch
  /// service stamps the scenario name here so sweeps of the same family
  /// share tuned configs.
  std::string tune_family;
};

struct PlanResult {
  std::string backend;
  bool ok = false;       ///< slots were produced (false: see `error`)
  std::string error;     ///< why the backend failed (ok == false)

  SensorSlots slots;     ///< per-sensor slot table (ok == true)
  std::string detail;    ///< backend-specific description of the schedule

  /// Collision verdict (request.verify; trivially true when skipped —
  /// `verified` below records whether the checker actually ran, so
  /// reports can render an unchecked schedule as such).
  bool collision_free = false;
  bool verified = false;
  CollisionReport report;

  /// Paper's lower bound max_k |N_k| on any collision-free periodic
  /// schedule of a window containing a full tile (Theorems 1/2).
  std::uint32_t lower_bound = 0;
  /// slots.period / lower_bound; 1.0 = provably optimal slot count.
  double optimality_gap = 0.0;

  /// min/max sensors per slot over the deployment, as in
  /// analysis.hpp's slot_balance: 1.0 = perfectly even, 0 = some slot idle.
  double slot_balance = 0.0;
  /// Fraction of time a sensor may transmit (= 1 / period).
  double duty_cycle = 0.0;

  double wall_seconds = 0.0;  ///< scheduling time (verification excluded)

  /// The tiling the tiling backend scheduled (reusable by callers that
  /// need the point-schedule, e.g. mobile location scheduling).
  std::optional<Tiling> tiling;

  /// Channel count the request planned with (recorded even when the
  /// backend failed, so report rows of a multichannel sweep never
  /// misreport their channel count).
  std::uint32_t channels = 1;

  /// Per-sensor (slot, channel) assignments (request.channels > 1); the
  /// collision verdict above covers them when present.
  std::optional<MultiChannelSlots> channel_slots;

  /// The mobile backend's location scheduler, ready to drive a
  /// MobileSimulator — no consumer rebuilds it from `tiling` by hand.
  std::shared_ptr<const MobileScheduler> mobile;

  /// Auto-backend provenance: "" for ordinary backends, "cache-hit" when
  /// the tuned config came straight from the TuneCache, "searched" when a
  /// bounded tuning run picked it.
  std::string tuned;

  /// Serialized TunedConfig the auto backend delegated with
  /// (tune/knob_space.hpp; e.g. "backend=tiling;node_limit=20000000").
  std::string tuned_config;

  /// Slot period actually deployed: the folded multichannel period when
  /// channels were requested, the plain slot period otherwise.
  std::uint32_t effective_period() const {
    return channel_slots.has_value() ? channel_slots->period : slots.period;
  }
};

/// A scheduling backend.  Implementations produce a slot table; the base
/// class wraps it with timing, verification and the shared diagnostics so
/// every backend reports the same PlanResult surface.
class Planner {
 public:
  virtual ~Planner() = default;

  virtual std::string name() const = 0;

  /// Whether this backend can plan the request at all (e.g. the mobile
  /// backend is 2-D only).  plan_all's default "all backends" selection
  /// skips non-supporting backends; explicitly named backends always run
  /// and report their failure through PlanResult::error.
  virtual bool supports(const PlanRequest& request) const {
    (void)request;
    return true;
  }

  /// Whether the backend consumes PlanRequest::conflict_graph (plan_all
  /// prebuilds the graph once iff some selected backend wants it).
  virtual bool wants_conflict_graph() const { return false; }

  /// Whether the backend can exploit PlanRequest::warm (`greedy` and
  /// `region-greedy` return its table).  Such a backend's slot table is
  /// the greedy fixpoint, which PlanSession keeps and repairs as the
  /// next replan's warm start.
  virtual bool wants_warm_start() const { return false; }

  /// Whether plan_all's default "all backends" selection includes this
  /// backend.  The `auto` meta-backend opts out: it delegates to another
  /// registered backend, so an "all" sweep running it too would plan the
  /// winning backend twice.  Explicitly naming it always works.
  virtual bool in_default_set() const { return true; }

  /// Full pipeline: compute slots, verify, attach diagnostics.  Never
  /// throws for backend-level failures — those come back as ok == false.
  /// Virtual so meta-backends (the `auto` tuner) can wrap a delegate's
  /// full pipeline instead of contributing a compute() step.
  virtual PlanResult plan(const PlanRequest& request) const;

 protected:
  struct Raw {
    SensorSlots slots;
    std::string detail;
    std::optional<Tiling> tiling;
    std::shared_ptr<const MobileScheduler> mobile;
  };

  /// Backend-specific slot production; throws on failure (the base turns
  /// the exception into ok == false).
  virtual Raw compute(const PlanRequest& request) const = 0;
};

/// Name-indexed planner collection.  The global() registry comes
/// pre-populated with the eight built-in backends; register_planner adds
/// custom ones (replacing any existing planner of the same name).
class PlannerRegistry {
 public:
  PlannerRegistry() = default;

  void register_planner(std::unique_ptr<Planner> planner);

  /// Registered names, in registration order.
  std::vector<std::string> names() const;

  /// The planner registered under `name`, or nullptr.
  const Planner* find(const std::string& name) const;

  /// Runs the named backends ("" or empty list = all registered backends
  /// supporting the request, in registration order) concurrently on the
  /// shared pool and returns their results in the same order.  Builds the
  /// conflict graph once for the backends that want it when the request
  /// doesn't carry one.  Throws std::invalid_argument on unknown names or
  /// a null deployment.  This is a thin wrapper over a single-step
  /// PlanSession (core/plan_session.hpp) — open a session instead when
  /// the deployment will change.
  std::vector<PlanResult> plan_all(
      const PlanRequest& request,
      const std::vector<std::string>& backends = {}) const;

  /// Process-wide registry with the built-in backends.
  static PlannerRegistry& global();

 private:
  std::vector<std::unique_ptr<Planner>> planners_;
};

/// Splits "a,b,c" (or "all" / "") into backend names for plan_all.
std::vector<std::string> parse_backend_list(const std::string& csv);

// Report emission/parsing (CSV and JSON) lives in core/report.hpp.

}  // namespace latticesched
