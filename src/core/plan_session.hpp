// Session-oriented incremental planning: the PlanSession API.
//
// Real fleets are not static — nodes die, get redeployed, change radio
// range or join late — yet a one-shot `PlanRequest -> PlanResult` query
// recomputes the world from scratch on any change.  A PlanSession is
// the long-lived form of the planner: open it on a deployment, apply
// DeploymentDeltas (add / remove / move / set_radius / set_channels)
// and call replan() for a fresh set of PlanResults that reuses
// everything the delta did not invalidate:
//
//   * torus searches stay memoized in the session's TilingCache (the
//     tiling/mobile backends re-search only when the prototile geometry
//     itself changed — a new cache key);
//   * the greedy fixpoint table — the slot table `greedy` and
//     `region-greedy` both return — is the session's one warm state, and
//     apply() keeps it exact: it carries the table onto the new sensor
//     ids and repairs it (incremental_greedy_coloring over rows streamed
//     from the new deployment, no graph) from the changed sensors plus
//     their old and new conflict rows.  replan() hands it to both
//     backends, which return it as is;
//   * only the order-sensitive heuristics (`welsh-powell`, `dsatur`,
//     `annealing`) and `auto` read a conflict graph.  The session builds
//     it once when one of them is selected and patches it incrementally
//     across deltas (clean rows remapped, dirty rows streamed again)
//     instead of re-running build_conflict_graph.
//
// The session is exact, not approximate: replan() after ANY delta
// sequence returns results identical (slots, verdict, optimality gap)
// to a cold Planner::plan of the final deployment — pinned by the
// delta/cold property tests.  PlannerRegistry::plan_all is a thin
// wrapper over a single-step session, so every existing consumer
// (examples, PlanService, and through it every server connection and
// fleet worker) already runs on this API.
//
// MutationTrace packages a timestamped delta sequence; dynamic
// scenarios (core/scenario.hpp) generate them and the driver's
// --script flag parses them from the text format documented at
// parse_mutation_script.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "core/tiling_cache.hpp"

namespace latticesched {

/// One batch of deployment mutations.  Application order within a
/// delta: removals, moves, radius changes, additions, channel change.
/// Every position reference resolves against the PRE-delta deployment;
/// unknown positions throw std::invalid_argument and leave the session
/// untouched (strong exception safety).
struct DeploymentDelta {
  struct SensorAdd {
    Point position;
    /// Neighborhood of the new sensor; nullopt inherits the pre-delta
    /// deployment's first prototile (type 0).
    std::optional<Prototile> neighborhood;
  };
  struct SensorMove {
    Point from;
    Point to;
  };
  struct RadiusChange {
    PointVec sensors;        ///< positions to reshape; empty = every sensor
    std::int64_t radius = 1; ///< Chebyshev radius of the new neighborhood
    /// Explicit shape override (non-Chebyshev radio footprints); when
    /// set, `radius` is ignored.
    std::optional<Prototile> neighborhood;
  };

  std::vector<SensorAdd> add_sensors;
  PointVec remove_sensors;
  std::vector<SensorMove> move_sensors;
  std::vector<RadiusChange> set_radius;
  std::optional<std::uint32_t> set_channels;

  bool empty() const {
    return add_sensors.empty() && remove_sensors.empty() &&
           move_sensors.empty() && set_radius.empty() &&
           !set_channels.has_value();
  }
};

/// A timestamped delta of a dynamic scenario or session script.
struct MutationStep {
  std::uint64_t at = 0;  ///< step timestamp; strictly increasing, >= 1
  DeploymentDelta delta;
};

/// A scripted evolution of a deployment, replayed by PlanSession (step
/// 0 is the initial deployment; step `at` the state after that delta).
struct MutationTrace {
  std::vector<MutationStep> steps;
  bool empty() const { return steps.empty(); }
};

/// Parses the driver's --script text format into a trace.  Lines hold
/// whitespace-separated tokens; '#' starts a comment.  Directives:
///
///   dim D                 coordinate dimension (default 2; before any step)
///   step [AT]             begins a step (AT strictly increasing; default +1)
///   add X..               add a sensor at (X..), inheriting prototile 0
///   add X.. r R           ... with a Chebyshev radius-R neighborhood
///   remove X..            remove the sensor at (X..)
///   move X.. Y..          move the sensor at (X..) to (Y..)
///   radius R              reshape every sensor to Chebyshev radius R
///   radius R at X.. ..    reshape only the listed sensors
///   channels C            plan subsequent steps with C channels
///
/// Throws std::invalid_argument (with the line number) on malformed
/// input or operations before the first `step`.
MutationTrace parse_mutation_script(const std::string& text);

/// Emits a trace in the parse_mutation_script format (only Chebyshev
/// radius changes and default-neighborhood adds are representable;
/// explicit prototile overrides throw std::invalid_argument).
std::string mutation_trace_to_script(const MutationTrace& trace,
                                     std::size_t dim = 2);

/// Incremental-state threshold: apply() patches the conflict graph and
/// repairs the warm greedy table while dirty * denominator <= fleet,
/// i.e. up to a quarter of the fleet.  Past that the localized rebuild
/// probes more candidate cells than one clean build_conflict_graph
/// would; the graph is dropped and the next greedy / region-greedy
/// replan runs cold.  Patched and rebuilt graphs, warm and cold tables
/// are identical (pinned by the session property tests).
inline constexpr std::size_t kGraphPatchDirtyDenominator = 4;

struct SessionConfig {
  /// Backend names; empty = every registered backend supporting the
  /// request (PlannerRegistry::plan_all semantics).
  std::vector<std::string> backends;
  TorusSearchConfig search;
  SaConfig sa;
  bool verify = true;
  std::uint32_t channels = 1;
  /// Spatial shard count for the region-sharded backend
  /// (PlanRequest::regions).  Only its cold plans color shards
  /// (SessionStats::regions_replanned counts them); warm replans return
  /// the table apply() repaired.
  std::size_t regions = 1;
  /// Ignored: no backend reads a region halo.  The field stays only
  /// because perfbench/workloads.cpp assigns it.
  std::int64_t region_halo = -1;
  /// Euclidean geometry of the coordinates (PlanRequest::lattice).
  /// Must outlive the session.
  const Lattice* lattice = nullptr;
  /// Known tiling of the INITIAL deployment (PlanRequest::tiling); the
  /// first applied delta invalidates it and the memoized torus search
  /// takes over.  Must outlive the session.
  const Tiling* tiling = nullptr;
  /// Shared memoization cache (e.g. the PlanService cache); null =
  /// the session owns a private cache.
  TilingCache* tiling_cache = nullptr;
  /// Planner registry; null = PlannerRegistry::global().
  const PlannerRegistry* planners = nullptr;
  /// Shared tuning cache for the `auto` backend (PlanRequest::tune_cache);
  /// null = each auto plan tunes into a private in-memory cache.
  tune::TuneCache* tune_cache = nullptr;
  /// Auto-backend tuning budgets (PlanRequest::{tune_trials,
  /// tune_budget_ms}) and scenario-family label (PlanRequest::tune_family).
  std::size_t tune_trials = 8;
  std::uint64_t tune_budget_ms = 0;
  std::string tune_family;
};

class PlanSession {
 public:
  /// Opens a session owning `initial`.
  explicit PlanSession(Deployment initial, SessionConfig config = {});

  /// One-shot borrow: plans `request.deployment` in place without
  /// copying it (the PlannerRegistry::plan_all fast path).  The first
  /// apply() deep-copies the deployment into the session, so the
  /// borrowed pointer only needs to outlive the steps that precede it.
  /// Throws std::invalid_argument on a null deployment.
  PlanSession(const PlanRequest& request, const PlannerRegistry& planners,
              std::vector<std::string> backends);

  PlanSession(const PlanSession&) = delete;
  PlanSession& operator=(const PlanSession&) = delete;

  /// Applies one delta to the deployment, patching the session's
  /// incremental state (the conflict graph when one is held, and the
  /// greedy fixpoint table, repaired to the new deployment's).
  /// Throws std::invalid_argument on an invalid delta (unknown
  /// position, duplicate target cell, zero channels); the session is
  /// unchanged when it throws.
  void apply(const DeploymentDelta& delta);

  /// Plans the current deployment on the session's backends.  Reuses
  /// the patched conflict graph, the memoized torus searches and the
  /// repaired greedy fixpoint table; the results are identical to a cold
  /// plan of the current deployment.  Throws std::invalid_argument on
  /// unknown backend names.
  std::vector<PlanResult> replan();

  const Deployment& deployment() const { return *deployment_; }
  std::uint32_t channels() const { return base_.channels; }
  /// The scenario-supplied tiling still in force (null after a delta).
  const Tiling* tiling() const { return base_.tiling; }
  /// Deltas applied so far.
  std::uint64_t steps_applied() const { return stats_.deltas; }

  /// Incremental-reuse accounting (what the session saved).
  struct Stats {
    std::uint64_t replans = 0;
    std::uint64_t deltas = 0;
    std::uint64_t graph_builds = 0;   ///< full build_conflict_graph runs
    std::uint64_t graph_patches = 0;  ///< incremental patches instead
    std::uint64_t warm_greedy = 0;    ///< replans handed the warm table
    std::uint64_t regions = 0;            ///< largest region partition planned
    std::uint64_t regions_replanned = 0;  ///< region shards colored cold
    std::uint64_t seam_sensors = 0;       ///< seam sensors seen by stitches
    /// Slots recolored by cold stitches, plus (on warm region-greedy
    /// replans) PlanWarmStart::recolored: the slots apply()'s repairs
    /// changed since the previous replan, summed over those deltas.
    std::uint64_t stitch_recolored = 0;
  };
  const Stats& stats() const { return stats_; }

  /// The cache the session memoizes torus searches in (its own, unless
  /// SessionConfig supplied a shared one).
  TilingCache& tiling_cache() {
    return base_.tiling_cache != nullptr ? *base_.tiling_cache : own_cache_;
  }

 private:
  std::vector<const Planner*> select_backends() const;

  PlanRequest base_;  ///< request template (deployment/graph/warm set per call)
  const PlannerRegistry* planners_;
  std::vector<std::string> backends_;

  std::optional<Deployment> owned_;     ///< engaged once the session mutates
  const Deployment* deployment_;        ///< current deployment (owned or borrowed)

  TilingCache own_cache_;               ///< used when no shared cache given

  /// Conflict graph of `deployment_`, patched across deltas; absent
  /// until an order-sensitive coloring backend needs it (or after a
  /// delta too large to patch profitably).
  std::optional<Graph> graph_;

  /// The exact greedy fixpoint table of `deployment_`, repaired by every
  /// apply().  Absent until a greedy / region-greedy plan ran (or after a
  /// delta past the patch threshold).
  std::optional<PlanWarmStart> warm_;

  Stats stats_;
};

}  // namespace latticesched
