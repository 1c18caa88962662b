// The greedy first-fit table of `greedy` and `region-greedy`, planned
// cold and repaired warm, from conflict rows streamed one at a time
// (ConflictRows): neither the all-pairs conflict graph nor any block of
// it is ever materialized.
//
//   1. plan_greedy: the cold plan, one first-fit pass in index order
//      that reads only the partners with smaller ids, whose slots are
//      all first-fit looks at (ConflictRows::for_each_earlier).  When
//      ids ascend with cells, a sensor probes just its earlier offsets
//      (12 of 24 at radius 1), ORs their slots into a one-word mask and
//      takes the first zero bit, with no call and no row buffer;
//      unordered ids and hashed scatters filter their streamed row to
//      the smaller ids.
//   2. repair_greedy_table: the lazy-row incremental_greedy_coloring
//      pass, each row streamed once into one buffer.  PlanSession::apply
//      repairs its carried table through it.  Greedy first-fit is the
//      unique fixpoint of c(u) = mex{c(v) : v ~ u, v < u}, so the
//      repaired table is EXACTLY the cold plan of the new deployment.
//
// Both are exactly greedy_coloring(build_conflict_graph(d)).
// `region-greedy` is `greedy` under a second name: it plans every
// deployment as one region and still reports RegionShardStats.  The
// rectangular shards and their seam stitch are gone: on 250k- and
// 1M-sensor grids no shard count planned faster than one region, at
// any thread count (EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/coloring.hpp"
#include "graph/interference.hpp"

namespace latticesched {

/// Counters of `region-greedy` plans.  PlanSession accumulates them into
/// SessionStats; the batch service and the distributed coordinator merge
/// them into the report footer.
struct RegionShardStats {
  std::uint64_t regions = 0;          ///< 1 per plan of a non-empty fleet
  std::uint64_t regions_planned = 0;  ///< 1 per such plan colored cold
  /// Always 0: one region has no seams.  The field stays only because
  /// perfbench/workloads.cpp reads it.
  std::uint64_t seam_sensors = 0;
  /// Slots the session's repairs changed since the previous replan
  /// (PlanWarmStart::recolored), reported by warm plans; a cold plan
  /// recolors nothing.
  std::uint64_t stitch_recolored = 0;
};

/// Greedy first-fit in index order over each sensor's conflict partners
/// with smaller ids; identical to greedy_coloring(build_conflict_graph(d)).
Coloring plan_greedy(const Deployment& d);

/// Repairs `colors`, a greedy table carried onto the ids `rows` streams
/// (kUncolored for sensors without a slot), to the deployment's exact
/// greedy fixpoint: incremental_greedy_coloring from `seeds`, the
/// sensors whose conflict rows changed, with each row streamed once into
/// one buffer.  Returns the number of slots that changed.
std::uint64_t repair_greedy_table(const ConflictRows& rows, Coloring& colors,
                                  const std::vector<std::uint32_t>& seeds);

}  // namespace latticesched
