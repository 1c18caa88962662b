// Spatial region sharding: plan huge deployments region by region.
//
// The paper's schedules are defined pointwise, so a deployment can be
// planned in rectangular spatial shards as long as the slot tables agree
// across interference seams.  This module owns the pieces every
// consumer (planner backends, PlanSession, batch service, coordinator,
// driver) shares:
//
//   1. The partitioner: the deployment's bounding window split into an
//      axis-aligned grid of ~`regions` rectangular core boxes, each
//      sensor assigned to exactly one.
//   2. The region planner: each shard first-fit colored independently
//      (parallel_for over shards) from conflict rows streamed one at a
//      time (ConflictRows) — neither the full all-pairs conflict graph
//      nor a per-shard block is ever materialized.  At one region this
//      is plain first-fit over streamed rows, the `greedy` backend's
//      cold plan.
//   3. The fixpoint repair (repair_greedy_table): the lazy-row
//      incremental_greedy_coloring pass, each row streamed once into one
//      buffer.  It stitches the seams of a sharded plan: greedy first-fit
//      is the unique fixpoint of c(u) = mex{c(v) : v ~ u, v < u}, so the
//      stitched table is EXACTLY greedy_coloring(build_conflict_graph(d))
//      — the serial cold plan — while only seam rows are ever streamed
//      in.  PlanSession::apply repairs its carried table through it too.
//
// plan_regions is cold only.  Warm replans read the session's carried
// table, which apply() already repaired (see PlanWarmStart).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/coloring.hpp"
#include "graph/interference.hpp"
#include "lattice/region.hpp"

namespace latticesched {

/// Counters of one plan_regions call.  PlanSession accumulates them into
/// SessionStats; the batch service and the distributed coordinator merge
/// them into the report footer.
struct RegionShardStats {
  std::uint64_t regions = 0;          ///< shards in the partition
  std::uint64_t regions_planned = 0;  ///< shards colored cold by this call
  std::uint64_t seam_sensors = 0;     ///< planned sensors with cross-region conflicts
  std::uint64_t stitch_recolored = 0; ///< vertices the stitch pass recolored
};

/// The spatial partition: disjoint core boxes covering the deployment's
/// bounding window, plus the per-sensor assignment.
struct RegionGrid {
  std::vector<Box> boxes;                ///< core box per region
  std::vector<std::uint32_t> region_of;  ///< region index per sensor
  /// Sensor ids per region, ascending (global first-fit order).
  std::vector<std::vector<std::uint32_t>> members;
};

/// Splits the deployment's bounding window into an axis-aligned grid of
/// roughly `regions` rectangular shards (axes with the largest extent are
/// split first) and assigns every sensor to its shard.  The window comes
/// from the dense position index when there is one, and one region takes
/// every sensor without reading a position.
RegionGrid partition_regions(const Deployment& d, std::size_t regions);

/// Plans `d` region by region and stitches the seams; returns a slot
/// table identical to greedy_coloring(build_conflict_graph(d)) without
/// ever materializing the full conflict graph.  Counters are
/// accumulated into `stats` when non-null.
Coloring plan_regions(const Deployment& d, std::size_t regions,
                      RegionShardStats* stats);

/// Repairs `colors`, a greedy table carried onto the ids `rows` streams
/// (kUncolored for sensors without a slot), to the deployment's exact
/// greedy fixpoint: incremental_greedy_coloring from `seeds`, the
/// sensors whose conflict rows changed, with each row streamed once into
/// one buffer.  Returns the number of slots that changed.
std::uint64_t repair_greedy_table(const ConflictRows& rows, Coloring& colors,
                                  const std::vector<std::uint32_t>& seeds);

}  // namespace latticesched
