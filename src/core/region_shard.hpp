// Spatial region sharding: plan huge deployments region by region.
//
// The paper's schedules are defined pointwise, so a deployment can be
// planned in rectangular spatial shards as long as the slot tables agree
// across interference seams.  This module owns the three pieces every
// consumer (planner backend, PlanSession, batch service, coordinator,
// driver) shares:
//
//   1. The partitioner: the deployment's bounding window split into an
//      axis-aligned grid of ~`regions` rectangular core boxes, each
//      sensor assigned to exactly one.
//   2. The region planner: each shard first-fit colored independently
//      (parallel_for over shards) from a streaming per-region CSR block
//      (build_conflict_block) — the full all-pairs conflict graph is
//      never materialized, keeping memory bounded per region.
//   3. The seam stitcher: sensors with cross-region conflicts are
//      repaired with the lazy-row incremental_greedy_coloring fixpoint
//      pass.  Greedy first-fit is the unique fixpoint of
//      c(u) = mex{c(v) : v ~ u, v < u}, so the stitched table is
//      EXACTLY greedy_coloring(build_conflict_graph(d)) — the serial
//      cold plan — while only seam rows are ever streamed in.
//
// Incremental replans color no shard: PlanSession hands the carried
// fixpoint table and the sensors whose conflict rows changed (the same
// PlanWarmStart the greedy backend repairs over graph rows), and the
// stitch pass repairs the table from those seeds over its lazy rows.
// The same fixpoint argument makes a warm region plan equal the cold one.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/coloring.hpp"
#include "graph/interference.hpp"
#include "lattice/region.hpp"

namespace latticesched {

struct PlanWarmStart;

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
/// split first) and assigns every sensor to its shard.
RegionGrid partition_regions(const Deployment& d, std::size_t regions);

/// Plans `d` region by region and stitches the seams; returns a slot
/// table identical to greedy_coloring(build_conflict_graph(d)) without
/// ever materializing the full conflict graph.  With `warm` (a carried
/// table of d's size), no shard is colored: the table is repaired from
/// warm->dirty over lazily streamed rows, and the result is still
/// exactly the cold table.  Counters are accumulated into `stats` when
/// non-null.
Coloring plan_regions(const Deployment& d, std::size_t regions,
                      const PlanWarmStart* warm, RegionShardStats* stats);

}  // namespace latticesched
