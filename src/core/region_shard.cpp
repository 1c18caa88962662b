#include "core/region_shard.hpp"

#include <algorithm>
#include <numeric>

#include "util/parallel.hpp"

namespace latticesched {

RegionGrid partition_regions(const Deployment& d, std::size_t regions) {
  RegionGrid grid;
  const std::size_t n = d.size();
  if (n == 0) return grid;

  const std::size_t dim = d.position(0).dim();
  Point lo = d.position(0);
  Point hi = d.position(0);
  if (const PointIndexer* index = d.position_index()) {
    lo = index->bounds().lo();
    hi = index->bounds().hi();
  } else {
    for (const Point& p : d.positions()) {
      for (std::size_t a = 0; a < dim; ++a) {
        lo[a] = std::min(lo[a], p[a]);
        hi[a] = std::max(hi[a], p[a]);
      }
    }
  }
  const Box hull(lo, hi);

  // Axis split counts: repeatedly halve the axis with the widest current
  // slice until the grid reaches the requested region count (or every
  // slice is a single lattice line).
  const std::size_t target = std::max<std::size_t>(1, std::min(regions, n));
  std::vector<std::size_t> parts(dim, 1);
  std::size_t prod = 1;
  while (prod < target) {
    std::size_t best = dim;
    double best_width = 1.0;
    for (std::size_t a = 0; a < dim; ++a) {
      const double width = static_cast<double>(hull.extent(a)) /
                           static_cast<double>(parts[a]);
      if (width > best_width) {
        best_width = width;
        best = a;
      }
    }
    if (best == dim) break;  // all slices are single points already
    prod = prod / parts[best] * (parts[best] + 1);
    ++parts[best];
  }

  // Chunk widths ceil(extent / parts): (extent-1)/width <= parts-1, so
  // every coordinate lands in a valid chunk without wide arithmetic.
  // With the width fixed, only ceil(extent / width) chunks are non-empty
  // — shrink parts to that count so no box degenerates past the hull
  // (e.g. extent 13 split 8 ways rounds to width 2 = 7 real chunks).
  std::vector<std::int64_t> width(dim, 1);
  std::size_t total = 1;
  for (std::size_t a = 0; a < dim; ++a) {
    width[a] = (hull.extent(a) + static_cast<std::int64_t>(parts[a]) - 1) /
               static_cast<std::int64_t>(parts[a]);
    parts[a] = static_cast<std::size_t>((hull.extent(a) + width[a] - 1) /
                                        width[a]);
    total *= parts[a];
  }

  grid.boxes.reserve(total);
  for (std::size_t r = 0; r < total; ++r) {
    Point box_lo(dim);
    Point box_hi(dim);
    std::size_t rest = r;
    for (std::size_t a = 0; a < dim; ++a) {
      const std::int64_t chunk = static_cast<std::int64_t>(rest % parts[a]);
      rest /= parts[a];
      box_lo[a] = lo[a] + chunk * width[a];
      box_hi[a] = std::min(hi[a], box_lo[a] + width[a] - 1);
    }
    grid.boxes.emplace_back(box_lo, box_hi);
  }

  grid.region_of.assign(n, 0);
  grid.members.resize(total);
  if (total == 1) {
    grid.members[0].resize(n);
    std::iota(grid.members[0].begin(), grid.members[0].end(), 0u);
    return grid;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Point& p = d.position(i);
    std::size_t r = 0;
    std::size_t stride = 1;
    for (std::size_t a = 0; a < dim; ++a) {
      r += stride * static_cast<std::size_t>((p[a] - lo[a]) / width[a]);
      stride *= parts[a];
    }
    grid.region_of[i] = static_cast<std::uint32_t>(r);
    grid.members[r].push_back(static_cast<std::uint32_t>(i));
  }
  return grid;
}

Coloring plan_regions(const Deployment& d, std::size_t regions,
                      RegionShardStats* stats) {
  const std::size_t n = d.size();
  Coloring colors(n, kUncolored);
  if (n == 0) return colors;

  const RegionGrid grid = partition_regions(d, regions);
  const std::size_t total = grid.boxes.size();
  const ConflictRows rows(d);

  // Phase 1: first-fit each shard independently, one streamed row at a
  // time (intra-region edges only; no per-shard block is built).  Writes
  // touch disjoint index sets, and cross-region colors are never read,
  // so the fan-out is race-free.
  std::vector<char> seam(n, 0);
  parallel_for(0, total, [&](std::size_t r) {
    std::vector<std::uint32_t> row;
    std::vector<bool> used;
    for (const std::uint32_t u : grid.members[r]) {
      rows.build(u, row);
      used.assign(row.size() + 2, false);
      for (std::uint32_t v : row) {
        if (grid.region_of[v] != r) {
          seam[u] = 1;
          continue;
        }
        if (v < u && colors[v] != kUncolored && colors[v] < used.size()) {
          used[colors[v]] = true;
        }
      }
      std::uint32_t c = 0;
      while (used[c]) ++c;
      colors[u] = c;
    }
  });

  // Phase 2: stitch back to the global greedy fixpoint from every seam
  // sensor (interior vertices already satisfy their mex equation against
  // the local colors).  Only seeds and vertices reached by color
  // propagation are ever streamed; a plan without seams is the fixpoint
  // already.
  std::vector<std::uint32_t> seeds;
  for (std::uint32_t u = 0; u < n; ++u) {
    if (seam[u]) seeds.push_back(u);
  }
  const std::uint64_t recolored =
      seeds.empty() ? 0 : repair_greedy_table(rows, colors, seeds);

  if (stats != nullptr) {
    stats->regions += total;
    stats->regions_planned += total;
    stats->seam_sensors += seeds.size();
    stats->stitch_recolored += recolored;
  }
  return colors;
}

std::uint64_t repair_greedy_table(const ConflictRows& rows, Coloring& colors,
                                  const std::vector<std::uint32_t>& seeds) {
  std::vector<std::uint32_t> row;
  const NeighborProvider provider =
      [&](std::uint32_t u) -> const std::vector<std::uint32_t>& {
    rows.build(u, row);
    return row;
  };
  const Coloring before = colors;
  const std::size_t n = colors.size();
  colors = incremental_greedy_coloring(n, provider, std::move(colors), seeds);
  std::uint64_t changed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (colors[i] != before[i]) ++changed;
  }
  return changed;
}

}  // namespace latticesched
