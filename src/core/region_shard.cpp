#include "core/region_shard.hpp"

#include <algorithm>

#include "core/planner.hpp"
#include "util/parallel.hpp"

namespace latticesched {

namespace {

/// Streaming one-row builder for the stitch pass: the candidate offset
/// sets are computed once and shared across every lazily requested row
/// (build_conflict_block amortizes them per block; the stitch asks for
/// single rows).
class RowBuilder {
 public:
  explicit RowBuilder(const Deployment& d)
      : d_(d), offsets_by_type_(d.prototiles().size()),
        uniform_tiles_(d.prototiles().size() == 1) {}

  void build(std::uint32_t u, std::vector<std::uint32_t>& row) const {
    row.clear();
    const std::uint32_t type = d_.type_of(u);
    PointVec& offsets = offsets_by_type_[type];
    if (offsets.empty()) offsets = conflict_candidate_offsets(d_, type);
    const Point& pos = d_.position(u);
    for (const Point& off : offsets) {
      const auto v = d_.sensor_at(pos + off);
      // Single prototile: a candidate-offset hit is a conflict by
      // construction (same fast path as build_conflict_block).
      if (v.has_value() && *v != u &&
          (uniform_tiles_ || sensors_conflict(d_, u, *v))) {
        row.push_back(static_cast<std::uint32_t>(*v));
      }
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }

 private:
  const Deployment& d_;
  mutable std::vector<PointVec> offsets_by_type_;
  const bool uniform_tiles_;
};

}  // namespace

RegionGrid partition_regions(const Deployment& d, std::size_t regions) {
  RegionGrid grid;
  const std::size_t n = d.size();
  if (n == 0) return grid;

  const std::size_t dim = d.position(0).dim();
  Point lo = d.position(0);
  Point hi = d.position(0);
  for (const Point& p : d.positions()) {
    for (std::size_t a = 0; a < dim; ++a) {
      lo[a] = std::min(lo[a], p[a]);
      hi[a] = std::max(hi[a], p[a]);
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

  grid.region_of.resize(n);
  grid.members.resize(total);
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
                      const PlanWarmStart* warm, RegionShardStats* stats) {
  const std::size_t n = d.size();
  Coloring colors(n, kUncolored);
  if (n == 0) return colors;

  // A warm plan still partitions: the shard count is part of the
  // backend's reported detail, and it must match the cold plan's.
  const RegionGrid grid = partition_regions(d, regions);
  const std::size_t total = grid.boxes.size();

  // Warm plans color no shard: the carried table already holds the
  // previous fixpoint, and the stitch below repairs it from the sensors
  // whose rows changed (plus every uncolored one).
  std::vector<std::uint32_t> seeds;
  std::uint64_t seam_count = 0;
  const bool warm_ok = warm != nullptr && warm->greedy_colors.size() == n;
  if (warm_ok) {
    colors = warm->greedy_colors;
    seeds = warm->dirty;
  } else {
    // Phase 1: first-fit each shard independently from its streaming
    // CSR block (intra-region edges only; blocks are discarded as soon
    // as the shard is colored, so memory stays bounded per region times
    // the worker count).  Writes touch disjoint index sets, and
    // cross-region colors are never read, so the fan-out is race-free.
    std::vector<char> seam(n, 0);
    parallel_for(0, total, [&](std::size_t r) {
      const std::vector<std::uint32_t>& mem = grid.members[r];
      if (mem.empty()) return;
      const CsrU32 block = build_conflict_block(d, mem);
      std::vector<bool> used;
      for (std::size_t li = 0; li < mem.size(); ++li) {
        const std::uint32_t u = mem[li];
        const auto row = block.row(li);
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
    // Phase 2 seeds: every seam sensor (interior vertices already
    // satisfy their mex equation against the local colors).
    for (std::uint32_t u = 0; u < n; ++u) {
      if (seam[u]) {
        ++seam_count;
        seeds.push_back(u);
      }
    }
  }

  // Phase 2: stitch back to the global greedy fixpoint.  Rows are
  // streamed lazily and memoized — only seeds and vertices reached by
  // color propagation are ever materialized.
  const RowBuilder builder(d);
  std::vector<std::vector<std::uint32_t>> rows(n);
  std::vector<char> have(n, 0);
  const NeighborProvider provider =
      [&](std::uint32_t u) -> const std::vector<std::uint32_t>& {
    if (!have[u]) {
      builder.build(u, rows[u]);
      have[u] = 1;
    }
    return rows[u];
  };
  const Coloring before = colors;
  colors = incremental_greedy_coloring(n, provider, std::move(colors), seeds);

  if (stats != nullptr) {
    stats->regions += total;
    if (!warm_ok) stats->regions_planned += total;
    stats->seam_sensors += seam_count;
    for (std::size_t i = 0; i < n; ++i) {
      if (colors[i] != before[i]) ++stats->stitch_recolored;
    }
  }
  return colors;
}

}  // namespace latticesched
