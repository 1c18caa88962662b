// Dense integer indexing of finite point sets — the engine's id space.
//
// Every hot path in the library (torus search, slot lookup, collision
// checking, conflict-graph and simulator construction) ultimately asks the
// same question: "which small integer is this lattice point?"  The seed
// answered it with hash maps (`PointMap`), paying a hash + probe per query
// inside the innermost loops.  `PointIndexer` answers it with arithmetic: a
// point set is embedded in an axis-aligned grid, an id is the mixed-radix
// (strided) linear coordinate, and both directions of the lookup are O(d)
// integer operations with no hashing and no allocation.
//
// Three construction modes cover the library's uses:
//  * for_box:        every point of a Box, ids in Box::points() order
//                    (odometer, last axis fastest);
//  * for_sublattice: the canonical coset representatives of a full-rank
//                    sublattice, ids in coset_representatives() order
//                    (first axis fastest) — the HNF reduce() image is
//                    exactly the box [0, H[0][0]) x ... x [0, H[d-1][d-1]),
//                    so coset ids are a perfect dense code;
//  * for_points:     an arbitrary (duplicate-free) point list, ids in the
//                    given order, backed by a grid-shaped id table over the
//                    bounding box with an invalid-id sentinel.  The points
//                    themselves are not kept: each id stores its grid-linear
//                    cell (one uint32), and point_of decodes it.
//
// A point's grid-linear cell is sum_i (p_i - lo_i) * stride_i, so a fixed
// offset moves every in-hull point by one fixed linear displacement
// (`displacement`); hot loops probe neighbours as id_at(cell + disp).
// When ids ascend with cells (`ids_ascend`), the sign of that
// displacement also says whether the neighbour's id is smaller.
//
// for_points densifies the bounding box, so callers indexing scattered
// points should bound the admissible grid volume (`try_for_points`) and
// keep a hash-based fallback for pathological spreads.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "lattice/point.hpp"
#include "lattice/region.hpp"
#include "lattice/sublattice.hpp"

namespace latticesched {

class PointIndexer {
 public:
  /// Sentinel returned by id_of for points outside the indexed set.
  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;

  /// Thrown by for_points / try_for_points when a point repeats.
  struct DuplicatePoint : std::invalid_argument {
    using std::invalid_argument::invalid_argument;
  };

  /// Indexes every point of `box`; ids follow Box::points() order.
  static PointIndexer for_box(const Box& box);

  /// Indexes the canonical coset representatives of `m`; ids follow
  /// Sublattice::coset_representatives() order, so
  /// point_of(i) == m.coset_representatives()[i].
  static PointIndexer for_sublattice(const Sublattice& m);

  /// Indexes `pts` (must be duplicate-free); ids follow the given order.
  /// Throws DuplicatePoint on duplicates and std::invalid_argument on an
  /// empty list or mixed dimensions.
  static PointIndexer for_points(const PointVec& pts);

  /// As for_points, but declines (nullopt) when the bounding-box grid
  /// would exceed `max_grid_cells` — callers keep their hash fallback.
  /// Errors are for_points'.
  static std::optional<PointIndexer> try_for_points(
      const PointVec& pts, std::uint64_t max_grid_cells);

  std::size_t dim() const { return dim_; }
  /// Number of indexed points; valid ids are [0, size()).
  std::size_t size() const { return size_; }
  /// The grid hull the ids live in.
  const Box& bounds() const { return bounds_; }

  /// Id of p, or kInvalid when p is not an indexed point.  O(d), no
  /// hashing.  (In for_box / for_sublattice mode every grid point is
  /// indexed; in for_points mode the grid table filters non-members.)
  std::uint32_t id_of(const Point& p) const {
    if (p.dim() != dim_) return kInvalid;
    std::uint64_t linear = 0;
    for (std::size_t i = 0; i < dim_; ++i) {
      const std::int64_t c = p[i] - lo_[i];
      if (c < 0 || c >= extent_[i]) return kInvalid;
      linear += static_cast<std::uint64_t>(c) * stride_[i];
    }
    return id_at(linear);
  }

  /// id_of(p + off) without building the sum.
  std::uint32_t id_of_sum(const Point& p, const Point& off) const {
    if (p.dim() != dim_ || off.dim() != dim_) return kInvalid;
    std::uint64_t linear = 0;
    for (std::size_t i = 0; i < dim_; ++i) {
      const std::int64_t c = p[i] + off[i] - lo_[i];
      if (c < 0 || c >= extent_[i]) return kInvalid;
      linear += static_cast<std::uint64_t>(c) * stride_[i];
    }
    return id_at(linear);
  }

  /// Id at grid-linear cell `linear` (< bounds().size()), or kInvalid.
  std::uint32_t id_at(std::uint64_t linear) const {
    return id_table_.empty() ? static_cast<std::uint32_t>(linear)
                             : id_table_[linear];
  }

  /// Grid-linear cell of id (< size()); ids are cells in the grid modes.
  std::uint32_t linear_of(std::uint32_t id) const {
    return linear_of_.empty() ? id : linear_of_[id];
  }

  /// Whether ids ascend with grid-linear cells (linear_of is increasing),
  /// so a point at a smaller cell has a smaller id.  Always true in the
  /// grid modes; in for_points mode, true iff the points came in the
  /// grid's row-major order (holes allowed), as every Box::points() list
  /// does.  Recorded while the id table fills, one compare per point.
  bool ids_ascend() const { return ids_ascend_; }

  /// Linear displacement of `off`: the cell of p + off is the cell of p
  /// plus displacement(off) whenever both points lie in bounds().
  std::int64_t displacement(const Point& off) const;

  bool contains(const Point& p) const { return id_of(p) != kInvalid; }

  /// Inverse map; id must be < size().  O(d) decode of the id's cell.
  Point point_of(std::uint32_t id) const;

  /// Materializes point_of for all ids (in id order).
  PointVec points() const;

 private:
  PointIndexer(Point lo, std::array<std::int64_t, kMaxDim> extent,
               bool axis0_fastest);

  std::size_t dim_ = 0;
  std::size_t size_ = 0;
  Point lo_;
  Box bounds_;
  std::array<std::int64_t, kMaxDim> extent_{};
  std::array<std::uint64_t, kMaxDim> stride_{};
  /// Empty in the dense grid modes; otherwise grid-linear -> id (kInvalid
  /// marks grid cells that are not members of the indexed set).
  std::vector<std::uint32_t> id_table_;
  /// Empty in the dense grid modes; otherwise id -> grid-linear cell.
  std::vector<std::uint32_t> linear_of_;
  bool axis0_fastest_ = false;
  bool ids_ascend_ = true;
};

}  // namespace latticesched
