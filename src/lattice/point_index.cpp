#include "lattice/point_index.hpp"

#include <limits>
#include <stdexcept>

namespace latticesched {

namespace {

Box grid_bounds(const Point& lo,
                const std::array<std::int64_t, kMaxDim>& extent,
                std::size_t dim) {
  Point hi = lo;
  for (std::size_t i = 0; i < dim; ++i) hi[i] += extent[i] - 1;
  return Box(lo, hi);
}

}  // namespace

PointIndexer::PointIndexer(Point lo,
                           std::array<std::int64_t, kMaxDim> extent,
                           bool axis0_fastest)
    : dim_(lo.dim()), lo_(lo), bounds_(grid_bounds(lo, extent, lo.dim())),
      extent_(extent), axis0_fastest_(axis0_fastest) {
  std::uint64_t volume = 1;
  for (std::size_t i = 0; i < dim_; ++i) {
    if (extent_[i] <= 0) {
      throw std::invalid_argument("PointIndexer: empty extent");
    }
    volume *= static_cast<std::uint64_t>(extent_[i]);
  }
  if (volume > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("PointIndexer: grid exceeds uint32 ids");
  }
  std::uint64_t s = 1;
  if (axis0_fastest_) {
    for (std::size_t i = 0; i < dim_; ++i) {
      stride_[i] = s;
      s *= static_cast<std::uint64_t>(extent_[i]);
    }
  } else {
    for (std::size_t i = dim_; i-- > 0;) {
      stride_[i] = s;
      s *= static_cast<std::uint64_t>(extent_[i]);
    }
  }
  size_ = static_cast<std::size_t>(volume);
}

PointIndexer PointIndexer::for_box(const Box& box) {
  std::array<std::int64_t, kMaxDim> extent{};
  for (std::size_t i = 0; i < box.dim(); ++i) extent[i] = box.extent(i);
  return PointIndexer(box.lo(), extent, /*axis0_fastest=*/false);
}

PointIndexer PointIndexer::for_sublattice(const Sublattice& m) {
  // reduce() maps every point to the box [0, H[i][i]) per axis, and every
  // grid point of that box is its own canonical representative, so the
  // coset space is exactly a dense grid.  coset_representatives()
  // increments axis 0 first, hence the axis0-fastest stride order.
  std::array<std::int64_t, kMaxDim> extent{};
  for (std::size_t i = 0; i < m.dim(); ++i) extent[i] = m.basis().at(i, i);
  return PointIndexer(Point::zero(m.dim()), extent, /*axis0_fastest=*/true);
}

PointIndexer PointIndexer::for_points(const PointVec& pts) {
  auto idx = try_for_points(pts, std::numeric_limits<std::uint32_t>::max());
  if (!idx.has_value()) {
    throw std::invalid_argument("PointIndexer: grid exceeds uint32 ids");
  }
  return std::move(*idx);
}

std::optional<PointIndexer> PointIndexer::try_for_points(
    const PointVec& pts, std::uint64_t max_grid_cells) {
  if (pts.empty()) {
    throw std::invalid_argument("PointIndexer: empty point list");
  }
  const std::size_t d = pts.front().dim();
  Point lo = pts.front(), hi = pts.front();
  for (const Point& p : pts) {
    if (p.dim() != d) {
      throw std::invalid_argument("PointIndexer: mixed dimensions");
    }
    for (std::size_t i = 0; i < d; ++i) {
      if (p[i] < lo[i]) lo[i] = p[i];
      if (p[i] > hi[i]) hi[i] = p[i];
    }
  }
  std::array<std::int64_t, kMaxDim> extent{};
  std::uint64_t volume = 1;
  for (std::size_t i = 0; i < d; ++i) {
    extent[i] = hi[i] - lo[i] + 1;
    // Guard overflow before multiplying pathological spreads.
    if (static_cast<std::uint64_t>(extent[i]) > max_grid_cells ||
        volume > max_grid_cells / static_cast<std::uint64_t>(extent[i])) {
      return std::nullopt;
    }
    volume *= static_cast<std::uint64_t>(extent[i]);
  }
  if (volume > max_grid_cells ||
      volume > std::numeric_limits<std::uint32_t>::max()) {
    return std::nullopt;
  }
  PointIndexer idx(lo, extent, /*axis0_fastest=*/false);
  idx.id_table_.assign(static_cast<std::size_t>(volume), kInvalid);
  idx.linear_of_.resize(pts.size());
  idx.size_ = pts.size();
  // No branch on the order: a session's fleet is unordered, and a branch
  // would mispredict on about every other point.
  std::uint64_t previous = 0;
  bool ascend = true;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    std::uint64_t linear = 0;
    for (std::size_t k = 0; k < d; ++k) {
      linear += static_cast<std::uint64_t>(pts[i][k] - lo[k]) *
                idx.stride_[k];
    }
    if (idx.id_table_[linear] != kInvalid) {
      throw DuplicatePoint("PointIndexer: duplicate point");
    }
    idx.id_table_[linear] = i;
    idx.linear_of_[i] = static_cast<std::uint32_t>(linear);
    ascend &= linear >= previous;
    previous = linear;
  }
  idx.ids_ascend_ = ascend;
  return idx;
}

std::int64_t PointIndexer::displacement(const Point& off) const {
  std::int64_t disp = 0;
  for (std::size_t i = 0; i < dim_; ++i) {
    disp += off[i] * static_cast<std::int64_t>(stride_[i]);
  }
  return disp;
}

Point PointIndexer::point_of(std::uint32_t id) const {
  if (id >= size_) {
    throw std::out_of_range("PointIndexer::point_of: bad id");
  }
  Point p = lo_;
  std::uint64_t rest = linear_of(id);
  if (axis0_fastest_) {
    for (std::size_t i = 0; i < dim_; ++i) {
      p[i] += static_cast<std::int64_t>(
          rest % static_cast<std::uint64_t>(extent_[i]));
      rest /= static_cast<std::uint64_t>(extent_[i]);
    }
  } else {
    for (std::size_t i = dim_; i-- > 0;) {
      p[i] += static_cast<std::int64_t>(
          rest % static_cast<std::uint64_t>(extent_[i]));
      rest /= static_cast<std::uint64_t>(extent_[i]);
    }
  }
  return p;
}

PointVec PointIndexer::points() const {
  PointVec out;
  out.reserve(size_);
  for (std::uint32_t i = 0; i < size_; ++i) out.push_back(point_of(i));
  return out;
}

}  // namespace latticesched
