#include "graph/interference.hpp"

#include <algorithm>
#include <stdexcept>

namespace latticesched {

Deployment::Deployment(PointVec positions, std::vector<std::uint32_t> types,
                       std::vector<Prototile> prototiles)
    : positions_(std::move(positions)), types_(std::move(types)),
      prototiles_(std::move(prototiles)) {
  if (positions_.size() != types_.size()) {
    throw std::invalid_argument("Deployment: positions/types mismatch");
  }
  if (prototiles_.empty()) {
    throw std::invalid_argument("Deployment: no prototiles");
  }
  for (std::uint32_t t : types_) {
    if (t >= prototiles_.size()) {
      throw std::invalid_argument("Deployment: bad prototile index");
    }
  }
  if (positions_.empty()) return;
  // Every probe adds prototile offsets to positions, so a prototile of
  // another dimension could only ever give wrong answers.
  for (const Prototile& t : prototiles_) {
    if (t.dim() != positions_.front().dim()) {
      throw std::invalid_argument(
          "Deployment: prototile dimension differs from the positions'");
    }
  }
  // Dense first: lattice deployments get arithmetic ids.  The sentinel id
  // table is O(hull volume) (same density demand as coverage_grid), so
  // only scattered hulls, which the dense index declines, are hashed.
  const std::uint64_t cap = std::min<std::uint64_t>(
      kDenseGridCellCap,
      std::max<std::uint64_t>(std::uint64_t{1} << 16,
                              64 * positions_.size()));
  try {
    position_index_ = PointIndexer::try_for_points(positions_, cap);
  } catch (const PointIndexer::DuplicatePoint&) {
    throw std::invalid_argument("Deployment: duplicate sensor position");
  }
  if (position_index_.has_value()) return;
  index_of_position_.reserve(positions_.size());
  for (std::uint32_t i = 0; i < positions_.size(); ++i) {
    if (!index_of_position_.emplace(positions_[i], i).second) {
      throw std::invalid_argument("Deployment: duplicate sensor position");
    }
  }
}

Deployment Deployment::uniform(PointVec positions, Prototile n) {
  std::vector<std::uint32_t> types(positions.size(), 0);
  std::vector<Prototile> protos;
  protos.push_back(std::move(n));
  return Deployment(std::move(positions), std::move(types),
                    std::move(protos));
}

Deployment Deployment::grid(const Box& box, Prototile n) {
  return uniform(box.points(), std::move(n));
}

Deployment Deployment::assemble(PointVec positions,
                                std::vector<std::uint32_t> types,
                                std::vector<Prototile> prototiles) {
  return Deployment(std::move(positions), std::move(types),
                    std::move(prototiles));
}

Deployment Deployment::from_tiling(const Tiling& t, const Box& box) {
  PointVec positions = box.points();
  std::vector<std::uint32_t> types;
  types.reserve(positions.size());
  for (const Point& p : positions) {
    types.push_back(t.covering(p).prototile);
  }
  return Deployment(std::move(positions), std::move(types), t.prototiles());
}

PointVec Deployment::coverage_of(std::size_t i) const {
  return neighborhood_of(i).translated(positions_.at(i));
}

std::optional<std::size_t> Deployment::sensor_at(const Point& p) const {
  if (position_index_.has_value()) {
    const std::uint32_t id = position_index_->id_of(p);
    if (id == PointIndexer::kInvalid) return std::nullopt;
    return static_cast<std::size_t>(id);
  }
  const auto it = index_of_position_.find(p);
  if (it == index_of_position_.end()) return std::nullopt;
  return static_cast<std::size_t>(it->second);
}

std::optional<PointIndexer> Deployment::coverage_grid(
    std::uint64_t max_cells) const {
  if (positions_.empty()) return std::nullopt;
  const std::size_t d = positions_.front().dim();
  // Densifying costs O(hull volume) per consumer, so demand the hull be
  // comparably sized to the actual coverage: sparse-but-wide deployments
  // stay on the hash paths even under the absolute cap.
  std::uint64_t total_coverage = 0;
  for (std::uint32_t t : types_) total_coverage += prototiles_[t].size();
  max_cells = std::min<std::uint64_t>(
      max_cells,
      std::max<std::uint64_t>(std::uint64_t{1} << 16, 32 * total_coverage));
  // Hull of positions (the dense position index holds it already),
  // dilated by the hull of every prototile's bounding box: conservative
  // (may include never-covered cells) but exact enough — grid mode
  // answers id_of for every covered point in O(d).
  Point lo = positions_.front(), hi = positions_.front();
  if (position_index_.has_value()) {
    lo = position_index_->bounds().lo();
    hi = position_index_->bounds().hi();
  } else {
    for (const Point& p : positions_) {
      for (std::size_t a = 0; a < d; ++a) {
        lo[a] = std::min(lo[a], p[a]);
        hi[a] = std::max(hi[a], p[a]);
      }
    }
  }
  Point off_lo = Point::zero(d), off_hi = Point::zero(d);
  for (const Prototile& t : prototiles_) {
    const Box bb = t.bounding_box();
    for (std::size_t a = 0; a < d; ++a) {
      off_lo[a] = std::min(off_lo[a], bb.lo()[a]);
      off_hi[a] = std::max(off_hi[a], bb.hi()[a]);
    }
  }
  std::uint64_t volume = 1;
  for (std::size_t a = 0; a < d; ++a) {
    lo[a] += off_lo[a];
    hi[a] += off_hi[a];
    const std::uint64_t extent = static_cast<std::uint64_t>(hi[a] - lo[a] + 1);
    if (extent > max_cells || volume > max_cells / extent) {
      return std::nullopt;
    }
    volume *= extent;
  }
  return PointIndexer::for_box(Box(lo, hi));
}

CsrU32 build_listeners(const Deployment& d) {
  CsrU32 listeners;
  listeners.begin_counting(d.size());
  for (std::uint32_t u = 0; u < d.size(); ++u) {
    const Point& pos = d.position(u);
    for (const Point& e : d.neighborhood_of(u).points()) {
      const auto r = d.sensor_at(pos + e);
      if (r.has_value() && *r != u) listeners.count(u);
    }
  }
  listeners.finish_counting();
  for (std::uint32_t u = 0; u < d.size(); ++u) {
    const Point& pos = d.position(u);
    for (const Point& e : d.neighborhood_of(u).points()) {
      const auto r = d.sensor_at(pos + e);
      if (r.has_value() && *r != u) {
        listeners.push(u, static_cast<std::uint32_t>(*r));
      }
    }
  }
  return listeners;
}

Graph build_conflict_graph(const Deployment& d) {
  const ConflictRows rows(d);
  std::vector<std::vector<std::uint32_t>> adj(d.size());
  std::vector<std::uint32_t> row;
  for (std::uint32_t u = 0; u < d.size(); ++u) {
    rows.build(u, row);
    adj[u].assign(row.begin(), row.end());
  }
  return Graph::from_sorted_adjacency(std::move(adj));
}

PointVec conflict_candidate_offsets(const Deployment& d,
                                    std::uint32_t type) {
  PointVec diffs;
  const Prototile& nu = d.prototiles()[type];
  for (const Prototile& nv : d.prototiles()) {
    for (const Point& a : nu.points()) {
      for (const Point& b : nv.points()) diffs.push_back(a - b);
    }
  }
  return sorted_unique(std::move(diffs));
}

std::int64_t interference_reach(const Deployment& d) {
  std::int64_t reach = 0;
  for (std::uint32_t t = 0; t < d.prototiles().size(); ++t) {
    for (const Point& off : conflict_candidate_offsets(d, t)) {
      reach = std::max(reach, off.norm_inf());
    }
  }
  return reach;
}

ConflictRows::ConflictRows(const Deployment& d)
    : d_(d), index_(d.position_index()),
      ascend_(index_ != nullptr && index_->ids_ascend()),
      by_type_(d.prototiles().size()) {
  const std::vector<Prototile>& protos = d.prototiles();
  for (std::uint32_t t = 0; t < by_type_.size(); ++t) {
    Probe& probe = by_type_[t];
    for (const Point& off : conflict_candidate_offsets(d, t)) {
      if (off.is_zero()) continue;  // the sensor itself
      probe.offsets.push_back(off);
      probe.reach = std::max(probe.reach, off.norm_inf());
      if (index_ == nullptr) continue;
      probe.disp.push_back(index_->displacement(off));
      if (probe.disp.back() < 0) {
        probe.earlier.push_back(
            static_cast<std::uint32_t>(probe.offsets.size() - 1));
      }
    }
    if (protos.size() == 1) continue;
    // A type-s partner at offset a - b (a in N_t, b in N_s) conflicts.
    const PointVec& offs = probe.offsets;
    probe.hits.assign(protos.size() * offs.size(), 0);
    for (std::size_t s = 0; s < protos.size(); ++s) {
      for (const Point& a : protos[t].points()) {
        for (const Point& b : protos[s].points()) {
          const auto k = std::lower_bound(offs.begin(), offs.end(), a - b);
          if (k != offs.end() && *k == a - b) {
            probe.hits[s * offs.size() + (k - offs.begin())] = 1;
          }
        }
      }
    }
  }
}

void ConflictRows::build(std::uint32_t u,
                         std::vector<std::uint32_t>& row) const {
  const Probe& probe = by_type_[d_.type_of(u)];
  const Point& pos = d_.position(u);
  const bool inside = interior(pos, probe);
  const std::int64_t cell = inside ? index_->linear_of(u) : 0;
  const std::size_t k_max = probe.offsets.size();
  row.resize(k_max);
  std::size_t n = 0;
  for (std::size_t k = 0; k < k_max; ++k) {
    std::uint32_t v = PointIndexer::kInvalid;
    if (inside) {
      v = index_->id_at(static_cast<std::uint64_t>(cell + probe.disp[k]));
    } else if (index_ != nullptr) {
      v = index_->id_of_sum(pos, probe.offsets[k]);
    } else if (const auto hit = d_.sensor_at(pos + probe.offsets[k])) {
      v = static_cast<std::uint32_t>(*hit);
    }
    if (v != PointIndexer::kInvalid && conflicts(probe, v, k)) row[n++] = v;
  }
  row.resize(n);
  // Canonical offsets on a row-major fleet already give ascending ids.
  if (!std::is_sorted(row.begin(), row.end())) {
    std::sort(row.begin(), row.end());
  }
}

bool sensors_conflict(const Deployment& d, std::size_t i, std::size_t j) {
  if (i == j) return false;
  // Coverage lists are translates of sorted prototiles, and translation
  // preserves the canonical order, so a two-pointer merge finds any
  // common point without building a set (or allocating at all).
  const PointVec& a = d.neighborhood_of(i).points();
  const PointVec& b = d.neighborhood_of(j).points();
  const Point& pi = d.position(i);
  const Point& pj = d.position(j);
  std::size_t x = 0, y = 0;
  while (x < a.size() && y < b.size()) {
    const Point pa = a[x] + pi;
    const Point pb = b[y] + pj;
    if (pa == pb) return true;
    if (pa < pb) {
      ++x;
    } else {
      ++y;
    }
  }
  return false;
}

}  // namespace latticesched
