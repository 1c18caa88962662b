// Deployments and interference graphs.
//
// A deployment places finitely many sensors on lattice points and assigns
// each its interference neighborhood (a prototile).  The paper's collision
// predicate — simultaneous senders s, t collide iff (s+N_s) ∩ (t+N_t) ≠ ∅
// — induces the *conflict graph* whose proper colorings are exactly the
// collision-free slot assignments.  The *affects digraph* of the related
// work (v → u iff u is affected by v's radio) is the simulators' listener
// relation, build_listeners; the tests check that conflict equals
// "distance ≤ 2 via a common out-neighbor" in it.
//
// Engine note: deployment queries back every verification, graph build
// and simulation step, so positions are indexed dense-first: the
// constructor builds a PointIndexer id table over the positions' hull
// whenever the hull permits (always, for the lattice deployments the
// paper studies), and only scattered hulls, which the dense index
// declines, fall back to the seed's hash map.  Conflict rows come from one
// streamer, ConflictRows, which answers each neighbour probe of an
// interior sensor with a fixed linear displacement in that id table.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "lattice/point_index.hpp"
#include "lattice/region.hpp"
#include "tiling/prototile.hpp"
#include "tiling/tiling.hpp"
#include "util/csr.hpp"

namespace latticesched {

/// Grid-volume ceiling under which the engine densifies point sets; above
/// it (scattered deployments spanning a huge hull) hash fallbacks engage.
inline constexpr std::uint64_t kDenseGridCellCap = std::uint64_t{1} << 23;

class Deployment {
 public:
  /// Sensors at `positions`, all sharing neighborhood `n`.
  static Deployment uniform(PointVec positions, Prototile n);

  /// Sensors at every point of `box`, all sharing neighborhood `n`.
  static Deployment grid(const Box& box, Prototile n);

  /// Deployment rule D1 of Section 4: sensors at every point of `box`,
  /// each inheriting the prototile of the tile covering it.
  static Deployment from_tiling(const Tiling& t, const Box& box);

  /// General assembly from explicit per-sensor types — the PlanSession's
  /// delta machinery rebuilds deployments through here (a mutated fleet
  /// is neither uniform nor tiling-derived).  Validates exactly like the
  /// other factories: types index `prototiles`, positions are unique.
  static Deployment assemble(PointVec positions,
                             std::vector<std::uint32_t> types,
                             std::vector<Prototile> prototiles);

  std::size_t size() const { return positions_.size(); }
  const PointVec& positions() const { return positions_; }
  const Point& position(std::size_t i) const { return positions_[i]; }
  std::uint32_t type_of(std::size_t i) const { return types_[i]; }
  const std::vector<Prototile>& prototiles() const { return prototiles_; }
  const Prototile& neighborhood_of(std::size_t i) const {
    return prototiles_[types_[i]];
  }

  /// Points affected when sensor i broadcasts (its position + prototile).
  PointVec coverage_of(std::size_t i) const;

  /// Index of the sensor at position p, if any.  O(d) grid arithmetic on
  /// the dense position index; hash lookup only on the fallback path.
  std::optional<std::size_t> sensor_at(const Point& p) const;

  /// The dense position index (ids are sensor indices), or nullptr when
  /// the hull is too scattered and sensor_at hashes instead.
  const PointIndexer* position_index() const {
    return position_index_.has_value() ? &*position_index_ : nullptr;
  }

  /// Dense grid over the hull of every sensor's coverage, or nullopt when
  /// it would exceed `max_cells`.  The id space of the collision checker.
  std::optional<PointIndexer> coverage_grid(
      std::uint64_t max_cells = kDenseGridCellCap) const;

 private:
  Deployment(PointVec positions, std::vector<std::uint32_t> types,
             std::vector<Prototile> prototiles);
  PointVec positions_;
  std::vector<std::uint32_t> types_;
  std::vector<Prototile> prototiles_;
  /// Dense position -> sensor id grid (absent for scattered deployments).
  std::optional<PointIndexer> position_index_;
  /// Hash fallback, filled only when the dense index declines.
  PointMap<std::uint32_t> index_of_position_;
};

/// The simulators' listener relation (the affects digraph) as CSR: row u
/// lists the sensors located inside coverage_of(u), excluding u itself
/// (the radio model's receivers of u's broadcast).  One definition shared
/// by SlotSimulator, convergecast and bootstrap.
CsrU32 build_listeners(const Deployment& d);

/// Undirected conflict graph: edge (i, j) iff coverage_of(i) and
/// coverage_of(j) intersect.  Proper colorings = collision-free schedules.
/// Streamed row by row through ConflictRows.
Graph build_conflict_graph(const Deployment& d);

/// Whether sensors i and j conflict per the paper's intersection predicate
/// (allocation-free sorted-order merge; used to cross-check the builders).
bool sensors_conflict(const Deployment& d, std::size_t i, std::size_t j);

/// Candidate neighbor offsets of a sensor of type `type`, in canonical
/// (sorted) order: every a - b with a in N_type and b in any prototile of
/// the deployment.  A sensor v conflicts u iff pos(v) - pos(u) lies in
/// this set (for v's type), so probing it enumerates every conflict
/// partner of u without touching the rest of the deployment.
PointVec conflict_candidate_offsets(const Deployment& d, std::uint32_t type);

/// Chebyshev interference reach of the deployment: the largest l-inf
/// norm over every type's candidate offsets.  Sensors further apart than
/// this can never conflict (the tuner fingerprints it as the radius).
std::int64_t interference_reach(const Deployment& d);

/// The one conflict-row streamer.  Per prototile it keeps the nonzero
/// candidate offsets in canonical order, their linear displacements in
/// the deployment's position index and their Chebyshev reach; with
/// several prototiles also, per partner type, which of those offsets
/// conflict, so every row is exact without a sensors_conflict merge.
/// An interior sensor (every candidate inside the position hull) reads
/// its partners as id_at(cell + displacement) with no bounds check;
/// boundary sensors probe position + offset checked, and scattered
/// deployments hash.  Immutable after construction, so threads may
/// share one.
class ConflictRows {
 public:
  explicit ConflictRows(const Deployment& d);

  /// Replaces `row` with sensor u's conflict row: global ids, ascending
  /// (on row-major fleets the canonical offsets give that order as is).
  void build(std::uint32_t u, std::vector<std::uint32_t>& row) const;

 private:
  struct Probe {
    PointVec offsets;                ///< canonical order, zero excluded
    std::vector<std::int64_t> disp;  ///< per offset; empty when hashed
    /// Several prototiles only: hits[s * offsets.size() + k] is set iff
    /// a type-s sensor at offsets[k] conflicts, i.e. offsets[k] lies in
    /// N_type - N_s.  Empty with one prototile, where every hit does.
    std::vector<char> hits;
    std::int64_t reach = 0;          ///< max l-inf norm of the offsets
  };
  const Deployment& d_;
  const PointIndexer* index_;
  std::vector<Probe> by_type_;
};

}  // namespace latticesched
