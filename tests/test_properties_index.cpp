// Seeded property test of the deployment's two index paths.
//
// Random deployments are built both ways the Deployment constructor can
// index them: dense boxes with holes (arithmetic PointIndexer ids) and
// scatters whose hull is past the dense cap (the hash fallback).  They
// span 1-3 dimensions and 1-2 prototiles, some with shuffled ids and
// some with a repeated position.  Each is checked against brute force:
// the constructor error, sensor_at, every conflict row, the conflict
// graph, the cold greedy plan (whose fused pass reads only the earlier
// offsets when ids ascend with cells), the collision checker against its
// reference, and the for_points round trip with its ids_ascend flag.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/collision.hpp"
#include "core/region_shard.hpp"
#include "graph/interference.hpp"
#include "lattice/point_index.hpp"
#include "util/rng.hpp"

namespace latticesched {
namespace {

constexpr int kCases = 240;  // fixed count; the whole test runs in < 1 s

/// The origin plus up to four cells within `spread` of it.
Prototile random_prototile(Rng& rng, std::size_t dim, std::int64_t spread) {
  PointVec cells{Point::zero(dim)};
  const std::uint64_t extra = rng.next_below(5);
  for (std::uint64_t k = 0; k < extra; ++k) {
    Point p(dim);
    for (std::size_t a = 0; a < dim; ++a) p[a] = rng.next_int(-spread, spread);
    cells.push_back(p);
  }
  return Prototile(std::move(cells));
}

/// Lattice points of the box [lo, lo + side - 1]^dim: the corner lo,
/// and every other point with probability 4/5 (holes).
void add_holed_box(Rng& rng, const Point& lo, std::int64_t side,
                   PointVec* out) {
  Point hi = lo;
  for (std::size_t a = 0; a < lo.dim(); ++a) hi[a] += side - 1;
  Box(lo, hi).for_each([&](const Point& p) {
    if (p == lo || rng.next_below(5) != 0) out->push_back(p);
  });
}

struct Case {
  PointVec positions;
  std::vector<std::uint32_t> types;
  std::vector<Prototile> prototiles;
  bool scattered = false;
};

Case random_case(Rng& rng, int index) {
  Case c;
  const std::size_t dim = 1 + static_cast<std::size_t>(index % 3);
  c.scattered = (index / 3) % 2 == 1;
  const std::int64_t spread = dim == 3 ? 1 : 2;
  const std::int64_t side =
      dim == 1 ? rng.next_int(1, 40)
               : (dim == 2 ? rng.next_int(1, 12) : rng.next_int(1, 6));
  add_holed_box(rng, Point::zero(dim), side, &c.positions);
  if (c.scattered) {
    // A second cluster 2^20 away on axis 0: the hull volume exceeds the
    // dense cap, so positions are hashed.
    Point far = Point::zero(dim);
    far[0] = std::int64_t{1} << 20;
    add_holed_box(rng, far, std::max<std::int64_t>(side / 2, 1),
                  &c.positions);
  }
  if (rng.next_below(2) == 0) rng.shuffle(c.positions);
  if (rng.next_below(4) == 0) {
    // Repeat one position somewhere in the list.
    const Point dup = c.positions[rng.next_below(c.positions.size())];
    c.positions.insert(
        c.positions.begin() +
            static_cast<std::ptrdiff_t>(rng.next_below(c.positions.size() + 1)),
        dup);
  }
  const std::uint64_t kinds = 1 + rng.next_below(2);
  for (std::uint64_t k = 0; k < kinds; ++k) {
    c.prototiles.push_back(random_prototile(rng, dim, spread));
  }
  for (std::size_t i = 0; i < c.positions.size(); ++i) {
    c.types.push_back(static_cast<std::uint32_t>(rng.next_below(kinds)));
  }
  return c;
}

bool has_duplicate(const PointVec& pts) {
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      if (pts[i] == pts[j]) return true;
    }
  }
  return false;
}

std::optional<std::size_t> brute_sensor_at(const PointVec& pts,
                                           const Point& p) {
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i] == p) return i;
  }
  return std::nullopt;
}

void expect_same_report(const CollisionReport& got,
                        const CollisionReport& want) {
  EXPECT_EQ(got.collision_free, want.collision_free);
  EXPECT_EQ(got.pairs_checked, want.pairs_checked);
  ASSERT_EQ(got.witness.has_value(), want.witness.has_value());
  if (!got.witness.has_value()) return;
  EXPECT_EQ(got.witness->slot, want.witness->slot);
  EXPECT_EQ(got.witness->sensor_a, want.witness->sensor_a);
  EXPECT_EQ(got.witness->sensor_b, want.witness->sensor_b);
  EXPECT_EQ(got.witness->point, want.witness->point);
}

TEST(IndexProperty, BothIndexPathsAgreeWithBruteForce) {
  Rng rng(20081271);
  int dense_built = 0, hashed_built = 0, rejected = 0;
  int ascending = 0, unordered = 0;
  int collided = 0, clean = 0;
  for (int index = 0; index < kCases; ++index) {
    SCOPED_TRACE("case " + std::to_string(index));
    const Case c = random_case(rng, index);

    // Constructor error: a repeated position is the same error on both
    // index paths.
    if (has_duplicate(c.positions)) {
      ++rejected;
      try {
        (void)Deployment::assemble(c.positions, c.types, c.prototiles);
        ADD_FAILURE() << "duplicate position accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(), "Deployment: duplicate sensor position");
      }
      if (!c.scattered) {
        EXPECT_THROW(PointIndexer::for_points(c.positions),
                     PointIndexer::DuplicatePoint);
      }
      continue;
    }
    const Deployment d =
        Deployment::assemble(c.positions, c.types, c.prototiles);
    ASSERT_EQ(d.position_index() == nullptr, c.scattered);
    ++(c.scattered ? hashed_built : dense_built);

    // sensor_at on every position and on random probes near the hull.
    for (std::size_t i = 0; i < d.size(); ++i) {
      ASSERT_EQ(d.sensor_at(c.positions[i]), std::optional<std::size_t>(i));
    }
    for (int probe = 0; probe < 40; ++probe) {
      Point p = c.positions[rng.next_below(c.positions.size())];
      for (std::size_t a = 0; a < p.dim(); ++a) p[a] += rng.next_int(-3, 3);
      EXPECT_EQ(d.sensor_at(p), brute_sensor_at(c.positions, p)) << p;
    }

    // Every streamed conflict row and every graph row against an
    // all-pairs scan.
    const ConflictRows rows(d);
    const Graph g = build_conflict_graph(d);
    ASSERT_EQ(g.size(), d.size());
    std::vector<std::uint32_t> row;
    for (std::uint32_t u = 0; u < d.size(); ++u) {
      std::vector<std::uint32_t> want;
      for (std::uint32_t v = 0; v < d.size(); ++v) {
        if (sensors_conflict(d, u, v)) want.push_back(v);
      }
      rows.build(u, row);
      ASSERT_EQ(row, want) << "row " << u;
      ASSERT_EQ(g.neighbors(u), want) << "graph row " << u;
    }
    EXPECT_EQ(plan_greedy(d), greedy_coloring(g));

    // The collision checker against its reference on random slot tables;
    // small periods make most of them collide.
    for (int table = 0; table < 3; ++table) {
      SensorSlots slots;
      slots.period = static_cast<std::uint32_t>(1 + rng.next_below(6));
      for (std::size_t i = 0; i < d.size(); ++i) {
        slots.slot.push_back(
            static_cast<std::uint32_t>(rng.next_below(slots.period)));
      }
      const CollisionReport report = check_collision_free(d, slots);
      expect_same_report(report, check_collision_free_reference(d, slots));
      ++(report.collision_free ? clean : collided);
    }

    // The for_points round trip keeps no point copy, only decodes.
    if (!c.scattered) {
      const PointIndexer idx = PointIndexer::for_points(c.positions);
      ASSERT_EQ(idx.size(), c.positions.size());
      for (std::uint32_t i = 0; i < idx.size(); ++i) {
        EXPECT_EQ(idx.point_of(i), c.positions[i]);
        EXPECT_EQ(idx.id_of(c.positions[i]), i);
      }
      EXPECT_EQ(idx.points(), c.positions);
      bool ascend = true;
      for (std::uint32_t i = 1; i < idx.size(); ++i) {
        ascend = ascend && idx.linear_of(i - 1) < idx.linear_of(i);
      }
      EXPECT_EQ(idx.ids_ascend(), ascend);
      EXPECT_EQ(d.position_index()->ids_ascend(), ascend);
      ++(ascend ? ascending : unordered);
    }
  }
  // Every kind of case must have fired.
  EXPECT_GT(dense_built, 0);
  EXPECT_GT(hashed_built, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(ascending, 0);
  EXPECT_GT(unordered, 0);
  EXPECT_GT(collided, 0);
  EXPECT_GT(clean, 0);
}

}  // namespace
}  // namespace latticesched
