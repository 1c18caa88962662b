// Cross-validation of the dense-index engine against the seed paths.
//
// The dense engine (PointIndexer ids, bitmask torus search, coset slot
// tables, stamped collision counters) must be an exact drop-in: same
// tilings in the same order, same slots, same collision verdicts and
// witnesses.  Every test here runs both implementations and compares.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/collision.hpp"
#include "core/tiling_scheduler.hpp"
#include "graph/interference.hpp"
#include "lattice/point_index.hpp"
#include "tiling/shapes.hpp"
#include "tiling/torus_search.hpp"

namespace latticesched {
namespace {

// ---------------------------------------------------------------------------
// PointIndexer
// ---------------------------------------------------------------------------

TEST(PointIndexer, BoxModeMatchesBoxOrder) {
  const Box box({-2, 1}, {1, 4});
  const PointIndexer idx = PointIndexer::for_box(box);
  const PointVec pts = box.points();
  ASSERT_EQ(idx.size(), pts.size());
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(idx.id_of(pts[i]), i);
    EXPECT_EQ(idx.point_of(i), pts[i]);
  }
  EXPECT_EQ(idx.id_of(Point{2, 2}), PointIndexer::kInvalid);
  EXPECT_EQ(idx.id_of(Point{0, 0}), PointIndexer::kInvalid);
  EXPECT_FALSE(idx.contains(Point{-3, 1}));
}

TEST(PointIndexer, SublatticeModeMatchesCosetRepresentatives) {
  for (const Sublattice& m :
       {Sublattice::diagonal({3, 4}),
        Sublattice::from_vectors({Point{2, 1}, Point{0, 3}}),
        Sublattice::diagonal({2, 3, 2})}) {
    const PointIndexer idx = PointIndexer::for_sublattice(m);
    const PointVec reps = m.coset_representatives();
    ASSERT_EQ(idx.size(), static_cast<std::size_t>(m.index()));
    ASSERT_EQ(idx.size(), reps.size());
    for (std::uint32_t i = 0; i < reps.size(); ++i) {
      EXPECT_EQ(idx.point_of(i), reps[i]);
      EXPECT_EQ(idx.id_of(reps[i]), i);
    }
  }
}

TEST(PointIndexer, PointsModeRoundTripsAndRejectsOutsiders) {
  const PointVec pts = {Point{5, 0}, Point{-1, 2}, Point{3, 3}};
  const PointIndexer idx = PointIndexer::for_points(pts);
  ASSERT_EQ(idx.size(), pts.size());
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(idx.id_of(pts[i]), i);
    EXPECT_EQ(idx.point_of(i), pts[i]);
  }
  // In-hull but not a member.
  EXPECT_EQ(idx.id_of(Point{0, 0}), PointIndexer::kInvalid);
  EXPECT_THROW(PointIndexer::for_points({Point{1, 1}, Point{1, 1}}),
               std::invalid_argument);
}

TEST(PointIndexer, TryForPointsDeclinesHugeHulls) {
  const PointVec scattered = {Point{0, 0}, Point{1 << 20, 1 << 20}};
  EXPECT_FALSE(
      PointIndexer::try_for_points(scattered, /*max_grid_cells=*/1 << 16)
          .has_value());
  EXPECT_TRUE(
      PointIndexer::try_for_points({Point{0, 0}, Point{3, 3}}, 1 << 16)
          .has_value());
}

// ---------------------------------------------------------------------------
// Torus search: dense engine == legacy engine, result for result
// ---------------------------------------------------------------------------

void expect_same_tilings(const std::vector<Prototile>& protos,
                         const Sublattice& period, bool require_all) {
  TorusSearchConfig dense_cfg, legacy_cfg;
  dense_cfg.require_all_prototiles = require_all;
  dense_cfg.use_dense_engine = true;
  legacy_cfg.require_all_prototiles = require_all;
  legacy_cfg.use_dense_engine = false;
  const auto dense = all_tilings_on_torus(protos, period, 100'000, dense_cfg);
  const auto legacy =
      all_tilings_on_torus(protos, period, 100'000, legacy_cfg);
  ASSERT_EQ(dense.size(), legacy.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(dense[i].placements(), legacy[i].placements())
        << "tiling " << i << " differs";
  }
}

TEST(DenseTorusSearch, MatchesLegacyOnFig2ChebyshevBall) {
  // Figure 2 (left): the 3x3 Chebyshev ball tiles with period 3Z x 3Z.
  expect_same_tilings({shapes::chebyshev_ball(2, 1)},
                      Sublattice::diagonal({3, 3}), false);
  expect_same_tilings({shapes::chebyshev_ball(2, 1)},
                      Sublattice::diagonal({6, 6}), false);
}

TEST(DenseTorusSearch, MatchesLegacyOnFig3DirectionalAntenna) {
  // Figures 2 (right) / 3: the 2x4 directional-antenna block.
  expect_same_tilings({shapes::directional_antenna()},
                      Sublattice::diagonal({4, 4}), false);
  expect_same_tilings({shapes::directional_antenna()},
                      Sublattice::diagonal({8, 4}), false);
}

TEST(DenseTorusSearch, MatchesLegacyOnFig5MixedTetrominoes) {
  // Figure 5 (left): genuinely mixed S/Z tetromino tilings.
  expect_same_tilings({shapes::s_tetromino(), shapes::z_tetromino()},
                      Sublattice::diagonal({4, 4}), true);
}

TEST(DenseTorusSearch, MatchesLegacyOnNonDiagonalPeriod) {
  expect_same_tilings({shapes::l1_ball(2, 1)},
                      Sublattice::from_vectors({Point{1, 2}, Point{-2, 1}}),
                      false);
}

TEST(DenseTorusSearch, SweepAgreesWithLegacySweep) {
  for (const Prototile& tile :
       {shapes::chebyshev_ball(2, 1), shapes::directional_antenna(),
        shapes::l_tromino()}) {
    TorusSearchConfig dense_cfg, legacy_cfg;
    legacy_cfg.use_dense_engine = false;
    const auto a = search_periodic_tiling({tile}, dense_cfg);
    const auto b = search_periodic_tiling({tile}, legacy_cfg);
    ASSERT_EQ(a.has_value(), b.has_value());
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->placements(), b->placements());
    EXPECT_EQ(a->period().basis(), b->period().basis());
  }
}

TEST(DenseTorusSearch, RespectsNodeBudgetLikeLegacy) {
  TorusSearchConfig dense_cfg, legacy_cfg;
  dense_cfg.node_limit = 10;
  legacy_cfg.node_limit = 10;
  legacy_cfg.use_dense_engine = false;
  const auto a = find_tiling_on_torus({shapes::s_tetromino()},
                                      Sublattice::diagonal({4, 4}), dense_cfg);
  const auto b = find_tiling_on_torus({shapes::s_tetromino()},
                                      Sublattice::diagonal({4, 4}), legacy_cfg);
  EXPECT_EQ(a.has_value(), b.has_value());
}

// ---------------------------------------------------------------------------
// Slot table: table == covering()-based reference
// ---------------------------------------------------------------------------

TEST(SlotTable, AgreesWithCoveringOnMixedNonRespectableTiling) {
  // Figure 5: 2-prototile S/Z tiling; it is non-respectable, so the slot
  // structure genuinely mixes both neighborhoods.
  TorusSearchConfig cfg;
  cfg.require_all_prototiles = true;
  const auto tiling =
      find_tiling_on_torus({shapes::s_tetromino(), shapes::z_tetromino()},
                           Sublattice::diagonal({4, 4}), cfg);
  ASSERT_TRUE(tiling.has_value());
  ASSERT_FALSE(tiling->is_respectable());
  const TilingSchedule sched(*tiling);
  Box::centered(2, 9).for_each([&](const Point& p) {
    EXPECT_EQ(sched.slot_of(p), sched.slot_of_reference(p)) << "at " << p;
  });
}

TEST(SlotTable, AgreesWithCoveringOnSinglePrototile) {
  const auto tiling = search_periodic_tiling({shapes::directional_antenna()});
  ASSERT_TRUE(tiling.has_value());
  const TilingSchedule sched(*tiling);
  Box::centered(2, 12).for_each([&](const Point& p) {
    EXPECT_EQ(sched.slot_of(p), sched.slot_of_reference(p)) << "at " << p;
  });
}

TEST(SlotTable, FastModAndFallbackAgreeAtExtremeCoordinates) {
  // slot_of serves nearby points via division-free fastmod and falls back
  // to the general reduce beyond +-2^30; both must match the reference.
  const auto tiling = search_periodic_tiling({shapes::chebyshev_ball(2, 1)});
  ASSERT_TRUE(tiling.has_value());
  const TilingSchedule sched(*tiling);
  const std::int64_t big = std::int64_t{1} << 40;  // far past the cutoff
  const std::int64_t edge = (std::int64_t{1} << 30) - 1;
  for (const Point& p :
       {Point{big, -big}, Point{-big + 7, big + 11}, Point{edge, -edge},
        Point{edge + 2, edge + 2}, Point{-123456789, 987654321}}) {
    EXPECT_EQ(sched.slot_of(p), sched.slot_of_reference(p)) << "at " << p;
  }
}

TEST(SlotTable, SendersInSlotMatchesReferenceFilter) {
  const auto tiling = search_periodic_tiling({shapes::chebyshev_ball(2, 1)});
  ASSERT_TRUE(tiling.has_value());
  const TilingSchedule sched(*tiling);
  const Box box = Box::centered(2, 6);
  for (std::uint32_t s = 0; s < sched.period(); ++s) {
    PointVec expected;
    box.for_each([&](const Point& p) {
      if (sched.slot_of_reference(p) == s) expected.push_back(p);
    });
    EXPECT_EQ(sched.senders_in_slot(s, box), expected) << "slot " << s;
  }
}

// ---------------------------------------------------------------------------
// Collision checker: dense == reference, including the seeded witness
// ---------------------------------------------------------------------------

TEST(DenseCollision, AgreesOnCollisionFreeMultiPrototileDeployment) {
  TorusSearchConfig cfg;
  cfg.require_all_prototiles = true;
  const auto tiling =
      find_tiling_on_torus({shapes::s_tetromino(), shapes::z_tetromino()},
                           Sublattice::diagonal({4, 4}), cfg);
  ASSERT_TRUE(tiling.has_value());
  const TilingSchedule sched(*tiling);
  const Deployment d = Deployment::from_tiling(*tiling, Box::centered(2, 7));
  const SensorSlots slots = assign_slots(sched, d);
  const CollisionReport dense = check_collision_free(d, slots);
  const CollisionReport ref = check_collision_free_reference(d, slots);
  EXPECT_TRUE(dense.collision_free);
  EXPECT_TRUE(ref.collision_free);
  EXPECT_EQ(dense.pairs_checked, ref.pairs_checked);
}

TEST(DenseCollision, AgreesOnSeededCollision) {
  TorusSearchConfig cfg;
  cfg.require_all_prototiles = true;
  const auto tiling =
      find_tiling_on_torus({shapes::s_tetromino(), shapes::z_tetromino()},
                           Sublattice::diagonal({4, 4}), cfg);
  ASSERT_TRUE(tiling.has_value());
  const TilingSchedule sched(*tiling);
  const Deployment d = Deployment::from_tiling(*tiling, Box::centered(2, 7));
  SensorSlots slots = assign_slots(sched, d);
  // Seed a collision: force a sensor into the slot of a conflicting
  // neighbor (positions 0 and 1 are lattice neighbors, so their coverages
  // intersect whenever they share a slot).
  ASSERT_TRUE(sensors_conflict(d, 0, 1));
  slots.slot[1] = slots.slot[0];
  const CollisionReport dense = check_collision_free(d, slots);
  const CollisionReport ref = check_collision_free_reference(d, slots);
  ASSERT_FALSE(dense.collision_free);
  ASSERT_FALSE(ref.collision_free);
  EXPECT_EQ(dense.pairs_checked, ref.pairs_checked);
  ASSERT_TRUE(dense.witness.has_value());
  ASSERT_TRUE(ref.witness.has_value());
  EXPECT_EQ(dense.witness->slot, ref.witness->slot);
  EXPECT_EQ(dense.witness->sensor_a, ref.witness->sensor_a);
  EXPECT_EQ(dense.witness->sensor_b, ref.witness->sensor_b);
  EXPECT_EQ(dense.witness->point, ref.witness->point);
}

// ---------------------------------------------------------------------------
// Deployment fallbacks and conflict predicates
// ---------------------------------------------------------------------------

TEST(DeploymentIndex, ScatteredDeploymentFallsBackToHashing) {
  // Hull far beyond the dense-grid cap: sensor_at must still answer.
  const PointVec positions = {Point{0, 0}, Point{1 << 20, 1 << 20}};
  const Deployment d =
      Deployment::uniform(positions, shapes::chebyshev_ball(2, 1));
  EXPECT_FALSE(d.coverage_grid().has_value());
  ASSERT_TRUE(d.sensor_at(Point{0, 0}).has_value());
  EXPECT_EQ(*d.sensor_at(Point{1 << 20, 1 << 20}), 1u);
  EXPECT_FALSE(d.sensor_at(Point{1, 1}).has_value());
  EXPECT_FALSE(sensors_conflict(d, 0, 1));
  // The hashed conflict-graph path: two isolated sensors, zero edges.
  EXPECT_EQ(build_conflict_graph(d).edge_count(), 0u);
}

TEST(DeploymentIndex, RejectsPrototilesOfAnotherDimension) {
  // A 3-D neighborhood on 2-D positions: every probe would add offsets of
  // the wrong dimension, so the constructor refuses it on both index
  // paths (dense hull, scattered hull) and for an unused prototile too.
  EXPECT_THROW(Deployment::uniform({Point{0, 0}, Point{0, 1}, Point{5, 5}},
                                   shapes::chebyshev_ball(3, 1)),
               std::invalid_argument);
  EXPECT_THROW(Deployment::uniform({Point{0, 0}, Point{1 << 20, 1 << 20}},
                                   shapes::chebyshev_ball(3, 1)),
               std::invalid_argument);
  EXPECT_THROW(Deployment::assemble({Point{0, 0}}, {0},
                                    {shapes::chebyshev_ball(2, 1),
                                     shapes::chebyshev_ball(1, 1)}),
               std::invalid_argument);
  // Mixed position dimensions keep throwing.
  EXPECT_THROW(Deployment::uniform({Point{0, 0}, Point{0, 0, 1}},
                                   shapes::chebyshev_ball(2, 1)),
               std::invalid_argument);
  // Matching dimensions construct, empty deployments included.
  EXPECT_EQ(Deployment::uniform({Point{0, 0, 0}}, shapes::chebyshev_ball(3, 1))
                .size(),
            1u);
  EXPECT_EQ(Deployment::uniform({}, shapes::chebyshev_ball(3, 1)).size(), 0u);
}

TEST(DeploymentIndex, DenseAndHashedConflictGraphsAgree) {
  const Deployment d =
      Deployment::grid(Box::centered(2, 4), shapes::l1_ball(2, 1));
  ASSERT_TRUE(d.coverage_grid().has_value());
  const Graph dense = build_conflict_graph(d);
  // sensors_conflict is an independent oracle for every pair.
  for (std::uint32_t i = 0; i < d.size(); ++i) {
    for (std::uint32_t j = i + 1; j < d.size(); ++j) {
      EXPECT_EQ(dense.has_edge(i, j), sensors_conflict(d, i, j))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

}  // namespace
}  // namespace latticesched
