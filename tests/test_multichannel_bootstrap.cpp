// Multi-channel schedules and the bootstrap (flood-sync) simulator.
#include <gtest/gtest.h>

#include "core/multichannel.hpp"
#include "sim/bootstrap.hpp"
#include "tiling/exactness.hpp"
#include "tiling/shapes.hpp"

namespace latticesched {
namespace {

TilingSchedule base_schedule() {
  return TilingSchedule(*decide_exactness(shapes::chebyshev_ball(2, 1)).tiling);
}

TEST(MultiChannel, PeriodIsCeilOfBase) {
  const TilingSchedule base = base_schedule();  // m = 9
  EXPECT_EQ(MultiChannelSchedule(base, 1).period(), 9u);
  EXPECT_EQ(MultiChannelSchedule(base, 2).period(), 5u);
  EXPECT_EQ(MultiChannelSchedule(base, 3).period(), 3u);
  EXPECT_EQ(MultiChannelSchedule(base, 9).period(), 1u);
  EXPECT_EQ(MultiChannelSchedule(base, 16).period(), 1u);
  EXPECT_THROW(MultiChannelSchedule(base, 0), std::invalid_argument);
}

TEST(MultiChannel, AssignmentsInRange) {
  const MultiChannelSchedule mc(base_schedule(), 4);
  Box::centered(2, 5).for_each([&](const Point& p) {
    const SlotChannel a = mc.assignment_of(p);
    EXPECT_LT(a.slot, mc.period());
    EXPECT_LT(a.channel, mc.channels());
  });
}

TEST(MultiChannel, SingleChannelMatchesBaseSchedule) {
  const TilingSchedule base = base_schedule();
  const MultiChannelSchedule mc(base, 1);
  Box::centered(2, 5).for_each([&](const Point& p) {
    const SlotChannel a = mc.assignment_of(p);
    EXPECT_EQ(a.slot, base.slot_of(p));
    EXPECT_EQ(a.channel, 0u);
  });
}

class MultiChannelSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MultiChannelSweep, CollisionFreeAndOptimalForEveryChannelCount) {
  const std::uint32_t c = GetParam();
  const Prototile ball = shapes::chebyshev_ball(2, 1);
  const MultiChannelSchedule mc(base_schedule(), c);
  EXPECT_TRUE(mc.optimal());
  const Deployment d = Deployment::grid(Box::centered(2, 6), ball);
  const MultiChannelSlots slots = assign_multichannel(mc, d);
  const CollisionReport r = check_collision_free_multichannel(d, slots);
  EXPECT_TRUE(r.collision_free) << "channels=" << c << ": " << r.to_string();
}

INSTANTIATE_TEST_SUITE_P(Channels, MultiChannelSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 9));

TEST(MultiChannel, DetectsPlantedCollision) {
  const Prototile ball = shapes::chebyshev_ball(2, 1);
  const Deployment d = Deployment::uniform({Point{0, 0}, Point{1, 0}}, ball);
  MultiChannelSlots slots;
  slots.period = 2;
  slots.channels = 2;
  slots.assignment = {{0, 1}, {0, 1}};  // same slot, same channel
  EXPECT_FALSE(check_collision_free_multichannel(d, slots).collision_free);
  slots.assignment = {{0, 1}, {0, 0}};  // same slot, different channel
  EXPECT_TRUE(check_collision_free_multichannel(d, slots).collision_free);
}

TEST(MultiChannel, SeededCollisionMatchesFlattenedReference) {
  // The 3-channel fold of the 9-slot schedule on a 6x6 grid, with sensor
  // 1 = (0, 1) moved into the (slot, channel) bucket of its neighbour
  // sensor 0 = (0, 0): the only collision, first found at (-1, 0), the
  // first point of sensor 1's coverage.
  const Deployment d =
      Deployment::grid(Box::cube(2, 0, 5), shapes::chebyshev_ball(2, 1));
  MultiChannelSlots slots = assign_multichannel(
      MultiChannelSchedule(base_schedule(), 3), d);
  slots.assignment[1] = slots.assignment[0];
  const CollisionReport r = check_collision_free_multichannel(d, slots);
  ASSERT_FALSE(r.collision_free);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_EQ(r.witness->slot, slots.assignment[0].slot);
  EXPECT_EQ(r.witness->sensor_a, 0u);
  EXPECT_EQ(r.witness->sensor_b, 1u);
  EXPECT_EQ(r.witness->point, (Point{-1, 0}));
  // The same table flattened to bucket slot * channels + channel.
  SensorSlots flat;
  flat.period = slots.period * slots.channels;
  for (const SlotChannel& a : slots.assignment) {
    flat.slot.push_back(a.slot * slots.channels + a.channel);
  }
  const CollisionReport ref = check_collision_free_reference(d, flat);
  ASSERT_TRUE(ref.witness.has_value());
  EXPECT_EQ(r.witness->slot, ref.witness->slot / slots.channels);
  EXPECT_EQ(r.witness->sensor_a, ref.witness->sensor_a);
  EXPECT_EQ(r.witness->sensor_b, ref.witness->sensor_b);
  EXPECT_EQ(r.witness->point, ref.witness->point);
  EXPECT_EQ(r.pairs_checked, ref.pairs_checked);
  EXPECT_GT(r.pairs_checked, 0u);
}

TEST(MultiChannel, EmptyDeploymentWithZeroPeriodIsCollisionFree) {
  const Deployment d = Deployment::uniform({}, shapes::chebyshev_ball(2, 1));
  MultiChannelSlots slots;  // period 0, channels 0
  EXPECT_TRUE(check_collision_free_multichannel(d, slots).collision_free);
}

TEST(MultiChannel, ValidationErrors) {
  const Prototile ball = shapes::chebyshev_ball(2, 1);
  const Deployment d = Deployment::uniform({Point{0, 0}}, ball);
  MultiChannelSlots bad;
  bad.period = 1;
  bad.channels = 1;
  EXPECT_THROW(check_collision_free_multichannel(d, bad),
               std::invalid_argument);
  bad.assignment = {{5, 0}};
  EXPECT_THROW(check_collision_free_multichannel(d, bad),
               std::invalid_argument);
}

TEST(MultiChannel, DescriptionMentionsChannels) {
  const MultiChannelSchedule mc(base_schedule(), 3);
  EXPECT_NE(mc.description().find("c=3"), std::string::npos);
  EXPECT_NE(mc.description().find("m=3"), std::string::npos);
}

// ---------------------------------------------------------------------

struct BootstrapWorld {
  Prototile ball = shapes::chebyshev_ball(2, 1);
  Deployment deployment = Deployment::grid(Box::cube(2, 0, 5), ball);
  TilingSchedule schedule = base_schedule();
};

TEST(Bootstrap, ConvergesAndStaysCollisionFree) {
  BootstrapWorld w;
  BootstrapConfig cfg;
  cfg.seed = 11;
  const BootstrapResult r = run_bootstrap(
      w.deployment, Point{0, 0}, assign_slots(w.schedule, w.deployment),
      cfg);
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.sync_slots, 0u);
  EXPECT_EQ(r.post_sync_collisions, 0u)
      << "after sync the tiling schedule must be collision-free";
  // Sync times are causally ordered: the root at 0, all others positive.
  std::uint64_t root_time = r.sync_time[*w.deployment.sensor_at(Point{0, 0})];
  EXPECT_EQ(root_time, 0u);
  for (std::size_t i = 0; i < w.deployment.size(); ++i) {
    if (w.deployment.position(i) != (Point{0, 0})) {
      EXPECT_GT(r.sync_time[i], 0u);
      EXPECT_LE(r.sync_time[i], r.sync_slots);
    }
  }
}

TEST(Bootstrap, BeaconsDoCollide) {
  // The sync phase uses ALOHA beacons: with many synced nodes beaconing,
  // collisions must occur (that is exactly the problem the schedule
  // solves once time is agreed).
  BootstrapWorld w;
  BootstrapConfig cfg;
  cfg.seed = 23;
  cfg.beacon_probability = 0.5;  // aggressive -> collisions guaranteed
  const BootstrapResult r = run_bootstrap(
      w.deployment, Point{2, 2}, assign_slots(w.schedule, w.deployment),
      cfg);
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.beacon_collisions, 0u);
}

TEST(Bootstrap, TinyBudgetFailsGracefully) {
  BootstrapWorld w;
  BootstrapConfig cfg;
  cfg.max_slots = 1;
  const BootstrapResult r = run_bootstrap(
      w.deployment, Point{0, 0}, assign_slots(w.schedule, w.deployment),
      cfg);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.sync_slots, 1u);
}

TEST(Bootstrap, ValidationErrors) {
  BootstrapWorld w;
  const SensorSlots slots = assign_slots(w.schedule, w.deployment);
  EXPECT_THROW(run_bootstrap(w.deployment, Point{50, 50}, slots),
               std::invalid_argument);
  SensorSlots bad;
  bad.period = 0;
  bad.slot.assign(w.deployment.size(), 0);
  EXPECT_THROW(run_bootstrap(w.deployment, Point{0, 0}, bad),
               std::invalid_argument);
}

TEST(Bootstrap, DeterministicForFixedSeed) {
  BootstrapWorld w;
  BootstrapConfig cfg;
  cfg.seed = 99;
  const SensorSlots slots = assign_slots(w.schedule, w.deployment);
  const BootstrapResult a = run_bootstrap(w.deployment, Point{0, 0}, slots,
                                          cfg);
  const BootstrapResult b = run_bootstrap(w.deployment, Point{0, 0}, slots,
                                          cfg);
  EXPECT_EQ(a.sync_slots, b.sync_slots);
  EXPECT_EQ(a.beacon_tx, b.beacon_tx);
  EXPECT_EQ(a.sync_time, b.sync_time);
}

}  // namespace
}  // namespace latticesched
