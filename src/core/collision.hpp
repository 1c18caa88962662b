// Collision checking — the paper's predicate, verbatim.
//
// A schedule is collision-free when no two sensors scheduled in the same
// slot have intersecting interference ranges: for simultaneous senders
// s, t we require (s + N_s) ∩ (t + N_t) = ∅.  The checker verifies this
// exhaustively for a finite deployment by counting, per slot, how many
// senders cover each lattice point; any point covered twice witnesses a
// collision.  This is the ground truth every schedule in the library is
// validated against.
//
// Engine note: the checker runs on the deployment's dense coverage grid —
// each prototile becomes one table of linear displacements, a sensor
// covers its own grid cell plus each displacement, and the per-slot
// "covered twice?" test is a stamped array write, no hashing.  The
// seed's hash-map implementation survives as
// check_collision_free_reference; it is also the automatic fallback when
// the deployment hull defeats the grid.
// Both produce identical reports (same witness, same pair counts).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/schedule.hpp"
#include "graph/interference.hpp"

namespace latticesched {

struct CollisionWitness {
  std::uint32_t slot = 0;
  std::size_t sensor_a = 0;
  std::size_t sensor_b = 0;
  Point point;  ///< lattice point covered by both senders
};

struct CollisionReport {
  bool collision_free = true;
  std::optional<CollisionWitness> witness;  ///< first violation found
  std::uint64_t pairs_checked = 0;          ///< same-slot coverage overlaps examined
  std::string to_string() const;
};

/// Checks the paper's collision-freedom predicate for a finite deployment
/// under a per-sensor slot table.
CollisionReport check_collision_free(const Deployment& d,
                                     const SensorSlots& slots);

/// Convenience overload evaluating a point-schedule on the deployment.
CollisionReport check_collision_free(const Deployment& d,
                                     const Schedule& schedule);

/// Seed implementation (per-slot hash maps); kept as the comparison
/// baseline for benches and the cross-validation oracle for tests.
CollisionReport check_collision_free_reference(const Deployment& d,
                                               const SensorSlots& slots);

}  // namespace latticesched
