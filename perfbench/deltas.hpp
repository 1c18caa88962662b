// Seeded DELTA scripts of the session-serve workload.
//
// Each client of the workload drives one server session on a full grid.
// A DeltaGenerator, seeded from (benchmark seed, client index), writes
// that client's deltas in the server's mutation-script format and keeps
// a model of the fleet in the session's own sensor order: removals drop
// sensors in place, moves keep a sensor's index, additions append in
// script order (PlanSession::apply's documented order).  That model is
// what the workload plans cold at the end to check the remote session.
//
// Every delta carries `mutations` distinct positions, each valid against
// the pre-delta fleet: remove a live sensor, re-add a free cell of the
// starting window, or move a live sensor to a free cell.  The fleet
// never leaves [start - band, start], band = floor(start * 2 %).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Cell = std::pair<std::int64_t, std::int64_t>;

struct Mutation {
  enum class Kind { kRemove, kAdd, kMove };
  Kind kind = Kind::kRemove;
  Cell at;  ///< removed sensor, added cell, or moved sensor's origin
  Cell to;  ///< move target (kMove only)
};

/// splitmix64: the benchmark's own generator, so its inputs never depend
/// on the library's RNG.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

class DeltaGenerator {
 public:
  /// `initial` is the session's starting fleet in sensor order; the
  /// window of free cells is its bounding box.
  DeltaGenerator(std::vector<Cell> initial, std::uint64_t seed,
                 std::uint64_t client, std::size_t mutations = 4);

  /// Draws the next delta and applies it to the fleet model.
  std::vector<Mutation> next();

  /// The fleet after every delta drawn so far, in session sensor order.
  const std::vector<Cell>& fleet() const { return fleet_; }
  std::size_t min_size() const { return min_size_; }

 private:
  bool live(const Cell& c) const { return occupied_[slot(c)] != 0; }
  std::size_t slot(const Cell& c) const;
  Cell pick_live(const std::vector<Cell>& used);
  Cell pick_free(const std::vector<Cell>& used);
  void apply(const std::vector<Mutation>& delta);

  std::vector<Cell> fleet_;
  std::vector<Cell> free_;  ///< window cells without a sensor
  std::vector<char> occupied_;
  std::int64_t x0_ = 0, y0_ = 0, width_ = 0, height_ = 0;
  std::size_t start_size_ = 0;
  std::size_t min_size_ = 0;
  std::size_t mutations_;
  SplitMix64 rng_;
};

/// The delta in the mutation-script format ("step 1" plus one line per
/// mutation), which the server shifts past the session's current step.
std::string to_script(const std::vector<Mutation>& delta);

/// Checks one delta against the fleet before it: distinct positions,
/// removals and move origins live, additions and move targets free cells
/// of `window_fleet`'s bounding box, and the post-delta size within
/// [min_size, window_fleet.size()].  Returns "" when valid, else why not.
std::string validate_delta(const std::vector<Cell>& pre_fleet,
                           const std::vector<Cell>& window_fleet,
                           std::size_t min_size,
                           const std::vector<Mutation>& delta);

/// The fleet model's rule for applying a delta to a sensor-ordered
/// fleet (see the file comment).
std::vector<Cell> apply_delta(std::vector<Cell> fleet,
                              const std::vector<Mutation>& delta);

}  // namespace perfbench
