// Simulated-annealing broadcast scheduling baseline.
//
// The paper's related work cites Wang & Ansari (mean-field annealing) and
// Shi & Wang (neural-network hybrid) as heuristic schedulers for the
// NP-hard broadcast scheduling problem.  This module provides the standard
// simulated-annealing stand-in: fix a slot count k, minimize the number of
// conflicting edges by Metropolis moves, and shrink k while a
// conflict-free assignment keeps being found.
#pragma once

#include <cstdint>
#include <optional>

#include "graph/coloring.hpp"
#include "util/rng.hpp"

namespace latticesched {

struct SaConfig {
  std::uint64_t max_iters = 200'000;   ///< Metropolis steps per k attempt
  double initial_temperature = 2.0;
  double cooling = 0.9999;             ///< geometric cooling per step
  std::uint64_t seed = 42;
  std::uint64_t restarts = 3;          ///< attempts per k before giving up
};

/// Searches for a proper k-coloring by annealing; nullopt when none found
/// within the iteration budget (which does NOT prove non-existence).
/// Each restart keeps a table of n * k counters, conflicts[u * k + c] =
/// the number of u's neighbors colored c, so a step reads its before and
/// after conflict counts in two lookups and only an accepted move updates
/// the rows of u's neighbors.
std::optional<Coloring> sa_find_coloring(const Graph& g, std::uint32_t k,
                                         const SaConfig& config = {});

struct SaScheduleResult {
  Coloring coloring;
  std::uint32_t colors = 0;
  /// Budgeted steps of the attempts made (max_iters * restarts each); 0
  /// when DSATUR already meets the clique bound.
  std::uint64_t total_iterations = 0;
};

/// Starts from the DSATUR solution and repeatedly attempts k-1 colors by
/// annealing until an attempt fails or k reaches the size of
/// g.greedy_clique(); returns the best proper coloring.  No proper
/// coloring has fewer colors than a clique has vertices, so the attempts
/// the clique stop skips could only have failed: the coloring is the one
/// an unbounded descent returns.
SaScheduleResult sa_min_coloring(const Graph& g, const SaConfig& config = {});

}  // namespace latticesched
