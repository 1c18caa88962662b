// Graph coloring: heuristics and exact branch-and-bound.
//
// Colors play the role of time slots: a proper coloring of the conflict
// graph is a collision-free schedule, and the chromatic number is the
// optimal slot count (the quantity the paper's Theorems 1/2 pin down
// constructively for lattice deployments).  The exact solver is used to
// machine-check optimality claims on finite windows (including the m=6 vs
// m=4 comparison of Figure 5); the heuristics are the literature baselines.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace latticesched {

using Coloring = std::vector<std::uint32_t>;

/// Number of colors used (max + 1; 0 for empty colorings).
std::uint32_t color_count(const Coloring& c);

/// Whether `c` assigns different colors across every edge.
bool is_proper_coloring(const Graph& g, const Coloring& c);

/// First-fit coloring in the given vertex order.
Coloring greedy_coloring(const Graph& g,
                         const std::vector<std::uint32_t>& order);

/// First-fit in natural order 0..n-1.
Coloring greedy_coloring(const Graph& g);

/// "No color" marker in partial colorings handed to
/// incremental_greedy_coloring (new sensors of a patched graph).
inline constexpr std::uint32_t kUncolored =
    std::numeric_limits<std::uint32_t>::max();

/// Callback that yields the sorted neighbor row of a vertex.  The
/// reference must stay valid until the next invocation.
/// incremental_greedy_coloring asks for each row at most once, so one
/// row buffer refilled per call is all a provider needs.
using NeighborProvider =
    std::function<const std::vector<std::uint32_t>&(std::uint32_t)>;

/// Incrementally repairs a natural-order greedy coloring of an n-vertex
/// graph after local edits.  `previous` is the greedy coloring of an
/// earlier graph carried onto the current vertex ids (kUncolored for
/// vertices without a prior color); `dirty` lists every vertex whose
/// neighbor row changed.  Greedy first-fit is the unique fixpoint of
/// c(u) = mex{c(j) : j < u, j ~ u}, so re-evaluating dirty vertices in
/// ascending order and propagating color changes upward reproduces the
/// cold greedy coloring exactly while only touching the changed region.
/// Rows come lazily from `neighbors`, never from a materialized
/// adjacency: PlanSession repairs its table and the region-sharded
/// planner stitches seams of million-vertex conflict graphs without
/// holding the edge set.  Vertices are re-evaluated in strictly
/// ascending order, each at most once, so only dirty vertices and
/// vertices reached by color propagation have their row requested, once.
Coloring incremental_greedy_coloring(std::size_t n,
                                     const NeighborProvider& neighbors,
                                     Coloring previous,
                                     const std::vector<std::uint32_t>& dirty);

/// Welsh–Powell: first-fit in order of decreasing degree.
Coloring welsh_powell_coloring(const Graph& g);

/// DSATUR (Brélaz): repeatedly color the vertex with the highest
/// saturation (distinct neighbor colors), breaking ties by degree.
Coloring dsatur_coloring(const Graph& g);

struct ExactColoringConfig {
  /// Branch-and-bound node budget; when exceeded the result is the best
  /// coloring found with `proven_optimal == false`.
  std::uint64_t node_limit = 5'000'000;
  /// Optional known upper bound (e.g. from a constructive schedule).
  std::uint32_t upper_bound_hint =
      std::numeric_limits<std::uint32_t>::max();
};

struct ExactColoringResult {
  Coloring coloring;
  std::uint32_t colors = 0;
  bool proven_optimal = false;
  std::uint64_t nodes = 0;
  std::uint32_t clique_lower_bound = 0;
};

/// Exact chromatic number via DSATUR-ordered branch and bound with a
/// greedy-clique lower bound.  Complete for small graphs; degrades to the
/// best-found coloring under the node budget.
ExactColoringResult exact_chromatic(const Graph& g,
                                    const ExactColoringConfig& config = {});

}  // namespace latticesched
