// Minimal undirected graph used for broadcast-scheduling baselines.
//
// The related work the paper positions itself against (McCormick;
// Lloyd & Ramanathan; Ramanathan & Lloyd; Wang & Ansari; Shi & Wang)
// phrases collision-free scheduling as distance-2 / conflict-graph
// coloring.  This module provides the graph substrate those baselines and
// our optimality verifications run on.
#pragma once

#include <cstdint>
#include <vector>

namespace latticesched {

class Graph {
 public:
  explicit Graph(std::size_t n = 0);

  /// Builds a graph directly from full adjacency lists (each vertex lists
  /// ALL its neighbors, both directions present).  Lists must be sorted,
  /// duplicate-free, self-loop-free and symmetric; throws otherwise.
  /// This is the bulk entry point of the conflict-graph builder: streamed
  /// rows are adopted here in one validation pass instead of n·deg sorted
  /// insertions.  The pass is linear, O(V + E): rows are read in
  /// ascending order, so each entry below its row is matched against a
  /// per-vertex cursor into the row it names, with no search.
  static Graph from_sorted_adjacency(
      std::vector<std::vector<std::uint32_t>> adjacency);

  std::size_t size() const { return adj_.size(); }
  std::size_t edge_count() const { return edges_; }

  /// Adds an undirected edge; self-loops and duplicates are ignored.
  void add_edge(std::uint32_t u, std::uint32_t v);

  bool has_edge(std::uint32_t u, std::uint32_t v) const;

  /// Sorted neighbor list.
  const std::vector<std::uint32_t>& neighbors(std::uint32_t u) const;

  std::size_t degree(std::uint32_t u) const { return adj_[u].size(); }
  std::size_t max_degree() const;

  /// A greedily grown clique (vertex of max degree, extended by common
  /// neighbors); its size lower-bounds the chromatic number.  Each round
  /// adds the candidate with the most links into the candidate set,
  /// counted over its row against membership flags: O(sum of candidate
  /// degrees) per round.
  std::vector<std::uint32_t> greedy_clique() const;

 private:
  std::vector<std::vector<std::uint32_t>> adj_;  // kept sorted
  std::size_t edges_ = 0;
};

}  // namespace latticesched
