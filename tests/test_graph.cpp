#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace latticesched {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph g(0);
  EXPECT_EQ(g.size(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
  EXPECT_TRUE(g.greedy_clique().empty());
}

TEST(Graph, AddEdgeBasics) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Graph, DuplicatesAndSelfLoopsIgnored) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(0, 0);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, NeighborsSorted) {
  Graph g(5);
  g.add_edge(2, 4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  const auto& nb = g.neighbors(2);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
}

TEST(Graph, OutOfRangeThrows) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2), std::out_of_range);
  EXPECT_FALSE(g.has_edge(0, 99));
}

TEST(Graph, GreedyCliqueFindsTriangle) {
  Graph g(5);
  // Triangle 0-1-2 plus pendant edges.
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  const auto clique = g.greedy_clique();
  EXPECT_EQ(clique.size(), 3u);
  for (std::size_t i = 0; i < clique.size(); ++i) {
    for (std::size_t j = i + 1; j < clique.size(); ++j) {
      EXPECT_TRUE(g.has_edge(clique[i], clique[j]));
    }
  }
}

TEST(Graph, GreedyCliqueOnCompleteGraph) {
  Graph g(6);
  for (std::uint32_t i = 0; i < 6; ++i) {
    for (std::uint32_t j = i + 1; j < 6; ++j) {
      g.add_edge(i, j);
    }
  }
  EXPECT_EQ(g.greedy_clique().size(), 6u);
}

/// The message from_sorted_adjacency throws on `adjacency`, or "" when it
/// accepts it.
std::string adjacency_error(std::vector<std::vector<std::uint32_t>> adjacency) {
  try {
    (void)Graph::from_sorted_adjacency(std::move(adjacency));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Graph, FromSortedAdjacencyAcceptsOnlyValidSymmetricRows) {
  const std::string asymmetric =
      "Graph::from_sorted_adjacency: asymmetric edge";
  // 2 lists 0, but 0 does not list 2.
  EXPECT_EQ(adjacency_error({{1}, {0}, {0}}), asymmetric);
  // 0 lists 2, but 2 does not list 0.
  EXPECT_EQ(adjacency_error({{1, 2}, {0}, {}}), asymmetric);
  // 0 lists 1 and 2, 2 lists 0, but 1 does not list 0: the match for 2
  // finds 0's unmatched entry 1 first.
  EXPECT_EQ(adjacency_error({{1, 2}, {}, {0}}), asymmetric);
  // 0 lists 1 and 2 lists 0: the entry counts balance, the partners not.
  EXPECT_EQ(adjacency_error({{1}, {}, {0}}), asymmetric);
  EXPECT_EQ(adjacency_error({{2, 1}, {0}, {0}}),
            "Graph::from_sorted_adjacency: list not sorted/unique");
  EXPECT_EQ(adjacency_error({{1, 1}, {0}}),
            "Graph::from_sorted_adjacency: list not sorted/unique");
  EXPECT_EQ(adjacency_error({{0, 1}, {0}}),
            "Graph::from_sorted_adjacency: bad neighbor");
  EXPECT_EQ(adjacency_error({{1}, {0, 2}}),
            "Graph::from_sorted_adjacency: bad neighbor");

  // A 4-cycle 0-1-2-3 plus the chord 0-2.
  const Graph g = Graph::from_sorted_adjacency(
      {{1, 2, 3}, {0, 2}, {0, 1, 3}, {0, 2}});
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(g.edge_count(), 5u);
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(1, 3));
  EXPECT_EQ(g.neighbors(2), (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_EQ(Graph::from_sorted_adjacency({}).size(), 0u);
}

}  // namespace
}  // namespace latticesched
