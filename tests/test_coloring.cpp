#include "graph/coloring.hpp"

#include <gtest/gtest.h>

#include "graph/sa_coloring.hpp"
#include "util/rng.hpp"

namespace latticesched {
namespace {

Graph complete_graph(std::size_t n) {
  Graph g(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      g.add_edge(i, j);
    }
  }
  return g;
}

Graph cycle_graph(std::size_t n) {
  Graph g(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    g.add_edge(i, static_cast<std::uint32_t>((i + 1) % n));
  }
  return g;
}

Graph petersen_graph() {
  Graph g(10);
  for (std::uint32_t i = 0; i < 5; ++i) {
    g.add_edge(i, (i + 1) % 5);          // outer C5
    g.add_edge(i + 5, ((i + 2) % 5) + 5);  // inner pentagram
    g.add_edge(i, i + 5);                // spokes
  }
  return g;
}

TEST(Coloring, ColorCountAndProperness) {
  const Graph g = cycle_graph(4);
  const Coloring c = {0, 1, 0, 1};
  EXPECT_EQ(color_count(c), 2u);
  EXPECT_TRUE(is_proper_coloring(g, c));
  EXPECT_FALSE(is_proper_coloring(g, {0, 0, 1, 1}));
  EXPECT_FALSE(is_proper_coloring(g, {0, 1}));  // size mismatch
}

TEST(Coloring, GreedyProducesProperColorings) {
  for (std::size_t n : {3u, 5u, 8u}) {
    const Graph g = cycle_graph(n);
    EXPECT_TRUE(is_proper_coloring(g, greedy_coloring(g)));
    EXPECT_TRUE(is_proper_coloring(g, welsh_powell_coloring(g)));
    EXPECT_TRUE(is_proper_coloring(g, dsatur_coloring(g)));
  }
}

TEST(Coloring, DsaturOptimalOnEvenCycle) {
  const Graph g = cycle_graph(8);
  EXPECT_EQ(color_count(dsatur_coloring(g)), 2u);
}

TEST(ExactChromatic, KnownChromaticNumbers) {
  EXPECT_EQ(exact_chromatic(complete_graph(4)).colors, 4u);
  EXPECT_EQ(exact_chromatic(cycle_graph(5)).colors, 3u);   // odd cycle
  EXPECT_EQ(exact_chromatic(cycle_graph(6)).colors, 2u);   // even cycle
  EXPECT_EQ(exact_chromatic(petersen_graph()).colors, 3u);
  for (const Graph& g :
       {complete_graph(4), cycle_graph(5), petersen_graph()}) {
    const auto r = exact_chromatic(g);
    EXPECT_TRUE(r.proven_optimal);
    EXPECT_TRUE(is_proper_coloring(g, r.coloring));
    EXPECT_EQ(color_count(r.coloring), r.colors);
  }
}

TEST(ExactChromatic, EmptyAndEdgelessGraphs) {
  const auto r0 = exact_chromatic(Graph(0));
  EXPECT_EQ(r0.colors, 0u);
  EXPECT_TRUE(r0.proven_optimal);
  const auto r1 = exact_chromatic(Graph(5));
  EXPECT_EQ(r1.colors, 1u);
  EXPECT_TRUE(r1.proven_optimal);
}

TEST(ExactChromatic, CliqueLowerBoundReported) {
  const auto r = exact_chromatic(complete_graph(5));
  EXPECT_EQ(r.clique_lower_bound, 5u);
  EXPECT_EQ(r.colors, 5u);
}

TEST(ExactChromatic, HeuristicsNeverBeatExact) {
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g(12);
    for (std::uint32_t i = 0; i < 12; ++i) {
      for (std::uint32_t j = i + 1; j < 12; ++j) {
        if (rng.next_bool(0.35)) g.add_edge(i, j);
      }
    }
    const auto exact = exact_chromatic(g);
    ASSERT_TRUE(exact.proven_optimal);
    EXPECT_LE(exact.colors, color_count(greedy_coloring(g)));
    EXPECT_LE(exact.colors, color_count(welsh_powell_coloring(g)));
    EXPECT_LE(exact.colors, color_count(dsatur_coloring(g)));
    EXPECT_GE(exact.colors, exact.clique_lower_bound);
  }
}

TEST(ExactChromatic, NodeBudgetDegradesGracefully) {
  ExactColoringConfig cfg;
  cfg.node_limit = 3;
  Graph g(14);
  Rng rng(7);
  for (std::uint32_t i = 0; i < 14; ++i) {
    for (std::uint32_t j = i + 1; j < 14; ++j) {
      if (rng.next_bool(0.4)) g.add_edge(i, j);
    }
  }
  const auto r = exact_chromatic(g, cfg);
  // Whatever happened, the result must be a proper coloring.
  EXPECT_TRUE(is_proper_coloring(g, r.coloring));
  EXPECT_EQ(color_count(r.coloring), r.colors);
}

TEST(SaColoring, FindsProperColoringsOnEasyGraphs) {
  const Graph g = cycle_graph(10);
  const auto c = sa_find_coloring(g, 2);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(is_proper_coloring(g, *c));
}

TEST(SaColoring, ImpossibleTargetFails) {
  const Graph g = complete_graph(5);
  SaConfig cfg;
  cfg.max_iters = 20'000;
  cfg.restarts = 2;
  EXPECT_FALSE(sa_find_coloring(g, 4, cfg).has_value());
}

TEST(SaColoring, MinColoringNeverWorseThanDsatur) {
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g(15);
    for (std::uint32_t i = 0; i < 15; ++i) {
      for (std::uint32_t j = i + 1; j < 15; ++j) {
        if (rng.next_bool(0.3)) g.add_edge(i, j);
      }
    }
    SaConfig cfg;
    cfg.max_iters = 30'000;
    const auto r = sa_min_coloring(g, cfg);
    EXPECT_TRUE(is_proper_coloring(g, r.coloring));
    EXPECT_LE(r.colors, color_count(dsatur_coloring(g)));
  }
}

TEST(SaColoring, ZeroColorsOnlyForEmptyGraph) {
  EXPECT_TRUE(sa_find_coloring(Graph(0), 0).has_value());
  EXPECT_FALSE(sa_find_coloring(Graph(3), 0).has_value());
}

// ---------------------------------------------------------------------------
// Incremental greedy repair (the PlanSession warm start)
// ---------------------------------------------------------------------------

Graph random_graph(Rng& rng, std::size_t n, std::uint64_t edge_pct) {
  Graph g(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) {
      if (rng.next_below(100) < edge_pct) g.add_edge(u, v);
    }
  }
  return g;
}

/// The repair with g's rows as the provider.
Coloring repair_on_graph(const Graph& g, Coloring previous,
                         const std::vector<std::uint32_t>& dirty) {
  return incremental_greedy_coloring(
      g.size(),
      [&g](std::uint32_t u) -> const std::vector<std::uint32_t>& {
        return g.neighbors(u);
      },
      std::move(previous), dirty);
}

TEST(IncrementalGreedy, NoDirtyVerticesIsTheIdentity) {
  Rng rng(5);
  const Graph g = random_graph(rng, 40, 20);
  const Coloring base = greedy_coloring(g);
  EXPECT_EQ(repair_on_graph(g, base, {}), base);
}

TEST(IncrementalGreedy, AllUncoloredReproducesGreedyFromScratch) {
  Rng rng(6);
  const Graph g = random_graph(rng, 50, 15);
  EXPECT_EQ(repair_on_graph(g, Coloring(g.size(), kUncolored), {}),
            greedy_coloring(g));
}

TEST(IncrementalGreedy, RepairsEditedGraphsExactly) {
  // Color a graph, edit it by inserting extra edges, hand the OLD
  // colors plus the touched vertices to the repair, and demand the
  // exact from-scratch greedy coloring back.
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 20 + rng.next_below(30);
    Graph g = random_graph(rng, n, 15);
    const Coloring before = greedy_coloring(g);

    std::vector<std::uint32_t> dirty;
    for (int edits = 0; edits < 4; ++edits) {
      const auto u = static_cast<std::uint32_t>(rng.next_below(n));
      const auto v = static_cast<std::uint32_t>(rng.next_below(n));
      if (u == v || g.has_edge(u, v)) continue;
      g.add_edge(u, v);
      dirty.push_back(u);
      dirty.push_back(v);
    }
    EXPECT_EQ(repair_on_graph(g, before, dirty), greedy_coloring(g))
        << "round " << round;
  }
}

TEST(IncrementalGreedy, RequestsEachRowAtMostOnce) {
  // Vertices are re-evaluated in strictly ascending order, so a provider
  // with one row buffer never sees a vertex twice — from a few dirty
  // seeds or with every vertex uncolored.
  Rng rng(8);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 20 + rng.next_below(40);
    Graph g = random_graph(rng, n, 10 + rng.next_below(30));
    const Coloring before = greedy_coloring(g);
    std::vector<std::uint32_t> dirty;
    for (int edits = 0; edits < 4; ++edits) {
      const auto u = static_cast<std::uint32_t>(rng.next_below(n));
      const auto v = static_cast<std::uint32_t>(rng.next_below(n));
      if (u == v || g.has_edge(u, v)) continue;
      g.add_edge(u, v);
      dirty.push_back(u);
      dirty.push_back(v);
    }
    for (const bool uncolored : {false, true}) {
      std::vector<std::uint32_t> calls(n, 0);
      std::vector<std::uint32_t> row;
      const NeighborProvider provider =
          [&](std::uint32_t u) -> const std::vector<std::uint32_t>& {
        ++calls[u];
        row = g.neighbors(u);
        return row;
      };
      const Coloring repaired = incremental_greedy_coloring(
          n, provider, uncolored ? Coloring(n, kUncolored) : before,
          uncolored ? std::vector<std::uint32_t>{} : dirty);
      EXPECT_EQ(repaired, greedy_coloring(g)) << "round " << round;
      for (std::uint32_t u = 0; u < n; ++u) {
        EXPECT_LE(calls[u], 1u) << "round " << round << " vertex " << u;
        if (uncolored) EXPECT_EQ(calls[u], 1u) << "vertex " << u;
      }
    }
  }
}

TEST(IncrementalGreedy, ValidatesItsInputs) {
  const Graph g(4);
  EXPECT_THROW(repair_on_graph(g, Coloring(3, 0), {}),
               std::invalid_argument);
  EXPECT_THROW(repair_on_graph(g, Coloring(4, 0), {9}),
               std::invalid_argument);
}

}  // namespace
}  // namespace latticesched
