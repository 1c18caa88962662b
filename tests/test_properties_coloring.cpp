// Seeded property test of the coloring baselines against reference
// implementations.
//
// The library's DSATUR picks from a heap, first-fit sizes its flags by
// degree, annealing keeps a conflict table and stops at the clique
// bound, and the greedy clique counts links through membership flags.
// Each must return exactly what the straightforward algorithm below
// returns: DSATUR by a full scan per pick over std::set saturations,
// first-fit with n + 1 flags per vertex, annealing by rescanning a
// vertex's row per step and trying every k down to 1, and the clique by
// one has_edge per candidate pair.  Random graphs span sizes 0-200,
// edge probabilities up to 0.6 and a hub-heavy family whose degrees are
// far apart; annealing runs under random SaConfig values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <string>

#include "graph/coloring.hpp"
#include "graph/sa_coloring.hpp"
#include "util/rng.hpp"

namespace latticesched {
namespace {

constexpr int kCases = 120;  // fixed count; the whole test runs in < 1 s

namespace reference {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

Coloring greedy(const Graph& g, const std::vector<std::uint32_t>& order) {
  Coloring colors(g.size(), kNone);
  std::vector<bool> used;
  for (std::uint32_t u : order) {
    used.assign(g.size() + 1, false);
    for (std::uint32_t v : g.neighbors(u)) {
      if (colors[v] != kNone) used[colors[v]] = true;
    }
    std::uint32_t c = 0;
    while (used[c]) ++c;
    colors[u] = c;
  }
  return colors;
}

Coloring dsatur(const Graph& g) {
  const std::size_t n = g.size();
  Coloring colors(n, kNone);
  std::vector<std::set<std::uint32_t>> sat(n);
  std::vector<bool> done(n, false);
  for (std::size_t step = 0; step < n; ++step) {
    // Vertex with maximal saturation; ties by degree, then index.
    std::uint32_t pick = 0;
    bool found = false;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (done[v]) continue;
      if (!found || sat[v].size() > sat[pick].size() ||
          (sat[v].size() == sat[pick].size() &&
           g.degree(v) > g.degree(pick))) {
        pick = v;
        found = true;
      }
    }
    std::uint32_t c = 0;
    while (sat[pick].count(c) != 0) ++c;
    colors[pick] = c;
    done[pick] = true;
    for (std::uint32_t w : g.neighbors(pick)) sat[w].insert(c);
  }
  return colors;
}

std::vector<std::uint32_t> greedy_clique(const Graph& g) {
  if (g.size() == 0) return {};
  std::uint32_t seed = 0;
  for (std::uint32_t v = 1; v < g.size(); ++v) {
    if (g.degree(v) > g.degree(seed)) seed = v;
  }
  std::vector<std::uint32_t> clique{seed};
  std::vector<std::uint32_t> candidates = g.neighbors(seed);
  while (!candidates.empty()) {
    std::uint32_t best = candidates.front();
    std::size_t best_links = 0;
    for (std::uint32_t c : candidates) {
      std::size_t links = 0;
      for (std::uint32_t d : candidates) {
        if (c != d && g.has_edge(c, d)) ++links;
      }
      if (links > best_links) {
        best_links = links;
        best = c;
      }
    }
    clique.push_back(best);
    std::vector<std::uint32_t> next;
    for (std::uint32_t c : candidates) {
      if (c != best && g.has_edge(c, best)) next.push_back(c);
    }
    candidates = std::move(next);
  }
  return clique;
}

std::size_t vertex_conflicts(const Graph& g, const Coloring& colors,
                             std::uint32_t u) {
  std::size_t c = 0;
  for (std::uint32_t v : g.neighbors(u)) {
    if (colors[v] == colors[u]) ++c;
  }
  return c;
}

std::optional<Coloring> sa_find(const Graph& g, std::uint32_t k,
                                const SaConfig& config) {
  if (k == 0) {
    if (g.size() == 0) return Coloring{};
    return std::nullopt;
  }
  Rng rng(config.seed ^ (static_cast<std::uint64_t>(k) << 32));
  for (std::uint64_t attempt = 0; attempt < config.restarts; ++attempt) {
    Coloring colors(g.size());
    for (auto& c : colors) {
      c = static_cast<std::uint32_t>(rng.next_below(k));
    }
    std::size_t energy = 0;
    for (std::uint32_t u = 0; u < g.size(); ++u) {
      energy += vertex_conflicts(g, colors, u);
    }
    energy /= 2;
    double temperature = config.initial_temperature;
    for (std::uint64_t it = 0; it < config.max_iters && energy > 0; ++it) {
      const auto u = static_cast<std::uint32_t>(rng.next_below(g.size()));
      if (vertex_conflicts(g, colors, u) == 0) continue;
      const auto fresh = static_cast<std::uint32_t>(rng.next_below(k));
      if (fresh == colors[u]) continue;
      const std::size_t before = vertex_conflicts(g, colors, u);
      const std::uint32_t old = colors[u];
      colors[u] = fresh;
      const std::size_t after = vertex_conflicts(g, colors, u);
      const auto delta =
          static_cast<double>(after) - static_cast<double>(before);
      if (delta <= 0 ||
          rng.next_double() < std::exp(-delta / std::max(temperature, 1e-9))) {
        energy = energy + after - before;
      } else {
        colors[u] = old;  // reject
      }
      temperature *= config.cooling;
    }
    if (energy == 0) return colors;
  }
  return std::nullopt;
}

/// Annealing from DSATUR down to one color, without the clique stop.
Coloring sa_min(const Graph& g, const SaConfig& config) {
  Coloring best = dsatur(g);
  std::uint32_t colors = color_count(best);
  while (colors > 1) {
    auto attempt = sa_find(g, colors - 1, config);
    if (!attempt.has_value()) break;
    best = std::move(*attempt);
    colors = color_count(best);
  }
  return best;
}

}  // namespace reference

/// G(n, p) for even cases; odd cases add a few hubs joined to most
/// vertices over a sparse base, so degrees (and colors) differ widely.
Graph random_graph(Rng& rng, int index) {
  const auto n = static_cast<std::size_t>(rng.next_below(201));
  Graph g(n);
  if (index % 2 == 0) {
    const double p = 0.6 * rng.next_double();
    for (std::uint32_t u = 0; u < n; ++u) {
      for (std::uint32_t v = u + 1; v < n; ++v) {
        if (rng.next_bool(p)) g.add_edge(u, v);
      }
    }
    return g;
  }
  if (n == 0) return g;
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) {
      if (rng.next_bool(0.03)) g.add_edge(u, v);
    }
  }
  const std::uint64_t hubs = 1 + rng.next_below(4);
  for (std::uint64_t h = 0; h < hubs; ++h) {
    const auto hub = static_cast<std::uint32_t>(rng.next_below(n));
    for (std::uint32_t v = 0; v < n; ++v) {
      if (rng.next_bool(0.8)) g.add_edge(hub, v);
    }
  }
  return g;
}

SaConfig random_sa_config(Rng& rng) {
  SaConfig config;
  config.max_iters = rng.next_below(4001);
  config.initial_temperature = 0.05 + 3.0 * rng.next_double();
  config.cooling = 0.99 + 0.00999 * rng.next_double();
  config.seed = rng();
  config.restarts = 1 + rng.next_below(3);
  return config;
}

TEST(ColoringProperties, HeuristicsEqualTheReferenceImplementations) {
  Rng rng(20261019);
  for (int index = 0; index < kCases; ++index) {
    const Graph g = random_graph(rng, index);
    SCOPED_TRACE("case " + std::to_string(index) + ", n=" +
                 std::to_string(g.size()));
    std::vector<std::uint32_t> order(g.size());
    std::iota(order.begin(), order.end(), 0);
    EXPECT_EQ(greedy_coloring(g), reference::greedy(g, order));
    rng.shuffle(order);
    EXPECT_EQ(greedy_coloring(g, order), reference::greedy(g, order));
    EXPECT_EQ(dsatur_coloring(g), reference::dsatur(g));
    EXPECT_EQ(g.greedy_clique(), reference::greedy_clique(g));
  }
}

TEST(ColoringProperties, AnnealingEqualsTheReferenceImplementation) {
  Rng rng(1271);
  int found = 0;     // direct searches that return a coloring
  int improved = 0;  // descents that end below the DSATUR count
  for (int index = 0; index < kCases; ++index) {
    const Graph g = random_graph(rng, index);
    const SaConfig config = random_sa_config(rng);
    SCOPED_TRACE("case " + std::to_string(index) + ", n=" +
                 std::to_string(g.size()) + ", max_iters=" +
                 std::to_string(config.max_iters));
    const std::uint32_t dsatur_colors = color_count(dsatur_coloring(g));
    // One direct search at a k from 0 to the DSATUR count.
    const auto k =
        static_cast<std::uint32_t>(rng.next_below(dsatur_colors + 1));
    const std::optional<Coloring> direct = sa_find_coloring(g, k, config);
    EXPECT_EQ(direct, reference::sa_find(g, k, config)) << "k=" << k;
    found += direct.has_value();

    const SaScheduleResult result = sa_min_coloring(g, config);
    EXPECT_EQ(result.coloring, reference::sa_min(g, config));
    EXPECT_EQ(result.colors, color_count(result.coloring));
    EXPECT_TRUE(is_proper_coloring(g, result.coloring));
    improved += result.colors < dsatur_colors;
  }
  // Both outcomes of a search are exercised by the generator.
  EXPECT_GT(found, 0);
  EXPECT_LT(found, kCases);
  EXPECT_GT(improved, 0);
}

TEST(ColoringProperties, AnnealingStopsWhenDsaturMeetsTheClique) {
  // A DSATUR count equal to the greedy clique is optimal: annealing
  // returns DSATUR's coloring without a Metropolis step.  Above the
  // clique it tries the next count down.
  Rng rng(806);
  int met = 0;
  int above = 0;
  for (int index = 0; index < kCases; ++index) {
    const Graph g = random_graph(rng, index);
    SaConfig config;
    config.max_iters = 2'000;
    config.restarts = 1;
    const Coloring dsatur = dsatur_coloring(g);
    const SaScheduleResult result = sa_min_coloring(g, config);
    if (color_count(dsatur) == g.greedy_clique().size()) {
      ++met;
      EXPECT_EQ(result.coloring, dsatur) << "case " << index;
      EXPECT_EQ(result.total_iterations, 0u) << "case " << index;
    } else {
      ++above;
      EXPECT_GE(result.total_iterations, 2'000u) << "case " << index;
    }
  }
  // Both branches are exercised by the generator.
  EXPECT_GT(met, 0);
  EXPECT_GT(above, 0);
}

}  // namespace
}  // namespace latticesched
