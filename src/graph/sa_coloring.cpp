#include "graph/sa_coloring.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace latticesched {

std::optional<Coloring> sa_find_coloring(const Graph& g, std::uint32_t k,
                                         const SaConfig& config) {
  if (k == 0) {
    if (g.size() == 0) return Coloring{};
    return std::nullopt;
  }
  const std::size_t n = g.size();
  Rng rng(config.seed ^ (static_cast<std::uint64_t>(k) << 32));
  // conflicts[u * k + c]: how many of u's neighbors hold color c.
  std::vector<std::uint32_t> conflicts;
  for (std::uint64_t attempt = 0; attempt < config.restarts; ++attempt) {
    Coloring colors(n);
    for (auto& c : colors) {
      c = static_cast<std::uint32_t>(rng.next_below(k));
    }
    conflicts.assign(n * k, 0);
    std::size_t energy = 0;
    for (std::uint32_t u = 0; u < n; ++u) {
      std::uint32_t* const row = &conflicts[std::size_t{u} * k];
      for (std::uint32_t v : g.neighbors(u)) ++row[colors[v]];
      energy += row[colors[u]];
    }
    energy /= 2;  // each monochromatic edge was counted from both ends
    double temperature = config.initial_temperature;
    for (std::uint64_t it = 0; it < config.max_iters && energy > 0; ++it) {
      const auto u = static_cast<std::uint32_t>(rng.next_below(n));
      const std::uint32_t* const row = &conflicts[std::size_t{u} * k];
      const std::uint32_t old = colors[u];
      if (row[old] == 0) continue;
      const auto fresh = static_cast<std::uint32_t>(rng.next_below(k));
      if (fresh == old) continue;
      const std::size_t before = row[old];
      const std::size_t after = row[fresh];
      const auto delta =
          static_cast<double>(after) - static_cast<double>(before);
      if (delta <= 0 ||
          rng.next_double() < std::exp(-delta / std::max(temperature, 1e-9))) {
        colors[u] = fresh;
        energy = energy + after - before;
        for (std::uint32_t v : g.neighbors(u)) {
          std::uint32_t* const neighbor_row = &conflicts[std::size_t{v} * k];
          --neighbor_row[old];
          ++neighbor_row[fresh];
        }
      }
      temperature *= config.cooling;
    }
    if (energy == 0) return colors;
  }
  return std::nullopt;
}

SaScheduleResult sa_min_coloring(const Graph& g, const SaConfig& config) {
  SaScheduleResult out;
  out.coloring = dsatur_coloring(g);
  out.colors = color_count(out.coloring);
  // No proper coloring uses fewer colors than a clique has vertices, so
  // every attempt below the clique size would fail.
  const std::size_t clique = g.greedy_clique().size();
  while (out.colors > clique) {
    const std::uint32_t target = out.colors - 1;
    auto attempt = sa_find_coloring(g, target, config);
    out.total_iterations += config.max_iters * config.restarts;
    if (!attempt.has_value()) break;
    out.coloring = std::move(*attempt);
    out.colors = color_count(out.coloring);
  }
  return out;
}

}  // namespace latticesched
