#include "core/region_shard.hpp"

namespace latticesched {

Coloring plan_greedy(const Deployment& d) {
  const std::size_t n = d.size();
  Coloring colors(n, kUncolored);
  const ConflictRows rows(d);
  std::vector<std::uint32_t> row;
  std::vector<bool> used;
  for (std::uint32_t u = 0; u < n; ++u) {
    rows.build(u, row);
    used.assign(row.size() + 1, false);
    for (const std::uint32_t v : row) {
      if (v < u && colors[v] < used.size()) used[colors[v]] = true;
    }
    std::uint32_t c = 0;
    while (used[c]) ++c;
    colors[u] = c;
  }
  return colors;
}

std::uint64_t repair_greedy_table(const ConflictRows& rows, Coloring& colors,
                                  const std::vector<std::uint32_t>& seeds) {
  std::vector<std::uint32_t> row;
  const NeighborProvider provider =
      [&](std::uint32_t u) -> const std::vector<std::uint32_t>& {
    rows.build(u, row);
    return row;
  };
  const Coloring before = colors;
  const std::size_t n = colors.size();
  colors = incremental_greedy_coloring(n, provider, std::move(colors), seeds);
  std::uint64_t changed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (colors[i] != before[i]) ++changed;
  }
  return changed;
}

}  // namespace latticesched
