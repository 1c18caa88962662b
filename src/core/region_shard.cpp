#include "core/region_shard.hpp"

#include <algorithm>
#include <bit>

namespace latticesched {

Coloring plan_greedy(const Deployment& d) {
  const std::size_t n = d.size();
  Coloring colors(n, kUncolored);
  const ConflictRows rows(d);
  std::vector<std::uint32_t> row;
  std::vector<char> taken;
  for (std::uint32_t u = 0; u < n; ++u) {
    // u takes the first slot none of its earlier partners holds.  Slots
    // below 64 are one register word.
    std::uint64_t low = 0;
    rows.for_each_earlier(u, row, [&](std::uint32_t v) {
      if (colors[v] < 64) low |= std::uint64_t{1} << colors[v];
    });
    if (low != ~std::uint64_t{0}) {
      colors[u] = static_cast<std::uint32_t>(std::countr_one(low));
      continue;
    }
    // All 64 are taken (u has 64 or more earlier partners): mark the
    // higher slots too.
    taken.assign(64, 1);
    rows.for_each_earlier(u, row, [&](std::uint32_t v) {
      if (colors[v] >= taken.size()) taken.resize(colors[v] + 1, 0);
      taken[colors[v]] = 1;
    });
    colors[u] = static_cast<std::uint32_t>(
        std::find(taken.begin() + 64, taken.end(), 0) - taken.begin());
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
