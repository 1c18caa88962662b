#include "graph/coloring.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <tuple>

namespace latticesched {

std::uint32_t color_count(const Coloring& c) {
  std::uint32_t m = 0;
  for (std::uint32_t v : c) m = std::max(m, v + 1);
  return m;
}

bool is_proper_coloring(const Graph& g, const Coloring& c) {
  if (c.size() != g.size()) return false;
  for (std::uint32_t u = 0; u < g.size(); ++u) {
    for (std::uint32_t v : g.neighbors(u)) {
      if (c[u] == c[v]) return false;
    }
  }
  return true;
}

Coloring greedy_coloring(const Graph& g,
                         const std::vector<std::uint32_t>& order) {
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  Coloring colors(g.size(), kNone);
  std::vector<bool> used;
  for (std::uint32_t u : order) {
    // The first free color is at most deg(u), so deg(u) + 1 flags decide
    // it (kNone is never below the width).
    const std::size_t width = g.degree(u) + 1;
    used.assign(width, false);
    for (std::uint32_t v : g.neighbors(u)) {
      if (colors[v] < width) used[colors[v]] = true;
    }
    std::uint32_t c = 0;
    while (used[c]) ++c;
    colors[u] = c;
  }
  return colors;
}

Coloring greedy_coloring(const Graph& g) {
  std::vector<std::uint32_t> order(g.size());
  std::iota(order.begin(), order.end(), 0);
  return greedy_coloring(g, order);
}

Coloring incremental_greedy_coloring(std::size_t n,
                                     const NeighborProvider& neighbors,
                                     Coloring previous,
                                     const std::vector<std::uint32_t>& dirty) {
  if (previous.size() != n) {
    throw std::invalid_argument(
        "incremental_greedy_coloring: coloring/vertex-count mismatch");
  }
  // Min-heap keyed by vertex id: popping ascending guarantees every
  // lower-index neighbor holds its final color when a vertex is
  // re-evaluated (changes only ever push HIGHER ids).
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<std::uint32_t>> queue;
  std::vector<char> queued(n, 0);
  const auto push = [&](std::uint32_t u) {
    if (!queued[u]) {
      queued[u] = 1;
      queue.push(u);
    }
  };
  for (std::uint32_t u : dirty) {
    if (u >= n) {
      throw std::invalid_argument(
          "incremental_greedy_coloring: dirty vertex out of range");
    }
    push(u);
  }
  for (std::uint32_t u = 0; u < n; ++u) {
    if (previous[u] == kUncolored) push(u);
  }

  std::vector<bool> used;
  while (!queue.empty()) {
    const std::uint32_t u = queue.top();
    queue.pop();
    queued[u] = 0;
    const std::vector<std::uint32_t>& row = neighbors(u);
    used.assign(row.size() + 2, false);
    for (std::uint32_t v : row) {
      if (v < u && previous[v] != kUncolored &&
          previous[v] < used.size()) {
        used[previous[v]] = true;
      }
    }
    std::uint32_t c = 0;
    while (used[c]) ++c;
    if (c != previous[u]) {
      previous[u] = c;
      for (std::uint32_t v : row) {
        if (v > u) push(v);
      }
    }
  }
  return previous;
}

Coloring welsh_powell_coloring(const Graph& g) {
  std::vector<std::uint32_t> order(g.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return g.degree(a) > g.degree(b);
                   });
  return greedy_coloring(g, order);
}

Coloring dsatur_coloring(const Graph& g) {
  const std::size_t n = g.size();
  Coloring colors(n, kUncolored);
  // seen[v * width + c]: a colored neighbor of v holds c.  A vertex's
  // color is at most its degree, so every color fits below the width.
  const std::size_t width = g.max_degree() + 1;
  std::vector<bool> seen(n * width, false);
  std::vector<std::uint32_t> saturation(n, 0);
  // Max-heap on (saturation, degree, ~index), so the top is the vertex a
  // scan in index order picks.  A vertex is pushed again whenever its
  // saturation grows; its newest entry outranks the older ones, so an
  // entry popped for a colored vertex is stale and skipped.  Stale
  // entries left when the last vertex is colored are never popped.
  using Entry = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;
  std::vector<Entry> entries;
  entries.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    entries.emplace_back(0, static_cast<std::uint32_t>(g.degree(v)), ~v);
  }
  std::priority_queue<Entry> heap(std::less<Entry>(), std::move(entries));
  for (std::size_t left = n; left > 0;) {
    const std::uint32_t pick = ~std::get<2>(heap.top());
    heap.pop();
    if (colors[pick] != kUncolored) continue;
    const std::size_t base = pick * width;
    std::uint32_t c = 0;
    while (seen[base + c]) ++c;
    colors[pick] = c;
    --left;
    for (std::uint32_t w : g.neighbors(pick)) {
      if (colors[w] != kUncolored || seen[w * width + c]) continue;
      seen[w * width + c] = true;
      heap.emplace(++saturation[w], static_cast<std::uint32_t>(g.degree(w)),
                   ~w);
    }
  }
  return colors;
}

namespace {

struct BnbState {
  const Graph* g = nullptr;
  Coloring assign;
  std::uint32_t used = 0;
  Coloring best;
  std::uint32_t best_k = 0;
  std::uint32_t lower_bound = 0;
  std::uint64_t nodes = 0;
  std::uint64_t node_limit = 0;
  bool aborted = false;

  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  void run(std::size_t colored) {
    if (aborted || best_k <= lower_bound) return;
    if (used >= best_k) return;  // cannot beat the incumbent on this path
    if (++nodes > node_limit) {
      aborted = true;
      return;
    }
    const std::size_t n = g->size();
    if (colored == n) {
      best = assign;
      best_k = used;
      return;
    }
    // DSATUR pick: max distinct neighbor colors, ties by degree.
    std::uint32_t pick = 0;
    std::size_t pick_sat = 0;
    bool found = false;
    std::vector<bool> seen;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (assign[v] != kNone) continue;
      seen.assign(used, false);
      std::size_t s = 0;
      for (std::uint32_t w : g->neighbors(v)) {
        const std::uint32_t c = assign[w];
        if (c != kNone && !seen[c]) {
          seen[c] = true;
          ++s;
        }
      }
      if (!found || s > pick_sat ||
          (s == pick_sat && g->degree(v) > g->degree(pick))) {
        pick = v;
        pick_sat = s;
        found = true;
      }
    }
    // Try existing colors plus at most one fresh color, pruned by best_k.
    const std::uint32_t fresh_cap =
        best_k >= 2 ? best_k - 2 : 0;  // fresh color only if used <= best_k-2
    const std::uint32_t c_max = std::min(used, fresh_cap);
    for (std::uint32_t c = 0; c <= c_max && c <= used; ++c) {
      bool feasible = true;
      for (std::uint32_t w : g->neighbors(pick)) {
        if (assign[w] == c) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;
      const std::uint32_t prev_used = used;
      assign[pick] = c;
      used = std::max(used, c + 1);
      run(colored + 1);
      assign[pick] = kNone;
      used = prev_used;
      if (aborted) return;
    }
  }
};

}  // namespace

ExactColoringResult exact_chromatic(const Graph& g,
                                    const ExactColoringConfig& config) {
  ExactColoringResult out;
  const auto clique = g.greedy_clique();
  out.clique_lower_bound = static_cast<std::uint32_t>(clique.size());
  if (g.size() == 0) {
    out.proven_optimal = true;
    return out;
  }
  Coloring heuristic = dsatur_coloring(g);
  std::uint32_t ub = color_count(heuristic);
  if (config.upper_bound_hint < ub) {
    // A hint only helps pruning; the heuristic coloring remains the
    // incumbent since the hint carries no explicit assignment.
    ub = std::max(config.upper_bound_hint, out.clique_lower_bound);
  }

  BnbState st;
  st.g = &g;
  st.assign.assign(g.size(), BnbState::kNone);
  st.best = heuristic;
  st.best_k = color_count(heuristic);
  st.lower_bound = out.clique_lower_bound;
  st.node_limit = config.node_limit;
  if (st.best_k > st.lower_bound) {
    st.run(0);
  }
  out.coloring = st.best;
  out.colors = st.best_k;
  out.nodes = st.nodes;
  out.proven_optimal = !st.aborted || st.best_k == st.lower_bound;
  return out;
}

}  // namespace latticesched
