#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace latticesched {

Graph::Graph(std::size_t n) : adj_(n) {}

Graph Graph::from_sorted_adjacency(
    std::vector<std::vector<std::uint32_t>> adjacency) {
  const std::size_t n = adjacency.size();
  Graph g(n);
  // Rows are visited in ascending order, so the rows that list a vertex
  // v below themselves arrive in ascending order too: each must be the
  // next unmatched entry above v in v's own row, which cursor[v] points
  // at.  Symmetric iff every such match holds and every cursor ends at
  // the end of its row.
  std::vector<std::size_t> cursor(n, 0);
  std::size_t directed = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    const auto& au = adjacency[u];
    std::size_t lower = 0;
    for (std::size_t i = 0; i < au.size(); ++i) {
      const std::uint32_t v = au[i];
      if (v >= n || v == u) {
        throw std::invalid_argument(
            "Graph::from_sorted_adjacency: bad neighbor");
      }
      if (i > 0 && au[i - 1] >= v) {
        throw std::invalid_argument(
            "Graph::from_sorted_adjacency: list not sorted/unique");
      }
      if (v > u) continue;
      const auto& av = adjacency[v];
      if (cursor[v] == av.size() || av[cursor[v]] != u) {
        throw std::invalid_argument(
            "Graph::from_sorted_adjacency: asymmetric edge");
      }
      ++cursor[v];
      ++lower;
    }
    cursor[u] = lower;
    directed += au.size();
  }
  for (std::uint32_t u = 0; u < n; ++u) {
    if (cursor[u] != adjacency[u].size()) {
      throw std::invalid_argument(
          "Graph::from_sorted_adjacency: asymmetric edge");
    }
  }
  g.adj_ = std::move(adjacency);
  g.edges_ = directed / 2;
  return g;
}

void Graph::add_edge(std::uint32_t u, std::uint32_t v) {
  if (u >= size() || v >= size()) {
    throw std::out_of_range("Graph::add_edge: vertex out of range");
  }
  if (u == v) return;
  auto& au = adj_[u];
  const auto it = std::lower_bound(au.begin(), au.end(), v);
  if (it != au.end() && *it == v) return;  // duplicate
  au.insert(it, v);
  auto& av = adj_[v];
  av.insert(std::lower_bound(av.begin(), av.end(), u), u);
  ++edges_;
}

bool Graph::has_edge(std::uint32_t u, std::uint32_t v) const {
  if (u >= size() || v >= size()) return false;
  const auto& au = adj_[u];
  return std::binary_search(au.begin(), au.end(), v);
}

const std::vector<std::uint32_t>& Graph::neighbors(std::uint32_t u) const {
  return adj_.at(u);
}

std::size_t Graph::max_degree() const {
  std::size_t d = 0;
  for (const auto& a : adj_) d = std::max(d, a.size());
  return d;
}

std::vector<std::uint32_t> Graph::greedy_clique() const {
  if (size() == 0) return {};
  std::uint32_t seed = 0;
  for (std::uint32_t v = 1; v < size(); ++v) {
    if (degree(v) > degree(seed)) seed = v;
  }
  std::vector<std::uint32_t> clique{seed};
  std::vector<std::uint32_t> candidates = adj_[seed];
  // Membership flags of `candidates`: a candidate's links into the set
  // are one pass over its row.
  std::vector<char> is_candidate(size(), 0);
  while (!candidates.empty()) {
    // Pick the candidate with the most connections into the candidate set.
    for (std::uint32_t c : candidates) is_candidate[c] = 1;
    std::uint32_t best = candidates.front();
    std::size_t best_links = 0;
    for (std::uint32_t c : candidates) {
      std::size_t links = 0;
      for (std::uint32_t d : adj_[c]) links += is_candidate[d];
      if (links > best_links) {
        best_links = links;
        best = c;
      }
    }
    for (std::uint32_t c : candidates) is_candidate[c] = 0;
    clique.push_back(best);
    std::vector<std::uint32_t> next;
    for (std::uint32_t c : candidates) {
      if (c != best && has_edge(c, best)) next.push_back(c);
    }
    candidates = std::move(next);
  }
  return clique;
}

}  // namespace latticesched
