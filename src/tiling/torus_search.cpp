#include "tiling/torus_search.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "lattice/point_index.hpp"
#include "tiling/mask_kernels.hpp"
#include "util/parallel.hpp"

namespace latticesched {

namespace {

// ---------------------------------------------------------------------------
// Legacy engine (seed implementation): per-node reduce() + hash lookups +
// a heap-allocated id scratch per placement.  Kept verbatim as the
// reference the dense engine is benchmarked and cross-validated against.
// ---------------------------------------------------------------------------

struct LegacyState {
  const std::vector<Prototile>* prototiles = nullptr;
  const Sublattice* period = nullptr;
  // Torus cells in a fixed order with an index lookup.
  PointVec cells;
  PointMap<std::uint32_t> cell_index;
  std::vector<bool> covered;
  std::size_t covered_count = 0;
  std::vector<std::pair<Point, std::uint32_t>> placements;
  std::vector<std::size_t> uses;  // placements per prototile
  std::uint64_t nodes = 0;
  std::uint64_t node_limit = 0;
  bool require_all = false;
  std::size_t result_limit = 1;
  std::vector<Tiling>* results = nullptr;
};

// Records the current placement list as a Tiling (validation re-runs in
// Tiling::periodic, which acts as an internal consistency check).
void emit_legacy(LegacyState& st) {
  st.results->push_back(
      Tiling::periodic(*st.prototiles, *st.period, st.placements));
}

bool search_legacy(LegacyState& st) {
  if (st.covered_count == st.cells.size()) {
    if (st.require_all) {
      for (std::size_t k = 0; k < st.uses.size(); ++k) {
        if (st.uses[k] == 0) return false;
      }
    }
    emit_legacy(st);
    return st.results->size() >= st.result_limit;
  }
  // First uncovered cell; every placement covering it is tried once.
  std::size_t first = 0;
  while (st.covered[first]) ++first;
  const Point& target = st.cells[first];

  for (std::uint32_t k = 0; k < st.prototiles->size(); ++k) {
    const Prototile& tile = (*st.prototiles)[k];
    for (std::size_t e = 0; e < tile.size(); ++e) {
      if (++st.nodes > st.node_limit) return true;  // budget exhausted
      const Point translate = target - tile.element(e);
      // Collect the covered cell indices; reject overlaps and self-wraps.
      bool feasible = true;
      std::vector<std::uint32_t> ids;
      ids.reserve(tile.size());
      for (const Point& n : tile.points()) {
        const Point cell = st.period->reduce(translate + n);
        const std::uint32_t id = st.cell_index.at(cell);
        if (st.covered[id] ||
            std::find(ids.begin(), ids.end(), id) != ids.end()) {
          feasible = false;
          break;
        }
        ids.push_back(id);
      }
      if (!feasible) continue;
      for (std::uint32_t id : ids) st.covered[id] = true;
      st.covered_count += ids.size();
      st.placements.emplace_back(translate, k);
      ++st.uses[k];
      const bool done = search_legacy(st);
      --st.uses[k];
      st.placements.pop_back();
      st.covered_count -= ids.size();
      for (std::uint32_t id : ids) st.covered[id] = false;
      if (done) return true;
    }
  }
  return false;
}

std::vector<Tiling> run_search_legacy(
    const std::vector<Prototile>& prototiles, const Sublattice& period,
    const TorusSearchConfig& config, std::size_t limit) {
  std::vector<Tiling> results;
  LegacyState st;
  st.prototiles = &prototiles;
  st.period = &period;
  st.cells = period.coset_representatives();
  for (std::uint32_t i = 0; i < st.cells.size(); ++i) {
    st.cell_index.emplace(st.cells[i], i);
  }
  st.covered.assign(st.cells.size(), false);
  st.uses.assign(prototiles.size(), 0);
  st.node_limit = config.node_limit;
  st.require_all = config.require_all_prototiles;
  st.result_limit = limit;
  st.results = &results;
  search_legacy(st);
  // node_limit is a per-torus budget: one serial search may overshoot by
  // at most the final (budget-exhausting) increment.
  assert(st.nodes <= config.node_limit + 1);
  if (config.stats != nullptr) {
    *config.stats = TorusSearchStats{};
    config.stats->nodes = st.nodes;
    config.stats->budget_exhausted = st.nodes > config.node_limit;
  }
  return results;
}

// ---------------------------------------------------------------------------
// Dense engine.  All per-node work runs on precomputed integer tables:
//
//  * cells are coset ids (PointIndexer::for_sublattice order, identical to
//    the legacy cell order);
//  * for every (prototile k, translate class t) the placement footprint
//    {id(t + n) : n in N_k} is precomputed once as a sorted 64-bit word
//    mask plus a flat id list, with a self-overlap flag for tiles that
//    wrap onto themselves on a small torus;
//  * every cell c owns a fixed candidate list — one entry per (k, element)
//    in the legacy enumeration order — pointing at the footprint of the
//    placement that covers c with that element;
//  * the search keeps coverage as a bitset, tests feasibility with W word
//    ANDs, applies/undoes placements with W word XORs, and finds the next
//    uncovered cell with a ctz scan starting from the parent's cursor.
//
// No reduce(), hashing, or allocation happens inside the recursion.
// ---------------------------------------------------------------------------

struct Footprint {
  std::uint32_t mask_begin = 0;  // offset into DenseTables::mask_words
  std::uint32_t id_begin = 0;    // offset into DenseTables::footprint_ids
  std::uint16_t size = 0;
  bool self_ok = false;  // false: placement overlaps itself (always reject)
};

struct Candidate {
  std::uint32_t footprint = 0;      // index into DenseTables::footprints
  std::uint32_t translate_class = 0;  // canonical translate cell id
  std::uint32_t prototile = 0;
};

struct DenseTables {
  std::uint32_t cells = 0;
  std::uint32_t words = 0;  // 64-bit words per coverage mask
  std::vector<Footprint> footprints;      // [k * cells + translate_class]
  std::vector<std::uint64_t> mask_words;  // footprint masks, flat
  std::vector<std::uint32_t> footprint_ids;  // footprint cell ids, flat
  std::vector<Candidate> candidates;  // [cell * cand_stride + slot]
  std::uint32_t cand_stride = 0;      // sum of prototile sizes
  PointVec cell_points;               // id -> canonical representative
};

DenseTables build_tables(const std::vector<Prototile>& prototiles,
                         const Sublattice& period) {
  DenseTables t;
  const PointIndexer index = PointIndexer::for_sublattice(period);
  t.cells = static_cast<std::uint32_t>(index.size());
  t.words = (t.cells + 63) / 64;
  t.cell_points = index.points();

  std::size_t total_elems = 0;
  for (const Prototile& tile : prototiles) total_elems += tile.size();
  t.cand_stride = static_cast<std::uint32_t>(total_elems);

  // Footprints: one per (prototile, translate class).
  t.footprints.resize(prototiles.size() * t.cells);
  t.mask_words.assign(t.footprints.size() * t.words, 0);
  t.footprint_ids.reserve(total_elems * t.cells);
  for (std::uint32_t k = 0; k < prototiles.size(); ++k) {
    const Prototile& tile = prototiles[k];
    for (std::uint32_t c = 0; c < t.cells; ++c) {
      Footprint& fp = t.footprints[k * t.cells + c];
      fp.id_begin = static_cast<std::uint32_t>(t.footprint_ids.size());
      fp.mask_begin = static_cast<std::uint32_t>((k * t.cells + c) * t.words);
      fp.size = static_cast<std::uint16_t>(tile.size());
      fp.self_ok = true;
      const Point& translate = t.cell_points[c];
      for (const Point& n : tile.points()) {
        const std::uint32_t id = index.id_of(period.reduce(translate + n));
        std::uint64_t& word = t.mask_words[fp.mask_begin + id / 64];
        const std::uint64_t bit = std::uint64_t{1} << (id % 64);
        if ((word & bit) != 0) fp.self_ok = false;  // wraps onto itself
        word |= bit;
        t.footprint_ids.push_back(id);
      }
    }
  }

  // Candidates: for cell c, the legacy loop order is (prototile k, element
  // e); the placement translate is the class of c - element(e).
  t.candidates.resize(static_cast<std::size_t>(t.cells) * t.cand_stride);
  for (std::uint32_t c = 0; c < t.cells; ++c) {
    std::size_t slot = static_cast<std::size_t>(c) * t.cand_stride;
    for (std::uint32_t k = 0; k < prototiles.size(); ++k) {
      const Prototile& tile = prototiles[k];
      for (std::size_t e = 0; e < tile.size(); ++e, ++slot) {
        const std::uint32_t tc = index.id_of(
            period.reduce(t.cell_points[c] - tile.element(e)));
        t.candidates[slot] = Candidate{k * t.cells + tc, tc, k};
      }
    }
  }
  return t;
}

struct DenseState {
  const std::vector<Prototile>* prototiles = nullptr;
  const Sublattice* period = nullptr;
  const DenseTables* tables = nullptr;
  std::vector<std::uint64_t> covered;  // bitset over cell ids
  std::uint32_t covered_count = 0;
  std::vector<std::pair<Point, std::uint32_t>> placements;
  std::vector<std::size_t> uses;
  std::uint64_t nodes = 0;
  std::uint64_t node_limit = 0;
  bool require_all = false;
  std::size_t result_limit = 1;
  std::vector<Tiling>* results = nullptr;
  // Parallel root fan-out only: subtree `subtree_index` may abandon its
  // search once an earlier subtree alone satisfied the result limit (the
  // abandoned results are provably beyond the limit cut, so the final
  // output is unchanged — see run_search_dense_parallel).
  const std::atomic<std::uint32_t>* satisfied = nullptr;
  std::uint32_t subtree_index = 0;
  // Parallel root fan-out only: node-count checkpoint per emitted result
  // (see emit_dense).
  std::vector<std::uint64_t>* result_nodes = nullptr;
};

void emit_dense(DenseState& st) {
  st.results->push_back(
      Tiling::periodic(*st.prototiles, *st.period, st.placements));
  // Parallel root fan-out only: checkpoint the node count at each
  // emission so the slot-ordered accumulation can charge a subtree that
  // straddles the result-limit cut exactly the nodes the serial DFS
  // would have spent before stopping there.
  if (st.result_nodes != nullptr) st.result_nodes->push_back(st.nodes);
}

// `cursor` is a lower bound on the first uncovered cell id: every cell
// below it was covered when the parent recursed, and placements only add
// coverage, so the scan never revisits the prefix.
bool search_dense(DenseState& st, std::uint32_t cursor) {
  const DenseTables& t = *st.tables;
  if (st.satisfied != nullptr &&
      st.subtree_index > st.satisfied->load(std::memory_order_relaxed)) {
    return true;  // an earlier subtree already produced every needed result
  }
  if (st.covered_count == t.cells) {
    if (st.require_all) {
      for (std::size_t k = 0; k < st.uses.size(); ++k) {
        if (st.uses[k] == 0) return false;
      }
    }
    emit_dense(st);
    return st.results->size() >= st.result_limit;
  }
  // First uncovered cell at or after the cursor.  The tail bits of the
  // last word are never set, and covered_count < cells guarantees a zero
  // bit exists at or after `cursor`; the >= cells guard below is cheap
  // release-build safety only.
  const std::uint32_t first = mask_kernels::first_uncovered_scalar(
      st.covered.data(), t.words, cursor);
  if (first >= t.cells) return false;

  const Candidate* cand =
      &t.candidates[static_cast<std::size_t>(first) * t.cand_stride];
  for (std::uint32_t s = 0; s < t.cand_stride; ++s) {
    if (++st.nodes > st.node_limit) return true;  // budget exhausted
    const Candidate& c = cand[s];
    const Footprint& fp = t.footprints[c.footprint];
    if (!fp.self_ok) continue;
    const std::uint64_t* mask = &t.mask_words[fp.mask_begin];
    if (mask_kernels::any_overlap_scalar(st.covered.data(), mask, t.words)) {
      continue;
    }
    mask_kernels::toggle_scalar(st.covered.data(), mask, t.words);
    st.covered_count += fp.size;
    st.placements.emplace_back(t.cell_points[c.translate_class],
                               c.prototile);
    ++st.uses[c.prototile];
    const bool done = search_dense(st, first + 1);
    --st.uses[c.prototile];
    st.placements.pop_back();
    st.covered_count -= fp.size;
    mask_kernels::toggle_scalar(st.covered.data(), mask, t.words);
    if (done) return true;
  }
  return false;
}

// The state of a search on the empty torus, emitting into `results`.
DenseState empty_state(const std::vector<Prototile>& prototiles,
                       const Sublattice& period, const DenseTables& tables,
                       const TorusSearchConfig& config, std::size_t limit,
                       std::vector<Tiling>* results) {
  DenseState st;
  st.prototiles = &prototiles;
  st.period = &period;
  st.tables = &tables;
  st.covered.assign(tables.words, 0);
  st.uses.assign(prototiles.size(), 0);
  st.placements.reserve(tables.cells);
  st.node_limit = config.node_limit;
  st.require_all = config.require_all_prototiles;
  st.result_limit = limit;
  st.results = results;
  return st;
}

std::vector<Tiling> run_search_dense(
    const std::vector<Prototile>& prototiles, const Sublattice& period,
    const TorusSearchConfig& config, std::size_t limit) {
  std::vector<Tiling> results;
  const DenseTables tables = build_tables(prototiles, period);
  DenseState st =
      empty_state(prototiles, period, tables, config, limit, &results);
  search_dense(st, 0);
  assert(st.nodes <= config.node_limit + 1);
  if (config.stats != nullptr) {
    config.stats->nodes = st.nodes;
    config.stats->budget_exhausted = st.nodes > config.node_limit;
  }
  return results;
}

// ---------------------------------------------------------------------------
// Parallel dense engine: root fan-out.
//
// The serial DFS explores the candidate subtrees of the root (cell 0, the
// first uncovered cell of the empty torus) strictly in slot order; the
// subtrees are independent, so their result streams concatenate in that
// order to the exact serial output.  parallel_for runs one task per root
// slot, each with its own node budget (the documented per-subtree scope
// of node_limit, pinned by tests/test_node_budget.cpp).
//
// Node accounting mirrors the serial engine: each root trial is one node
// charged to its subtree, and the slot-ordered accumulation stops at the
// result-limit cut just as the serial DFS stops — a subtree straddling
// the cut is charged only the nodes up to its needed-th emission (the
// per-result checkpoints of emit_dense).  With an ample budget the total
// equals the serial node count at any thread count, result-limit cuts
// included (tests/test_parallel.cpp).
//
// Cancellation: `satisfied` is an atomic min over slots whose subtree
// ALONE produced `limit` results; any later slot may abandon, because
// everything it could emit falls beyond the limit cut.
// ---------------------------------------------------------------------------

std::vector<Tiling> run_search_dense_parallel(
    const std::vector<Prototile>& prototiles, const Sublattice& period,
    const TorusSearchConfig& config, std::size_t limit) {
  const DenseTables tables = build_tables(prototiles, period);
  if (tables.cells == 0 || tables.cand_stride == 0) return {};

  std::atomic<std::uint32_t> satisfied{~std::uint32_t{0}};
  std::vector<std::vector<Tiling>> results(tables.cand_stride);
  std::vector<std::vector<std::uint64_t>> result_nodes(tables.cand_stride);
  std::vector<std::uint64_t> nodes(tables.cand_stride, 0);
  std::vector<char> exhausted(tables.cand_stride, 0);

  parallel_for(0, tables.cand_stride, [&](std::size_t s) {
    const std::uint32_t slot = static_cast<std::uint32_t>(s);
    nodes[s] = 1;  // the root trial itself, as the serial loop counts it
    const Candidate& c = tables.candidates[s];  // root = cell 0
    const Footprint& fp = tables.footprints[c.footprint];
    if (!fp.self_ok || slot > satisfied.load(std::memory_order_relaxed)) {
      return;
    }
    DenseState st =
        empty_state(prototiles, period, tables, config, limit, &results[s]);
    mask_kernels::toggle_scalar(st.covered.data(),
                                &tables.mask_words[fp.mask_begin],
                                tables.words);
    st.covered_count = fp.size;
    st.placements.emplace_back(tables.cell_points[c.translate_class],
                               c.prototile);
    ++st.uses[c.prototile];
    st.satisfied = &satisfied;
    st.subtree_index = slot;
    st.result_nodes = &result_nodes[s];
    search_dense(st, 1);
    assert(st.nodes <= config.node_limit + 1);
    for (std::uint64_t& checkpoint : result_nodes[s]) checkpoint += 1;
    nodes[s] += st.nodes;
    exhausted[s] = st.nodes > config.node_limit ? 1 : 0;
    if (results[s].size() >= limit) {
      std::uint32_t cur = satisfied.load(std::memory_order_relaxed);
      while (slot < cur && !satisfied.compare_exchange_weak(
                               cur, slot, std::memory_order_relaxed)) {
      }
    }
  });

  std::vector<Tiling> out;
  std::uint64_t total_nodes = 0;
  bool any_exhausted = false;
  for (std::uint32_t s = 0; s < tables.cand_stride; ++s) {
    const std::size_t needed = limit - out.size();
    if (results[s].size() >= needed) {
      // This subtree straddles the result-limit cut: the serial DFS
      // stops at the needed-th emission, so only the nodes up to that
      // checkpoint are charged (and the budget was clearly not hit by
      // then — emissions stop once the budget trips).
      total_nodes += result_nodes[s][needed - 1];
      for (std::size_t i = 0; i < needed; ++i) {
        out.push_back(std::move(results[s][i]));
      }
      break;
    }
    total_nodes += nodes[s];
    any_exhausted = any_exhausted || exhausted[s] != 0;
    for (Tiling& tl : results[s]) out.push_back(std::move(tl));
  }
  if (config.stats != nullptr) {
    config.stats->nodes = total_nodes;
    config.stats->budget_exhausted = any_exhausted;
  }
  return out;
}

std::vector<Tiling> run_search(const std::vector<Prototile>& prototiles,
                               const Sublattice& period,
                               const TorusSearchConfig& config,
                               std::size_t limit) {
  config.validate();
  if (prototiles.empty()) {
    throw std::invalid_argument("torus search: no prototiles");
  }
  for (const Prototile& t : prototiles) {
    if (t.dim() != period.dim()) {
      throw std::invalid_argument("torus search: dimension mismatch");
    }
  }
  // The dense tables are O(prototiles x cells^2 / 64) words of footprint
  // masks; past ~64MB the precompute dominates any search, so huge tori
  // (far beyond the default sweep sizes) drop back to the seed engine.
  const std::uint64_t cells = static_cast<std::uint64_t>(period.index());
  const std::uint64_t mask_bytes =
      prototiles.size() * cells * ((cells + 63) / 64) * 8;
  if (config.use_dense_engine && mask_bytes <= (std::uint64_t{64} << 20)) {
    if (config.use_parallel && parallel_threads() > 1 &&
        !in_parallel_region() && cells >= 16) {
      return run_search_dense_parallel(prototiles, period, config, limit);
    }
    return run_search_dense(prototiles, period, config, limit);
  }
  return run_search_legacy(prototiles, period, config, limit);
}

}  // namespace

void TorusSearchConfig::validate() const {
  if (node_limit == 0) {
    throw std::invalid_argument(
        "TorusSearchConfig: node_limit must be >= 1 (the budget applies "
        "per torus/subtree, never globally)");
  }
  if (max_period_cells <= 0) {
    throw std::invalid_argument(
        "TorusSearchConfig: max_period_cells must be positive");
  }
}

std::optional<Tiling> find_tiling_on_torus(
    const std::vector<Prototile>& prototiles, const Sublattice& period,
    const TorusSearchConfig& config) {
  auto results = run_search(prototiles, period, config, 1);
  if (results.empty()) return std::nullopt;
  return std::move(results.front());
}

std::vector<Tiling> all_tilings_on_torus(
    const std::vector<Prototile>& prototiles, const Sublattice& period,
    std::size_t limit, const TorusSearchConfig& config) {
  return run_search(prototiles, period, config, limit);
}

std::optional<Tiling> search_periodic_tiling(
    const std::vector<Prototile>& prototiles,
    const TorusSearchConfig& config) {
  config.validate();
  if (prototiles.empty()) {
    throw std::invalid_argument("search_periodic_tiling: no prototiles");
  }
  const std::size_t d = prototiles.front().dim();
  // Candidate diagonal periods ordered by cell count, then by shape.
  std::vector<std::vector<std::int64_t>> shapes;
  if (d == 2) {
    for (std::int64_t a = 1; a * a <= config.max_period_cells * 4; ++a) {
      for (std::int64_t b = a; a * b <= config.max_period_cells; ++b) {
        shapes.push_back({a, b});
        if (a != b) shapes.push_back({b, a});
      }
    }
  } else {
    for (std::int64_t a = 1;; ++a) {
      std::int64_t cells = 1;
      for (std::size_t i = 0; i < d; ++i) cells *= a;
      if (cells > config.max_period_cells) break;
      shapes.push_back(std::vector<std::int64_t>(d, a));
    }
  }
  std::sort(shapes.begin(), shapes.end(),
            [](const auto& x, const auto& y) {
              std::int64_t px = 1, py = 1;
              for (auto v : x) px *= v;
              for (auto v : y) py *= v;
              if (px != py) return px < py;
              return x < y;
            });
  // Minimum cells: the smallest prototile must fit at least once, and for
  // single-prototile tilings the size must divide the cell count.
  std::size_t min_tile = prototiles.front().size();
  for (const auto& t : prototiles) min_tile = std::min(min_tile, t.size());
  std::vector<Sublattice> tori;
  for (const auto& shape : shapes) {
    std::int64_t cells = 1;
    for (auto v : shape) cells *= v;
    if (cells < static_cast<std::int64_t>(min_tile)) continue;
    if (prototiles.size() == 1 &&
        cells % static_cast<std::int64_t>(min_tile) != 0) {
      continue;
    }
    tori.push_back(Sublattice::diagonal(shape));
  }
  if (tori.empty()) return std::nullopt;
  // One admissible torus: nothing to speculate across — let the dense
  // engine's root-subtree fan-out (if enabled) parallelize that single
  // search instead.
  if (tori.size() == 1) {
    return find_tiling_on_torus(prototiles, tori.front(), config);
  }

  // Speculative sweep: workers claim torus indices in sweep order from an
  // atomic cursor and search each torus serially; the smallest index that
  // admits a tiling wins.  Because indices are claimed in increasing
  // order, every index below a reported hit is already claimed and will
  // finish, so the CAS-min over hit indices converges to exactly the
  // serial sweep's answer (the per-torus search is itself deterministic).
  // With one thread the same loop degenerates to the serial sweep,
  // including its early exit after the first hit.
  const std::size_t threads =
      (config.use_parallel && !in_parallel_region())
          ? std::min(parallel_threads(), tori.size())
          : 1;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> best{tori.size()};
  std::vector<std::optional<Tiling>> found(tori.size());
  std::vector<TorusSearchStats> stats(tori.size());
  const auto sweep_worker = [&](std::size_t) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tori.size() || i >= best.load(std::memory_order_acquire)) {
        return;
      }
      TorusSearchConfig local = config;
      local.stats = &stats[i];
      local.use_parallel = false;  // one torus per worker; don't nest
      auto tiling = find_tiling_on_torus(prototiles, tori[i], local);
      if (tiling.has_value()) {
        found[i] = std::move(tiling);
        std::size_t cur = best.load(std::memory_order_relaxed);
        while (i < cur && !best.compare_exchange_weak(
                              cur, i, std::memory_order_release)) {
        }
      }
    }
  };
  if (threads <= 1) {
    sweep_worker(0);
  } else {
    ThreadPool::global().run(threads, sweep_worker);
  }
  const std::size_t winner = best.load(std::memory_order_relaxed);
  if (winner < tori.size()) {
    if (config.stats != nullptr) {
      *config.stats = stats[winner];
      // Every torus below the winner was searched and failed; if any of
      // them hit the budget, the choice of winner itself is
      // budget-dependent.
      for (std::size_t i = 0; i < winner; ++i) {
        config.stats->budget_exhausted =
            config.stats->budget_exhausted || stats[i].budget_exhausted;
      }
    }
    return std::move(found[winner]);
  }
  // No torus admits a tiling; report the last searched torus's counters,
  // matching the serial sweep's overwrite-per-torus behavior (the
  // exhaustion flag ORs over the whole sweep — a failure is only
  // budget-independent if no torus truncated).
  if (config.stats != nullptr) {
    *config.stats = stats[tori.size() - 1];
    for (const TorusSearchStats& s : stats) {
      config.stats->budget_exhausted =
          config.stats->budget_exhausted || s.budget_exhausted;
    }
  }
  return std::nullopt;
}

}  // namespace latticesched
