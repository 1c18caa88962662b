// Periodic tiling search by exact cover on a quotient torus.
//
// Fix a finite-index period sublattice P.  Tiles placed on the quotient
// Z^d / P (with all arithmetic modulo P) that cover every coset exactly
// once lift to a P-periodic tiling of Z^d — this is how non-lattice
// translate sets (such as the mixed S/Z tetromino tiling of the paper's
// Figure 5) are found.  The search is a classic first-empty-cell
// backtracking over placements, complete for the given torus.
//
// Completeness note: any tiling that is periodic with some index-q period
// is also periodic with the diagonal period q·Z^d (the quotient group has
// exponent dividing q), so sweeping diagonal tori of growing size
// eventually finds every periodic tiling.  The sweep is still a
// semi-decision procedure: tiles admitting only aperiodic tilings (none
// are known for single polyominoes) or only large periods fall outside a
// finite budget.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "lattice/sublattice.hpp"
#include "tiling/prototile.hpp"
#include "tiling/tiling.hpp"

namespace latticesched {

/// Optional instrumentation filled by the search (see
/// TorusSearchConfig::stats); both engines count identically, so
/// nodes / wall-time is directly comparable across them.
struct TorusSearchStats {
  /// Placements tried (the budget unit of node_limit).
  std::uint64_t nodes = 0;
  /// Whether any searched torus/subtree hit the node budget.  A search
  /// that exhausted its budget is engine- and parallelism-dependent
  /// (see TorusSearchConfig::node_limit), so e.g. the TilingCache
  /// refuses to memoize a budget-truncated failure.  For a sweep this
  /// ORs over every torus whose outcome influenced the result.
  bool budget_exhausted = false;
};

struct TorusSearchConfig {
  /// Upper bound on period cells for the period sweep.
  std::int64_t max_period_cells = 256;
  /// Backtracking node budget (placements tried).  The budget's scope is
  /// per torus AND, under the parallel root fan-out, per root subtree —
  /// never global across a sweep: the serial sweep resets the counter
  /// for every torus it tries, and the parallel engine gives each root
  /// subtree its own budget (asserted in the engine; pinned by
  /// tests/test_node_budget.cpp).  Consequently a budget-truncated
  /// parallel search may explore MORE nodes than a serial one — with an
  /// ample budget both explore exactly the same nodes.
  std::uint64_t node_limit = 20'000'000;
  /// Require every prototile to appear at least once (used to force
  /// genuinely mixed tilings like Figure 5 left).
  bool require_all_prototiles = false;
  /// Run the dense bitset engine (precomputed footprint masks over coset
  /// ids, zero hashing/allocation per node).  The legacy hash-map path is
  /// kept for comparison benchmarks and cross-validation tests; both
  /// explore placements in the same order and return identical tilings.
  bool use_dense_engine = true;
  /// Allow the shared thread pool (util/parallel.hpp) to speculate: the
  /// period sweep searches several tori concurrently (the first torus in
  /// sweep order that admits a tiling wins, exactly as in the serial
  /// sweep) and a single-torus search fans the root subtrees out (results
  /// concatenated in root-candidate order, i.e. the serial DFS order).
  /// Both are deterministic: any thread count returns the identical
  /// tilings, PROVIDED node_limit is not hit — under parallel execution
  /// the budget applies per torus/subtree rather than globally, so a
  /// budget-truncated parallel search may explore more than a serial one.
  /// Serial whenever this is false or the pool has one thread; the root
  /// fan-out also stays serial inside a parallel region and on tori of
  /// fewer than 16 cells.
  bool use_parallel = true;
  /// When non-null, receives search counters (overwritten per torus; the
  /// parallel sweep reports the winning torus's counters).
  TorusSearchStats* stats = nullptr;

  /// Sanity-checks the budget knobs (throws std::invalid_argument): a
  /// zero node_limit or non-positive max_period_cells would silently
  /// search nothing.  Every search entry point validates.
  void validate() const;
};

/// Exact-cover search on the torus Z^d / period; returns a Tiling whose
/// period is `period` when one exists within the node budget.
std::optional<Tiling> find_tiling_on_torus(
    const std::vector<Prototile>& prototiles, const Sublattice& period,
    const TorusSearchConfig& config = {});

/// Enumerates ALL tilings on the given torus (up to `limit` results);
/// used to survey the schedule-quality spread across tilings (Figure 5's
/// point is that the optimum depends on the chosen tiling).
std::vector<Tiling> all_tilings_on_torus(
    const std::vector<Prototile>& prototiles, const Sublattice& period,
    std::size_t limit, const TorusSearchConfig& config = {});

/// Sweeps diagonal periods a·Z x b·Z (2-D) or cubes (higher d) of
/// increasing cell count and returns the first tiling found.
std::optional<Tiling> search_periodic_tiling(
    const std::vector<Prototile>& prototiles,
    const TorusSearchConfig& config = {});

}  // namespace latticesched
