// Machine-readable plan reports: CSV and JSON emission AND parsing.
//
// The emitters serialize PlanResults (one row/object per backend result,
// including the multichannel fields) and whole BatchReports (items plus
// the TilingCache hit/miss counters, so a sweep report proves its cache
// behavior).  The parsers read exactly the formats the emitters write —
// they exist so round-trips are testable and downstream tooling can
// rely on the schema staying parseable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan_service.hpp"
#include "core/planner.hpp"

namespace latticesched {

/// Writes results as a CSV / JSON report (one row or object per result).
std::string plan_results_to_csv(const std::vector<PlanResult>& results,
                                const std::string& scenario = "");
std::string plan_results_to_json(const std::vector<PlanResult>& results,
                                 const std::string& scenario = "");

/// JSON rows tagged with a session step — the REPLAN/EVENT result body
/// of the serve protocol (src/serve); parse_plan_results_json reads it
/// back, so a remote client reassembles the exact rows a local
/// PlanSession run would emit.
std::string plan_results_to_json(const std::vector<PlanResult>& results,
                                 const std::string& scenario,
                                 std::uint64_t step);

/// The serialized surface of a PlanResult — what a report row carries
/// (slot tables themselves ship via core/serialization.hpp).
struct PlanResultRow {
  std::string scenario;
  /// Session step the result belongs to (0 = initial deployment / any
  /// static plan; dynamic items tag each step's rows with its `at`).
  std::uint64_t step = 0;
  std::string backend;
  bool ok = false;
  std::size_t sensors = 0;
  std::uint32_t period = 0;
  std::uint32_t lower_bound = 0;
  double optimality_gap = 0.0;
  bool collision_free = false;
  bool verified = false;  ///< collision checker actually ran
  double slot_balance = 0.0;
  double duty_cycle = 0.0;
  double wall_ms = 0.0;
  std::uint32_t channels = 1;
  std::uint32_t effective_period = 0;  ///< folded period (== period at c=1)
  /// Auto-backend provenance ("" / "cache-hit" / "searched") and the
  /// serialized TunedConfig it delegated with (PlanResult::{tuned,
  /// tuned_config}; both token-safe, so they sit unquoted in the CSV).
  std::string tuned;
  std::string tuned_config;
  std::string detail;                  ///< JSON only (CSV omits it)
  std::string error;
};

/// The row the emitters would write for `result` (`step` tags dynamic
/// session steps; 0 for one-shot plans).
PlanResultRow to_row(const PlanResult& result, const std::string& scenario,
                     std::uint64_t step = 0);

/// Parse the emitters' output; throw std::invalid_argument on malformed
/// input.  parse_plan_results_csv leaves `detail` empty (CSV omits it).
std::vector<PlanResultRow> parse_plan_results_csv(const std::string& csv);
std::vector<PlanResultRow> parse_plan_results_json(const std::string& json);

/// Batch reports: CSV is the per-result rows of every item (labelled by
/// the item's scenario label) — cache counters don't fit a row stream
/// and are surfaced by the JSON form and the driver's footer.  JSON is
/// one object: {"items": [...], the counters_to_json groups ("cache",
/// "tuning"), "worker_failures": ...,
/// "worker_timeouts": ..., "degraded": ..., "quarantined_items": [...],
/// "wall_ms": ...}.  Dynamic items emit one row per (step, backend)
/// with the row's `step` column set and `"steps": <count>` in the item
/// header; parse groups the rows back into BatchStepReports.
std::string batch_report_to_csv(const BatchReport& report);
std::string batch_report_to_json(const BatchReport& report);

/// Inverse of to_row: a PlanResult carrying the row's serialized surface.
/// Only what a report row ships comes back — the slot table is a
/// placeholder of the right size/period, and live objects (tiling,
/// mobile scheduler, per-sensor channel assignments, collision witness)
/// stay empty — but to_row(result_from_row(r)) == r, which is what the
/// distributed merge needs to reproduce a single-process report
/// byte-for-byte.
PlanResult result_from_row(const PlanResultRow& row);

/// Parses batch_report_to_json output back into a BatchReport whose
/// results are result_from_row reconstructions; throws
/// std::invalid_argument on malformed input.  Emit ∘ parse ∘ emit is the
/// identity on serialized reports — pinned by test and relied on by the
/// distributed wire protocol (src/dist).
BatchReport parse_batch_report_json(const std::string& json);

/// Wire form of a shard assignment: the BatchItems themselves (scenario
/// query, backend list, search/SA budgets, verify flag), one JSON object
/// per line.  Doubles are emitted with full precision so a worker plans
/// EXACTLY the instance the coordinator sharded.
std::string batch_items_to_json(const std::vector<BatchItem>& items);
std::vector<BatchItem> parse_batch_items_json(const std::string& json);

}  // namespace latticesched
