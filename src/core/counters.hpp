// The batch counters: one value every layer fills, merges, serializes
// and prints the same way.
//
// A batch proves its cache behaviour with these counters: the paper's
// schedule needs one torus search per prototile set, so a warm sweep
// shows zero tiling-cache misses.  Each counter is a named field of
// `Counters` (a misspelled name is a compile error) and one row of
// `kCounterGroups`, which gives it its JSON group and key, its merge
// rule and its `--cache-stats` unit.  The merge, emitter, parser and
// printer all walk that table, so a new counter is one field plus one
// row.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/plan_session.hpp"
#include "core/tiling_cache.hpp"
#include "tune/tune_cache.hpp"

namespace latticesched {

struct Counters {
  /// TilingCache lookups; every miss runs a torus search.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Work-stealing search counters (TorusSearchStats) and the mask
  /// kernel the searches dispatched to ("scalar" / "avx2"; empty until
  /// a search ran).
  std::uint64_t search_subtree_tasks = 0;
  std::uint64_t search_steals = 0;
  std::string search_kernel;
  /// Region-shard counters (PlanSession::Stats): the largest partition
  /// planned, then seam sensors and stitch recolors.
  std::uint64_t regions = 0;
  std::uint64_t seam_sensors = 0;
  std::uint64_t stitch_recolored = 0;
  /// Auto-backend TuneCache counters: lookups, the tuning searches run
  /// on misses, and the candidate configs they measured.
  std::uint64_t tune_hits = 0;
  std::uint64_t tune_misses = 0;
  std::uint64_t tune_searches = 0;
  std::uint64_t tune_trials_run = 0;

  /// Folds `other` in, each field by its MergeRule.
  void merge(const Counters& other);
};

enum class MergeRule {
  kSum,
  kMax,
  kLastNonEmpty,  ///< text: `other`'s value unless it is empty
};

/// One counter: its key in the group's JSON object, the unit
/// `--cache-stats` prints after it (before it, for text), the field it
/// names (exactly one of `number` / `text`), and its merge rule.
struct CounterField {
  const char* key;
  const char* unit;
  std::uint64_t Counters::*number = nullptr;
  std::string Counters::*text = nullptr;
  MergeRule merge = MergeRule::kSum;
};

/// One JSON footer object and its `--cache-stats` line.
struct CounterGroup {
  const char* key;
  const char* footer;
  std::span<const CounterField> fields;
};

inline constexpr CounterField kCacheCounters[] = {
    {"hits", "hit(s)", &Counters::cache_hits},
    {"misses", "miss(es)", &Counters::cache_misses},
};
inline constexpr CounterField kSearchCounters[] = {
    {"subtree_tasks", "subtree task(s)", &Counters::search_subtree_tasks},
    {"steals", "steal(s)", &Counters::search_steals},
    {"kernel", "kernel=", nullptr, &Counters::search_kernel,
     MergeRule::kLastNonEmpty},
};
inline constexpr CounterField kRegionCounters[] = {
    {"count", "region(s)", &Counters::regions, nullptr, MergeRule::kMax},
    {"seam_sensors", "seam sensor(s)", &Counters::seam_sensors},
    {"stitch_recolored", "stitch recolor(s)", &Counters::stitch_recolored},
};
inline constexpr CounterField kTuneCounters[] = {
    {"hits", "hit(s)", &Counters::tune_hits},
    {"misses", "miss(es)", &Counters::tune_misses},
    {"searches", "search(es)", &Counters::tune_searches},
    {"trials", "trial(s)", &Counters::tune_trials_run},
};

/// Every Counters field, in JSON order.
inline constexpr CounterGroup kCounterGroups[] = {
    {"cache", "cache-stats", kCacheCounters},
    {"search", "search-stats", kSearchCounters},
    {"regions", "region-stats", kRegionCounters},
    {"tuning", "tune-stats", kTuneCounters},
};

/// Both shared caches' stats at one instant; two of them bracket a run.
struct CacheStats {
  TilingCache::Stats tiling;
  tune::TuneCache::Stats tune;
};
CacheStats cache_stats(const TilingCache& tiling, const tune::TuneCache& tune);

/// The cache counters a run added between two snapshots (the kernel is
/// the one `after` last dispatched to).
Counters counters_between(const CacheStats& before, const CacheStats& after);

/// The region counters of a session.
Counters counters_from_session(const PlanSession::Stats& stats);

/// One `  "group": {"key": value, ...},` line per group: the form of the
/// batch-report footer and of the CLOSE body.
std::string counters_to_json(const Counters& counters);

/// Reads every group back out of a text holding counters_to_json's
/// lines; throws std::invalid_argument on a missing or malformed value.
Counters parse_counters_json(const std::string& json);

/// The `--cache-stats` lines: `<footer>: [<scope>: ]v unit, ...` per
/// group.  The cache line always prints, the others when non-zero.
std::string counters_to_text(const Counters& counters,
                             const std::string& scope = "");

}  // namespace latticesched
