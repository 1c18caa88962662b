// The batch counters: one value every layer fills, merges, serializes
// and prints the same way.
//
// A batch proves its cache behaviour with these counters: the paper's
// schedule needs one torus search per prototile set, so a warm sweep
// shows zero tiling-cache misses.  Each counter is a named field of
// `Counters` (a misspelled name is a compile error) and one row of
// `kCounterGroups`, which gives it its JSON group and key and its
// `--cache-stats` unit.  The merge (a sum), emitter, parser and printer
// all walk that table, so a new counter is one field plus one row.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/tiling_cache.hpp"
#include "tune/tune_cache.hpp"

namespace latticesched {

struct Counters {
  /// TilingCache lookups; every miss runs a torus search.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Auto-backend TuneCache counters: lookups, the tuning searches run
  /// on misses, and the candidate configs they measured.
  std::uint64_t tune_hits = 0;
  std::uint64_t tune_misses = 0;
  std::uint64_t tune_searches = 0;
  std::uint64_t tune_trials_run = 0;

  /// Adds `other` in, field by field.
  void merge(const Counters& other);
};

/// One counter: its key in the group's JSON object, the unit
/// `--cache-stats` prints after it, and the field it names.
struct CounterField {
  const char* key;
  const char* unit;
  std::uint64_t Counters::*number;
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
inline constexpr CounterField kTuneCounters[] = {
    {"hits", "hit(s)", &Counters::tune_hits},
    {"misses", "miss(es)", &Counters::tune_misses},
    {"searches", "search(es)", &Counters::tune_searches},
    {"trials", "trial(s)", &Counters::tune_trials_run},
};

/// Every Counters field, in JSON order.
inline constexpr CounterGroup kCounterGroups[] = {
    {"cache", "cache-stats", kCacheCounters},
    {"tuning", "tune-stats", kTuneCounters},
};

/// Both shared caches' stats at one instant; two of them bracket a run.
struct CacheStats {
  TilingCache::Stats tiling;
  tune::TuneCache::Stats tune;
};
CacheStats cache_stats(const TilingCache& tiling, const tune::TuneCache& tune);

/// The cache counters a run added between two snapshots.
Counters counters_between(const CacheStats& before, const CacheStats& after);

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
