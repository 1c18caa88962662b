// Persistent tuning cache: warm-starting the auto backend across
// processes and fleets.
//
// The tuner's product is knowledge — "for scenarios shaped like THIS,
// that config won" — and recomputing it per invocation would waste the
// entire point of tuning.  TuneCache keys that knowledge by a scenario-
// family fingerprint (family label + n/radius/density features), keeps
// both the winning configs and the raw trial observations (the cost
// model's training data), and persists per-family entries next to the
// TilingCache's: same --cache-dir, versioned + checksummed text files,
// atomic rename, corrupt-tolerant loads — all through the shared
// util/persist.hpp envelope.  Entry files are `tn_<hash>.entry`, so the
// TilingCache's `tc_*`-scoped GC sweep never collects them.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "tune/knob_space.hpp"

namespace latticesched::tune {

/// Scenario-family fingerprint: which cached knowledge applies to a
/// request.  `family` buckets entries (one cache file per family); the
/// numeric features locate the request inside the bucket for exact
/// winner matches and cost-model interpolation.
struct Fingerprint {
  std::string family;   ///< scenario label, or derived shape tag
  double n = 0.0;       ///< deployment size
  double radius = 0.0;  ///< interference reach
  double density = 0.0; ///< sensors per bounding-box cell
};

class TuneCache {
 public:
  static constexpr int kDiskFormatVersion = 1;

  struct Stats {
    std::uint64_t hits = 0;        ///< find() served a winner
    std::uint64_t misses = 0;      ///< find() had none (search follows)
    std::uint64_t disk_hits = 0;   ///< hits whose family came off disk
    std::uint64_t searches = 0;    ///< tuning searches run (note_search)
    std::uint64_t trials = 0;      ///< candidate configs measured
    std::uint64_t checksum_failures = 0;  ///< corrupt entries evicted
    std::uint64_t entries = 0;     ///< families resident in memory
  };

  /// One measured trial: where in the family's feature space, which
  /// config, and what it cost (period = schedule quality, work = the
  /// deterministic effort proxy, wall_ms informational only).
  struct Observation {
    double n = 0.0;
    double radius = 0.0;
    double density = 0.0;
    std::uint32_t period = 0;
    double work = 0.0;
    double wall_ms = 0.0;
    std::string config;  ///< TunedConfig::serialize() form
  };

  /// Cost-model output: predicted (period, work) of a config at a
  /// fingerprint, interpolated from recorded observations.
  struct Prediction {
    double period = 0.0;
    double work = 0.0;
  };

  TuneCache() = default;
  TuneCache(const TuneCache&) = delete;
  TuneCache& operator=(const TuneCache&) = delete;

  /// The winning config recorded for `fp`'s family at (exactly) its
  /// features, loading the family from disk on first touch.  Counts a
  /// hit or a miss; a miss is the tuner's cue to search.
  std::optional<TunedConfig> find(const Fingerprint& fp);

  /// Records (and persists) `config` as the winner at `fp`.
  void record_winner(const Fingerprint& fp, const TunedConfig& config);

  /// Records a measured trial — the cost model's training data.
  /// Persisted together with the winners on the next record_winner.
  void record_observation(const Fingerprint& fp, const TunedConfig& config,
                          std::uint32_t period, double work, double wall_ms);

  /// Nearest-fingerprint cost model: inverse-distance-weighted mean of
  /// the same-config observations in `fp`'s family over normalized
  /// (n, radius, density).  nullopt when the family has no observation
  /// of `config` — an unpriceable candidate must be measured.
  std::optional<Prediction> predict(const Fingerprint& fp,
                                    const TunedConfig& config);

  /// Tuner accounting (flows cache → service → wire → --cache-stats).
  void note_search();
  void note_trials(std::uint64_t measured);

  /// Directory for persistent entries ("" = in-memory only).  Loads
  /// lazily per family; safe to set before or after first use.
  void set_persist_dir(const std::string& dir);
  const std::string& persist_dir() const { return persist_dir_; }

  Stats stats() const;

  /// Drops every resident family (stats untouched, disk untouched).
  void clear();

  /// Test/chaos seam: mutates serialized entry bytes AFTER the checksum
  /// is computed, modeling disk corruption the loader must catch.
  void set_write_corruption_hook(std::function<void(std::string&)> hook) {
    write_corruption_hook_ = std::move(hook);
  }

  /// Entry file path of `family` under `dir` (exposed for tests).
  static std::string entry_path(const std::string& dir,
                                const std::string& family);

 private:
  struct Winner {
    double n = 0.0;
    double radius = 0.0;
    double density = 0.0;
    std::string config;
  };
  struct Family {
    std::vector<Winner> winners;
    std::vector<Observation> observations;
    bool probed_disk = false;  ///< disk load already attempted
    bool from_disk = false;    ///< family content came off disk
  };

  /// Loads `family` from disk into `slot` if present (caller holds mu_).
  void load_family_locked(const std::string& family, Family* slot);
  /// Persists `family` (caller holds mu_; no-op without a persist dir).
  void store_family_locked(const std::string& family, const Family& fam);

  mutable std::mutex mu_;
  std::unordered_map<std::string, Family> families_;
  std::string persist_dir_;
  Stats stats_;
  std::function<void(std::string&)> write_corruption_hook_;
};

}  // namespace latticesched::tune
