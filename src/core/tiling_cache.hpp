// Memoization of torus-search results (the planner-level cache from the
// ROADMAP): identical (prototile set, search budget) requests used to
// re-run the period sweep on every plan, which dominates the cost of
// scenario sweeps — the same handful of neighborhoods is searched over
// and over while only the deployment window changes.  The cache keys a
// search by a canonical hash of the prototile set (element lists are
// already stored sorted), the optional explicit torus, and the budget
// knobs that can change the answer (max_period_cells, node_limit,
// require_all_prototiles; the engine/parallel toggles are excluded
// because both engines return identical tilings within budget).  Failed
// searches are cached too — so sweeping a non-exact prototile is
// charged once — UNLESS the search hit its node budget: a truncated
// failure is engine- and parallelism-dependent
// (TorusSearchStats::budget_exhausted), so it is re-run each time
// rather than memoized.
//
// Thread safety: lookups and inserts lock a mutex; the search itself
// runs outside the lock, so two threads racing on the same cold key may
// both search (deterministically producing the same tiling — the second
// insert is a no-op).  Only the racer that inserts counts a miss; the
// others count hits, so the hit/miss counters surfaced in batch reports
// do not depend on the thread count.
//
// Persistence: set_persist_dir() spills every cacheable entry to a
// directory (one versioned text file per key, named by the canonical
// key hash) and consults it on an in-memory miss before searching — so
// cold driver invocations and freshly spawned distributed workers
// warm-start from a shared cache.  A disk load counts as a HIT (plus
// Stats::disk_hits); only a genuine search counts as a miss.  Disk
// files are written atomically (temp file + fsync + rename) and carry
// a trailing checksum over the body that is verified on load — silent
// bit-level corruption is evicted and recomputed, counted in
// Stats::checksum_failures — so concurrent workers sharing one
// directory never observe torn or flipped entries; a
// truncated, corrupt, stale-versioned or hash-colliding file is
// skipped with a stderr warning and recomputed, never a crash.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lattice/sublattice.hpp"
#include "tiling/prototile.hpp"
#include "tiling/tiling.hpp"
#include "tiling/torus_search.hpp"

namespace latticesched {

class TilingCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Subset of `hits` served by loading a persisted entry from disk.
    std::uint64_t disk_hits = 0;
    /// Persisted entries whose checksum line did not match their body —
    /// silent disk corruption caught on load.  Each one is evicted
    /// (unlinked) and recomputed, so a nonzero count never means a
    /// wrong answer.
    std::uint64_t checksum_failures = 0;
    std::size_t entries = 0;  ///< in-memory entries only
    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };

  TilingCache() = default;
  TilingCache(const TilingCache&) = delete;
  TilingCache& operator=(const TilingCache&) = delete;

  /// Memoized search_periodic_tiling: sweeps diagonal tori of growing
  /// size on a miss, returns the cached result (possibly a cached
  /// failure) on a hit.
  std::optional<Tiling> find_or_search(
      const std::vector<Prototile>& prototiles,
      const TorusSearchConfig& config = {});

  /// Memoized find_tiling_on_torus for an explicit period sublattice.
  std::optional<Tiling> find_or_search_on_torus(
      const std::vector<Prototile>& prototiles, const Sublattice& period,
      const TorusSearchConfig& config = {});

  Stats stats() const;
  void clear();

  /// Enables disk persistence under `dir` (created if missing; "" turns
  /// persistence off).  Throws std::runtime_error when the directory
  /// cannot be created.  clear() does not touch persisted entries.
  /// Call before the cache is shared across threads (configuration, not
  /// a per-lookup toggle).
  void set_persist_dir(const std::string& dir);
  const std::string& persist_dir() const { return persist_dir_; }

  /// On-disk entry format version; files carrying any other version are
  /// skipped (and rewritten on the next store for that key).
  /// v2: a trailing "checksum <fnv64hex>" line over everything up to
  /// and including the "end" line, verified on load (mismatch = evict +
  /// recompute, counted in Stats::checksum_failures); the tmp file is
  /// fsynced before the atomic rename so a torn write cannot survive a
  /// crash as a valid-looking entry.
  static constexpr int kDiskFormatVersion = 2;

  /// TEST/FAULT-INJECTION HOOK: called with the full serialized entry
  /// (checksum line included) right before each store_to_disk write —
  /// mutating the content simulates disk corruption that load-time
  /// checksum verification must catch.  Empty function = disabled.
  /// Configure before sharing the cache across threads, like
  /// set_persist_dir.
  void set_write_corruption_hook(std::function<void(std::string&)> hook) {
    write_corruption_hook_ = std::move(hook);
  }

  /// Cache-dir eviction (the ROADMAP's size-capped GC): bounds the
  /// total size of the `tc_*.entry` files under `dir` to `max_bytes`.
  /// Corrupt or stale-versioned entries are evicted first (they would
  /// only ever be skipped and recomputed); then least-recently-modified
  /// entries go — an LRU over mtime, because store_to_disk rewrites an
  /// entry whenever its key is recomputed and loads leave mtime alone,
  /// so mtime orders entries by last (re)write.  Files are removed by
  /// atomic unlink; a concurrently reading worker either got the entry
  /// or recomputes — never a torn read.  Returns what the sweep did.
  struct SweepStats {
    std::size_t scanned = 0;        ///< tc_*.entry files examined
    std::size_t removed = 0;        ///< files unlinked
    std::size_t corrupt_removed = 0;///< subset of `removed` evicted as corrupt
    std::uint64_t bytes_before = 0;
    std::uint64_t bytes_after = 0;
  };
  static SweepStats sweep_persist_dir(const std::string& dir,
                                      std::uint64_t max_bytes);
  /// Instance form: sweeps this cache's persist dir (no-op stats when
  /// persistence is off).
  SweepStats sweep_persist_dir(std::uint64_t max_bytes) const;

 private:
  struct Key {
    std::vector<Prototile> prototiles;
    std::optional<Sublattice> period;  ///< nullopt: diagonal period sweep
    std::int64_t max_period_cells = 0;
    std::uint64_t node_limit = 0;
    bool require_all_prototiles = false;
    bool operator==(const Key& o) const;
  };

  struct Entry {
    Key key;
    std::optional<Tiling> tiling;
  };

  std::optional<Tiling> lookup_or_run(
      const std::vector<Prototile>& prototiles,
      const Sublattice* period, const TorusSearchConfig& config);

  static std::uint64_t hash_key(const Key& key);

  /// Path of the persisted entry for `hash` (persist_dir_ must be set).
  std::string entry_path(std::uint64_t hash) const;
  /// Loads the persisted entry for (key, hash): outer nullopt = no
  /// usable entry (missing / corrupt / stale version / key mismatch);
  /// inner optional is the cached search result (possibly a failure).
  std::optional<std::optional<Tiling>> load_from_disk(
      const Key& key, std::uint64_t hash) const;
  /// Atomically writes the entry for (key, hash); IO failures warn and
  /// are otherwise ignored (the cache stays correct, just colder).
  void store_to_disk(const Key& key, std::uint64_t hash,
                     const std::optional<Tiling>& tiling) const;

  mutable std::mutex mu_;
  /// Buckets by key hash; each bucket holds full keys to survive hash
  /// collisions.
  std::unordered_map<std::uint64_t, std::vector<Entry>> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t disk_hits_ = 0;
  /// Mutable: bumped from the const load path, under mu_.
  mutable std::uint64_t checksum_failures_ = 0;
  std::string persist_dir_;  ///< "" = persistence disabled
  std::function<void(std::string&)> write_corruption_hook_;
};

}  // namespace latticesched
