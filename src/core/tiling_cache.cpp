#include "core/tiling_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/persist.hpp"

namespace latticesched {

namespace {

// FNV-1a over a stream of 64-bit words; good enough for a bucket index
// (full keys are compared on lookup, so collisions only cost a compare).
struct Fnv {
  std::uint64_t state = 0xcbf29ce484222325ull;
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      state ^= (v >> (8 * byte)) & 0xff;
      state *= 0x100000001b3ull;
    }
  }
};

}  // namespace

bool TilingCache::Key::operator==(const Key& o) const {
  return max_period_cells == o.max_period_cells &&
         node_limit == o.node_limit &&
         require_all_prototiles == o.require_all_prototiles &&
         period == o.period && prototiles == o.prototiles;
}

std::uint64_t TilingCache::hash_key(const Key& key) {
  Fnv h;
  h.mix(static_cast<std::uint64_t>(key.max_period_cells));
  h.mix(key.node_limit);
  h.mix(key.require_all_prototiles ? 1 : 0);
  if (key.period.has_value()) {
    const IntMatrix& b = key.period->basis();
    h.mix(b.rows());
    for (std::size_t r = 0; r < b.rows(); ++r) {
      for (std::size_t c = 0; c < b.cols(); ++c) {
        h.mix(static_cast<std::uint64_t>(b.at(r, c)));
      }
    }
  } else {
    h.mix(0xfeedfacecafebeefull);  // marker: diagonal period sweep
  }
  h.mix(key.prototiles.size());
  for (const Prototile& tile : key.prototiles) {
    h.mix(tile.size());
    // Elements are stored sorted and deduplicated (the canonical order of
    // the schedules), so equal prototile sets hash equally by design.
    for (const Point& p : tile.points()) {
      for (std::size_t i = 0; i < p.dim(); ++i) {
        h.mix(static_cast<std::uint64_t>(p[i]));
      }
    }
  }
  return h.state;
}

std::optional<Tiling> TilingCache::lookup_or_run(
    const std::vector<Prototile>& prototiles, const Sublattice* period,
    const TorusSearchConfig& config) {
  Key key;
  key.prototiles = prototiles;
  if (period != nullptr) key.period = *period;
  key.max_period_cells = config.max_period_cells;
  key.node_limit = config.node_limit;
  key.require_all_prototiles = config.require_all_prototiles;
  const std::uint64_t hash = hash_key(key);

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(hash);
    if (it != entries_.end()) {
      for (const Entry& entry : it->second) {
        if (entry.key == key) {
          ++hits_;
          return entry.tiling;
        }
      }
    }
  }

  // Adds the entry unless a racer already did; the caller holds mu_.
  // Returns whether this call added it.
  const auto insert = [&](const std::optional<Tiling>& tiling) {
    std::vector<Entry>& bucket = entries_[hash];
    for (const Entry& entry : bucket) {
      if (entry.key == key) return false;
    }
    bucket.push_back(Entry{std::move(key), tiling});
    return true;
  };

  // Memory miss: consult the persisted entry (outside the lock — file IO
  // must not serialize the whole cache; racing loaders insert the same
  // result and the duplicate is dropped).  A disk load is a HIT — the
  // search it memoized ran in some earlier process.
  if (!persist_dir_.empty()) {
    if (std::optional<std::optional<Tiling>> loaded =
            load_from_disk(key, hash)) {
      std::lock_guard<std::mutex> lock(mu_);
      insert(*loaded);
      ++hits_;
      ++disk_hits_;
      return *loaded;
    }
  }

  // Search outside the lock: a cold key may be searched by several racing
  // threads, but the search is deterministic, so every racer computes the
  // same tiling.  The racer whose result is inserted counts the miss and
  // the others count hits, so the counters equal a serial run's.  Racers
  // do not wait for an in-flight search: a pool worker waiting on a
  // search whose thread then blocks on the pool's region lock would
  // deadlock.
  TorusSearchConfig local = config;
  TorusSearchStats stats;  // the caller's stats pointer must not leak in
  local.stats = &stats;
  std::optional<Tiling> tiling =
      period != nullptr ? find_tiling_on_torus(prototiles, *period, local)
                        : search_periodic_tiling(prototiles, local);

  // A found tiling is always cacheable (any found tiling is a valid
  // answer).  A FAILURE is only cacheable when no searched torus hit the
  // node budget: a truncated failure depends on the engine and the
  // parallel fan-out (the per-subtree budget can explore more than the
  // serial search), so memoizing it could deny a tiling that a later,
  // differently-shaped search would find.  Such a search stays a miss.
  const bool cacheable = tiling.has_value() || !stats.budget_exhausted;
  if (cacheable && !persist_dir_.empty()) store_to_disk(key, hash, tiling);
  std::lock_guard<std::mutex> lock(mu_);
  if (!cacheable || insert(tiling)) {
    ++misses_;
  } else {
    ++hits_;
  }
  return tiling;
}

std::optional<Tiling> TilingCache::find_or_search(
    const std::vector<Prototile>& prototiles,
    const TorusSearchConfig& config) {
  return lookup_or_run(prototiles, nullptr, config);
}

std::optional<Tiling> TilingCache::find_or_search_on_torus(
    const std::vector<Prototile>& prototiles, const Sublattice& period,
    const TorusSearchConfig& config) {
  return lookup_or_run(prototiles, &period, config);
}

void TilingCache::set_persist_dir(const std::string& dir) {
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      throw std::runtime_error("tiling-cache: cannot create persist dir '" +
                               dir + "': " + ec.message());
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  persist_dir_ = dir;
}

std::string TilingCache::entry_path(std::uint64_t hash) const {
  char name[32];
  std::snprintf(name, sizeof name, "tc_%016llx.entry",
                static_cast<unsigned long long>(hash));
  return persist_dir_ + "/" + name;
}

namespace {

// Envelope framing (magic/version/checksum/atomic publish) is the
// shared persist machinery of util/persist.hpp; only the body format
// below is tiling-cache-specific.
constexpr const char* kDiskMagic = "latticesched-tiling-cache";

void write_matrix(std::ostream& os, const IntMatrix& m) {
  os << m.rows();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) os << ' ' << m.at(r, c);
  }
  os << '\n';
}

IntMatrix read_matrix(std::istream& is) {
  std::size_t dim = 0;
  if (!(is >> dim) || dim == 0 || dim > kMaxDim) {
    throw std::invalid_argument("bad matrix dimension");
  }
  IntMatrix m(dim, dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      if (!(is >> m.at(r, c))) {
        throw std::invalid_argument("truncated matrix");
      }
    }
  }
  return m;
}

Point read_point(std::istream& is, std::size_t dim) {
  std::vector<std::int64_t> coords(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    if (!(is >> coords[i])) throw std::invalid_argument("truncated point");
  }
  return Point(coords);
}

}  // namespace

std::optional<std::optional<Tiling>> TilingCache::load_from_disk(
    const Key& key, std::uint64_t hash) const {
  const std::string path = entry_path(hash);
  std::string content;
  switch (persist::load_entry(path, kDiskMagic, kDiskFormatVersion,
                              &content)) {
    case persist::EntryStatus::kMissing:
      return std::nullopt;  // no entry; not worth a warning
    case persist::EntryStatus::kStaleVersion: {
      std::istringstream header(content);
      std::string magic;
      int version = 0;
      header >> magic >> version;
      std::fprintf(stderr,
                   "tiling-cache: skipping %s (format v%d, expected v%d)\n",
                   path.c_str(), version, kDiskFormatVersion);
      return std::nullopt;
    }
    case persist::EntryStatus::kCorrupt:
      // Garbage, truncation, or a body that does not match its
      // checksum: disk corruption.  Evict the file — leaving it would
      // warn on every load until the key happens to be recomputed.
      std::fprintf(stderr,
                   "tiling-cache: corrupt entry %s; evicting and "
                   "recomputing\n",
                   path.c_str());
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++checksum_failures_;
      }
      (void)std::remove(path.c_str());
      return std::nullopt;
    case persist::EntryStatus::kOk:
      break;
  }
  std::istringstream is(content);
  try {
    // Envelope (magic + version + checksum) already validated by
    // load_entry; skip the header tokens and parse the body.
    std::string magic;
    int version = 0;
    is >> magic >> version;

    // Reconstruct the stored key and require it to match the request —
    // a hash collision or a stale file for a re-hashed key is a miss.
    Key stored;
    std::string tag;
    if (!(is >> tag >> stored.max_period_cells >> stored.node_limit >>
          stored.require_all_prototiles) ||
        tag != "budget") {
      throw std::invalid_argument("bad budget line");
    }
    std::string period_kind;
    if (!(is >> tag >> period_kind) || tag != "key-period" ||
        (period_kind != "sweep" && period_kind != "matrix")) {
      throw std::invalid_argument("bad key-period line");
    }
    if (period_kind == "matrix") {
      stored.period = Sublattice(read_matrix(is));
    }
    std::size_t tile_count = 0;
    if (!(is >> tag >> tile_count) || tag != "prototiles" ||
        tile_count == 0 || tile_count > 1024) {
      throw std::invalid_argument("bad prototile count");
    }
    for (std::size_t t = 0; t < tile_count; ++t) {
      std::size_t dim = 0, size = 0;
      if (!(is >> tag >> dim >> size) || tag != "tile" || dim == 0 ||
          dim > kMaxDim || size == 0) {
        throw std::invalid_argument("bad tile header");
      }
      PointVec points;
      points.reserve(size);
      for (std::size_t i = 0; i < size; ++i) {
        points.push_back(read_point(is, dim));
      }
      stored.prototiles.emplace_back(std::move(points));
    }
    if (!(stored == key)) {
      std::fprintf(stderr,
                   "tiling-cache: skipping %s (key mismatch — hash "
                   "collision or stale entry)\n",
                   path.c_str());
      return std::nullopt;
    }

    std::string outcome;
    if (!(is >> tag >> outcome) || tag != "result") {
      throw std::invalid_argument("bad result line");
    }
    if (outcome == "none") {
      if (!(is >> tag) || tag != "end") {
        throw std::invalid_argument("truncated entry");
      }
      // Engaged outer optional holding a cached FAILURE (empty inner).
      return std::optional<std::optional<Tiling>>{std::in_place};
    }
    if (outcome != "found") throw std::invalid_argument("bad outcome");

    if (!(is >> tag) || tag != "period") {
      throw std::invalid_argument("bad period line");
    }
    const Sublattice result_period(read_matrix(is));
    std::size_t placement_count = 0;
    if (!(is >> tag >> placement_count) || tag != "placements" ||
        placement_count == 0 ||
        placement_count >
            static_cast<std::size_t>(result_period.index())) {
      throw std::invalid_argument("bad placement count");
    }
    std::vector<std::pair<Point, std::uint32_t>> placements;
    placements.reserve(placement_count);
    for (std::size_t i = 0; i < placement_count; ++i) {
      std::uint32_t tile_index = 0;
      if (!(is >> tag >> tile_index) || tag != "place" ||
          tile_index >= key.prototiles.size()) {
        throw std::invalid_argument("bad placement");
      }
      placements.emplace_back(read_point(is, result_period.dim()),
                              tile_index);
    }
    if (!(is >> tag) || tag != "end") {
      throw std::invalid_argument("truncated entry");
    }
    // Rebuild through the validating constructor with the CALLER's
    // prototiles (names survive; the stored ones only verified the key).
    // Invalid placements — a corrupt but parseable file — throw here and
    // fall through to the recompute path like any other corruption.
    return std::optional<std::optional<Tiling>>{
        Tiling::periodic(key.prototiles, result_period,
                         std::move(placements))};
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "tiling-cache: skipping corrupt entry %s (%s); "
                 "recomputing\n",
                 path.c_str(), e.what());
    return std::nullopt;
  }
}

void TilingCache::store_to_disk(const Key& key, std::uint64_t hash,
                                const std::optional<Tiling>& tiling) const {
  const std::string path = entry_path(hash);
  std::string content;
  {
    std::ostringstream os;
    os << kDiskMagic << ' ' << kDiskFormatVersion << '\n';
    os << "budget " << key.max_period_cells << ' ' << key.node_limit << ' '
       << (key.require_all_prototiles ? 1 : 0) << '\n';
    if (key.period.has_value()) {
      os << "key-period matrix ";
      write_matrix(os, key.period->basis());
    } else {
      os << "key-period sweep\n";
    }
    os << "prototiles " << key.prototiles.size() << '\n';
    for (const Prototile& tile : key.prototiles) {
      os << "tile " << tile.dim() << ' ' << tile.size();
      for (const Point& p : tile.points()) {
        for (std::size_t i = 0; i < p.dim(); ++i) os << ' ' << p[i];
      }
      os << '\n';
    }
    if (tiling.has_value()) {
      os << "result found\n";
      os << "period ";
      write_matrix(os, tiling->period().basis());
      os << "placements " << tiling->placements().size() << '\n';
      for (const auto& [translate, tile_index] : tiling->placements()) {
        os << "place " << tile_index;
        for (std::size_t i = 0; i < translate.dim(); ++i) {
          os << ' ' << translate[i];
        }
        os << '\n';
      }
    } else {
      os << "result none\n";
    }
    os << "end\n";
    content = os.str();
  }
  content += persist::checksum_line(content);
  // Fault hook AFTER the checksum: an injected corruption models a disk
  // flipping bits on an already-valid entry, which the load-time
  // verification must catch.
  if (write_corruption_hook_) write_corruption_hook_(content);

  (void)persist::write_entry_atomic(path, content, "tiling-cache");
}

namespace {

/// Validity probe for the sweep: magic + version line, plus the v2
/// checksum trailer verified against the body — so bit-flipped entries
/// are evicted by the GC as corrupt, not kept until some load trips
/// over them.
bool entry_looks_valid(const std::string& path) {
  std::string content;
  return persist::load_entry(path, kDiskMagic,
                             TilingCache::kDiskFormatVersion,
                             &content) == persist::EntryStatus::kOk;
}

}  // namespace

TilingCache::SweepStats TilingCache::sweep_persist_dir(
    const std::string& dir, std::uint64_t max_bytes) {
  SweepStats stats;
  if (dir.empty()) return stats;
  struct EntryFile {
    std::string path;
    std::uint64_t bytes = 0;
    std::filesystem::file_time_type mtime;
    bool corrupt = false;
  };
  std::vector<EntryFile> entries;
  std::error_code ec;
  for (const auto& de : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = de.path().filename().string();
    if (name.rfind("tc_", 0) != 0 || de.path().extension() != ".entry") {
      continue;
    }
    EntryFile entry;
    entry.path = de.path().string();
    entry.bytes = de.file_size(ec);
    if (ec) continue;  // vanished mid-scan (concurrent sweep)
    entry.mtime = de.last_write_time(ec);
    if (ec) continue;
    entry.corrupt = !entry_looks_valid(entry.path);
    stats.bytes_before += entry.bytes;
    entries.push_back(std::move(entry));
  }
  stats.scanned = entries.size();
  stats.bytes_after = stats.bytes_before;

  // Eviction order: corrupt entries first, then oldest mtime; path
  // breaks ties so concurrent sweepers of one directory agree.
  std::sort(entries.begin(), entries.end(),
            [](const EntryFile& a, const EntryFile& b) {
              if (a.corrupt != b.corrupt) return a.corrupt;
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });
  for (const EntryFile& entry : entries) {
    if (!entry.corrupt && stats.bytes_after <= max_bytes) break;
    if (std::remove(entry.path.c_str()) != 0) continue;  // already gone
    stats.bytes_after -= entry.bytes;
    ++stats.removed;
    if (entry.corrupt) ++stats.corrupt_removed;
  }
  return stats;
}

TilingCache::SweepStats TilingCache::sweep_persist_dir(
    std::uint64_t max_bytes) const {
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dir = persist_dir_;
  }
  return sweep_persist_dir(dir, max_bytes);
}

TilingCache::Stats TilingCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.disk_hits = disk_hits_;
  s.checksum_failures = checksum_failures_;
  for (const auto& [hash, bucket] : entries_) s.entries += bucket.size();
  return s;
}

void TilingCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
  disk_hits_ = 0;
  checksum_failures_ = 0;
}

}  // namespace latticesched
