#include "tune/tune_cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/persist.hpp"

namespace latticesched::tune {

namespace {

constexpr const char* kDiskMagic = "latticesched-tune-cache";

/// Winner/observation features match exactly (the features are derived,
/// not measured, so equal requests produce bit-equal doubles); density
/// gets an epsilon for the division.
constexpr double kDensityEps = 1e-9;

/// Families must be single whitespace-free tokens — both the entry body
/// and the report currency tokenize on whitespace.
std::string canonical_family(const std::string& family) {
  std::string out = family.empty() ? std::string("default") : family;
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
  }
  return out;
}

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool features_match(double an, double ar, double ad, double bn, double br,
                    double bd) {
  return an == bn && ar == br && std::fabs(ad - bd) <= kDensityEps;
}

}  // namespace

std::string TuneCache::entry_path(const std::string& dir,
                                  const std::string& family) {
  const std::string canon = canonical_family(family);
  const std::uint64_t hash =
      persist::fnv1a_bytes(canon.data(), canon.size());
  char name[40];
  std::snprintf(name, sizeof name, "tn_%016llx.entry",
                static_cast<unsigned long long>(hash));
  return dir + "/" + name;
}

std::optional<TunedConfig> TuneCache::find(const Fingerprint& fp) {
  const std::string key = canonical_family(fp.family);
  std::lock_guard<std::mutex> lock(mu_);
  Family& fam = families_[key];
  load_family_locked(key, &fam);
  for (const Winner& w : fam.winners) {
    if (!features_match(w.n, w.radius, w.density, fp.n, fp.radius,
                        fp.density)) {
      continue;
    }
    std::optional<TunedConfig> config = TunedConfig::parse(w.config);
    if (!config.has_value()) continue;  // corrupt line: fall through
    ++stats_.hits;
    if (fam.from_disk) ++stats_.disk_hits;
    return config;
  }
  ++stats_.misses;
  return std::nullopt;
}

void TuneCache::record_winner(const Fingerprint& fp,
                              const TunedConfig& config) {
  const std::string key = canonical_family(fp.family);
  std::lock_guard<std::mutex> lock(mu_);
  Family& fam = families_[key];
  load_family_locked(key, &fam);  // never clobber disk state unseen
  const std::string serialized = config.serialize();
  bool replaced = false;
  for (Winner& w : fam.winners) {
    if (features_match(w.n, w.radius, w.density, fp.n, fp.radius,
                       fp.density)) {
      w.config = serialized;
      replaced = true;
      break;
    }
  }
  if (!replaced) {
    fam.winners.push_back({fp.n, fp.radius, fp.density, serialized});
  }
  store_family_locked(key, fam);
}

void TuneCache::record_observation(const Fingerprint& fp,
                                   const TunedConfig& config,
                                   std::uint32_t period, double work,
                                   double wall_ms) {
  const std::string key = canonical_family(fp.family);
  std::lock_guard<std::mutex> lock(mu_);
  Family& fam = families_[key];
  load_family_locked(key, &fam);
  fam.observations.push_back({fp.n, fp.radius, fp.density, period, work,
                              wall_ms, config.serialize()});
  // Bound the entry size: a long-lived fleet cache keeps the freshest
  // observations, which also best reflect the current code's costs.
  constexpr std::size_t kMaxObservations = 256;
  if (fam.observations.size() > kMaxObservations) {
    fam.observations.erase(fam.observations.begin());
  }
}

std::optional<TuneCache::Prediction> TuneCache::predict(
    const Fingerprint& fp, const TunedConfig& config) {
  const std::string key = canonical_family(fp.family);
  const std::string serialized = config.serialize();
  std::lock_guard<std::mutex> lock(mu_);
  Family& fam = families_[key];
  load_family_locked(key, &fam);
  double weight_sum = 0.0;
  Prediction out;
  for (const Observation& o : fam.observations) {
    if (o.config != serialized) continue;
    const double dn = (o.n - fp.n) / std::max(1.0, fp.n);
    const double dr = (o.radius - fp.radius) / std::max(1.0, fp.radius);
    const double dd =
        (o.density - fp.density) / std::max(kDensityEps, fp.density);
    const double dist2 = dn * dn + dr * dr + dd * dd;
    if (dist2 < 1e-18) {
      // Exact fingerprint: the observation IS the prediction.
      return Prediction{static_cast<double>(o.period), o.work};
    }
    const double w = 1.0 / dist2;
    out.period += w * static_cast<double>(o.period);
    out.work += w * o.work;
    weight_sum += w;
  }
  if (weight_sum <= 0.0) return std::nullopt;
  out.period /= weight_sum;
  out.work /= weight_sum;
  return out;
}

void TuneCache::note_search() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.searches;
}

void TuneCache::note_trials(std::uint64_t measured) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.trials += measured;
}

void TuneCache::set_persist_dir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  persist_dir_ = dir;
  // Families touched before the dir was set must re-probe the disk.
  for (auto& [name, fam] : families_) fam.probed_disk = false;
}

TuneCache::Stats TuneCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = families_.size();
  return s;
}

void TuneCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  families_.clear();
}

void TuneCache::load_family_locked(const std::string& family, Family* slot) {
  if (slot->probed_disk || persist_dir_.empty()) return;
  slot->probed_disk = true;
  const std::string path = entry_path(persist_dir_, family);
  std::string content;
  switch (persist::load_entry(path, kDiskMagic, kDiskFormatVersion,
                              &content)) {
    case persist::EntryStatus::kMissing:
      return;
    case persist::EntryStatus::kStaleVersion:
      std::fprintf(stderr,
                   "tune-cache: skipping %s (stale format, expected v%d)\n",
                   path.c_str(), kDiskFormatVersion);
      return;
    case persist::EntryStatus::kCorrupt:
      std::fprintf(stderr,
                   "tune-cache: corrupt entry %s; evicting and retuning\n",
                   path.c_str());
      ++stats_.checksum_failures;
      (void)std::remove(path.c_str());
      return;
    case persist::EntryStatus::kOk:
      break;
  }
  try {
    std::istringstream is(content);
    std::string magic, tag, stored_family;
    int version = 0;
    is >> magic >> version;  // envelope validated by load_entry
    if (!(is >> tag >> stored_family) || tag != "family") {
      throw std::invalid_argument("bad family line");
    }
    if (stored_family != family) {
      // Hash collision between family names: ignore, don't evict — the
      // other family still owns the file.
      std::fprintf(stderr,
                   "tune-cache: skipping %s (family mismatch)\n",
                   path.c_str());
      return;
    }
    std::size_t winner_count = 0;
    if (!(is >> tag >> winner_count) || tag != "winners" ||
        winner_count > 100'000) {
      throw std::invalid_argument("bad winners line");
    }
    std::vector<Winner> winners;
    winners.reserve(winner_count);
    for (std::size_t i = 0; i < winner_count; ++i) {
      Winner w;
      if (!(is >> tag >> w.n >> w.radius >> w.density >> w.config) ||
          tag != "winner") {
        throw std::invalid_argument("bad winner line");
      }
      winners.push_back(std::move(w));
    }
    std::size_t obs_count = 0;
    if (!(is >> tag >> obs_count) || tag != "observations" ||
        obs_count > 100'000) {
      throw std::invalid_argument("bad observations line");
    }
    std::vector<Observation> observations;
    observations.reserve(obs_count);
    for (std::size_t i = 0; i < obs_count; ++i) {
      Observation o;
      if (!(is >> tag >> o.n >> o.radius >> o.density >> o.period >>
            o.work >> o.wall_ms >> o.config) ||
          tag != "obs") {
        throw std::invalid_argument("bad obs line");
      }
      observations.push_back(std::move(o));
    }
    if (!(is >> tag) || tag != "end") {
      throw std::invalid_argument("truncated entry");
    }
    slot->winners = std::move(winners);
    slot->observations = std::move(observations);
    slot->from_disk = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "tune-cache: skipping corrupt entry %s (%s); retuning\n",
                 path.c_str(), e.what());
  }
}

void TuneCache::store_family_locked(const std::string& family,
                                    const Family& fam) {
  if (persist_dir_.empty()) return;
  std::ostringstream os;
  os << kDiskMagic << ' ' << kDiskFormatVersion << '\n';
  os << "family " << family << '\n';
  os << "winners " << fam.winners.size() << '\n';
  for (const Winner& w : fam.winners) {
    os << "winner " << format_double(w.n) << ' ' << format_double(w.radius)
       << ' ' << format_double(w.density) << ' ' << w.config << '\n';
  }
  os << "observations " << fam.observations.size() << '\n';
  for (const Observation& o : fam.observations) {
    os << "obs " << format_double(o.n) << ' ' << format_double(o.radius)
       << ' ' << format_double(o.density) << ' ' << o.period << ' '
       << format_double(o.work) << ' ' << format_double(o.wall_ms) << ' '
       << o.config << '\n';
  }
  os << "end\n";
  std::string content = os.str();
  content += persist::checksum_line(content);
  if (write_corruption_hook_) write_corruption_hook_(content);
  (void)persist::write_entry_atomic(entry_path(persist_dir_, family),
                                    content, "tune-cache");
}

}  // namespace latticesched::tune
