#include "core/counters.hpp"

#include <algorithm>
#include <sstream>

#include "util/json.hpp"

namespace latticesched {

void Counters::merge(const Counters& other) {
  for (const CounterGroup& group : kCounterGroups) {
    for (const CounterField& f : group.fields) {
      if (f.merge == MergeRule::kMax) {
        this->*f.number = std::max(this->*f.number, other.*f.number);
      } else {
        this->*f.number += other.*f.number;
      }
    }
  }
}

CacheStats cache_stats(const TilingCache& tiling,
                       const tune::TuneCache& tune) {
  return {tiling.stats(), tune.stats()};
}

Counters counters_between(const CacheStats& before, const CacheStats& after) {
  Counters c;
  c.cache_hits = after.tiling.hits - before.tiling.hits;
  c.cache_misses = after.tiling.misses - before.tiling.misses;
  c.tune_hits = after.tune.hits - before.tune.hits;
  c.tune_misses = after.tune.misses - before.tune.misses;
  c.tune_searches = after.tune.searches - before.tune.searches;
  c.tune_trials_run = after.tune.trials - before.tune.trials;
  return c;
}

Counters counters_from_session(const PlanSession::Stats& stats) {
  Counters c;
  c.regions = stats.regions;
  c.seam_sensors = stats.seam_sensors;
  c.stitch_recolored = stats.stitch_recolored;
  return c;
}

std::string counters_to_json(const Counters& counters) {
  std::ostringstream os;
  for (const CounterGroup& group : kCounterGroups) {
    os << "  \"" << group.key << "\": {";
    for (const CounterField& f : group.fields) {
      os << (&f == group.fields.data() ? "\"" : ", \"") << f.key
         << "\": " << counters.*f.number;
    }
    os << "},\n";
  }
  return os.str();
}

Counters parse_counters_json(const std::string& json) {
  Counters counters;
  for (const CounterGroup& group : kCounterGroups) {
    const std::string object = json_field(json, group.key);
    for (const CounterField& f : group.fields) {
      counters.*f.number = json_u64(object, f.key);
    }
  }
  return counters;
}

std::string counters_to_text(const Counters& counters,
                             const std::string& scope) {
  std::ostringstream os;
  for (const CounterGroup& group : kCounterGroups) {
    const bool zero = std::all_of(
        group.fields.begin(), group.fields.end(),
        [&](const CounterField& f) { return counters.*f.number == 0; });
    if (zero && &group != &kCounterGroups[0]) continue;
    os << group.footer << ": ";
    if (!scope.empty()) os << scope << ": ";
    for (const CounterField& f : group.fields) {
      if (&f != group.fields.data()) os << ", ";
      os << counters.*f.number << ' ' << f.unit;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace latticesched
