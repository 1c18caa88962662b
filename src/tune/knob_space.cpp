#include "tune/knob_space.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/planner.hpp"
#include "util/rng.hpp"

namespace latticesched::tune {

namespace {

/// %.17g round-trips every double exactly; integral values print without
/// a decimal point, which keeps the serialized form stable under
/// parse→serialize cycles.
std::string format_value(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Knobs whose semantics are integral (budgets, depths, counts) — the
/// random sampler snaps them; everything else stays continuous.
bool integral_knob(const KnobSpec& spec) {
  return spec.name != "sa_initial_temperature";
}

}  // namespace

std::vector<KnobSpec> KnobSpace::knobs_for(const std::string& backend) const {
  std::vector<KnobSpec> out;
  for (const KnobSpec& spec : knobs_) {
    if (spec.backend == backend) out.push_back(spec);
  }
  return out;
}

const KnobSpec* KnobSpace::find(const std::string& backend,
                                const std::string& name) const {
  for (const KnobSpec& spec : knobs_) {
    if (spec.backend == backend && spec.name == name) return &spec;
  }
  return nullptr;
}

const KnobSpace& KnobSpace::global() {
  // Ranges bracket the defaults by the spans the benches actually sweep;
  // log-scale strides for budget-like knobs (a node budget is interesting
  // at 1/4x and 4x, not at ±1).
  static const KnobSpace space({
      {"tiling", "node_limit", 20'000'000.0, 10'000.0, 80'000'000.0, 4.0,
       true, "torus-search placement budget before giving up a period"},
      {"annealing", "sa_max_iters", 200'000.0, 1'000.0, 2'000'000.0, 4.0,
       true, "Metropolis steps per color-count attempt"},
      {"annealing", "sa_initial_temperature", 2.0, 0.25, 16.0, 2.0, true,
       "starting temperature of the geometric cooling schedule"},
      {"region-greedy", "regions", 1.0, 1.0, 64.0, 4.0, true,
       "spatial shard count of the streaming conflict-block planner"},
      {"mobile", "node_limit", 20'000'000.0, 10'000.0, 80'000'000.0, 4.0,
       true, "torus-search placement budget of the underlying tiling"},
      // Session-level knobs: declared (serialized, listed, benched) but
      // applied by PlanSession across replans, not per plan request —
      // the tuner holds them at their defaults during a search.
      {"", "threads", 0.0, 0.0, 64.0, 2.0, true,
       "shared pool width (0 = hardware concurrency)"},
  });
  return space;
}

double TunedConfig::get(const std::string& name, double fallback) const {
  for (const auto& [knob, value] : values) {
    if (knob == name) return value;
  }
  return fallback;
}

void TunedConfig::set(const std::string& name, double value) {
  for (auto& [knob, stored] : values) {
    if (knob == name) {
      stored = value;
      return;
    }
  }
  values.emplace_back(name, value);
  std::sort(values.begin(), values.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

std::string TunedConfig::serialize() const {
  std::string out = "backend=" + backend;
  for (const auto& [knob, value] : values) {
    out += ';';
    out += knob;
    out += '=';
    out += format_value(value);
  }
  return out;
}

std::optional<TunedConfig> TunedConfig::parse(const std::string& text) {
  TunedConfig config;
  std::size_t pos = 0;
  bool saw_backend = false;
  while (pos <= text.size()) {
    const std::size_t semi = std::min(text.find(';', pos), text.size());
    const std::string token = text.substr(pos, semi - pos);
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "backend") {
      if (saw_backend || value.empty()) return std::nullopt;
      config.backend = value;
      saw_backend = true;
    } else {
      char* end = nullptr;
      const double parsed = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
      config.set(key, parsed);
    }
    if (semi == text.size()) break;
    pos = semi + 1;
  }
  if (!saw_backend) return std::nullopt;
  return config;
}

TunedConfig default_config(const std::string& backend) {
  TunedConfig config;
  config.backend = backend;
  for (const KnobSpec& spec : KnobSpace::global().knobs_for(backend)) {
    config.set(spec.name, spec.def);
  }
  return config;
}

void apply_config(const TunedConfig& config, PlanRequest* request) {
  for (const auto& [knob, value] : config.values) {
    if (knob == "node_limit") {
      request->search.node_limit = static_cast<std::uint64_t>(value);
    } else if (knob == "sa_max_iters") {
      request->sa.max_iters = static_cast<std::uint64_t>(value);
    } else if (knob == "sa_initial_temperature") {
      request->sa.initial_temperature = value;
    } else if (knob == "regions") {
      request->regions = static_cast<std::size_t>(value);
    }
    // Unknown or session-level knobs fall through untouched: a cache
    // entry written by a future version with more knobs still applies
    // the ones this version understands.
  }
}

std::vector<TunedConfig> neighbors(const TunedConfig& config) {
  std::vector<TunedConfig> out;
  for (const KnobSpec& spec :
       KnobSpace::global().knobs_for(config.backend)) {
    const double current = config.get(spec.name, spec.def);
    for (const int direction : {-1, +1}) {
      double next = spec.log_scale
                        ? (direction < 0 ? current / spec.step
                                         : current * spec.step)
                        : current + direction * spec.step;
      next = std::clamp(next, spec.min, spec.max);
      if (integral_knob(spec)) next = std::round(next);
      if (next == current) continue;
      TunedConfig neighbor = config;
      neighbor.set(spec.name, next);
      out.push_back(std::move(neighbor));
    }
  }
  return out;
}

TunedConfig random_config(const std::string& backend, Rng& rng) {
  TunedConfig config;
  config.backend = backend;
  for (const KnobSpec& spec : KnobSpace::global().knobs_for(backend)) {
    double value;
    if (spec.log_scale && spec.min > 0.0) {
      const double lo = std::log(spec.min);
      const double hi = std::log(spec.max);
      value = std::exp(lo + rng.next_double() * (hi - lo));
    } else {
      value = spec.min + rng.next_double() * (spec.max - spec.min);
    }
    value = std::clamp(value, spec.min, spec.max);
    if (integral_knob(spec)) value = std::round(value);
    config.set(spec.name, value);
  }
  return config;
}

}  // namespace latticesched::tune
