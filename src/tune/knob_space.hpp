// Declarative knob space of the auto-tuning subsystem.
//
// The planner's configuration surface — backend choice × torus search
// budget × annealing schedule — is a product of per-backend subspaces.
// KnobSpace is the one registry describing that product: every tunable
// knob with its owning backend, default, range and hill-climb stride,
// so the tuner (tune/tuner.hpp), the driver's `--list-backends` output
// and the report currency all read the same declaration.  TunedConfig
// is a point in the space — a delegate backend plus knob values —
// serialized token-safe (no spaces) so it survives the whitespace-
// tokenized cache entries and the CSV report columns unquoted.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace latticesched {

struct PlanRequest;
class Rng;

namespace tune {

/// One tunable knob of a backend's subspace.
struct KnobSpec {
  /// Backend that consumes the knob.
  std::string backend;
  std::string name;
  double def = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Hill-climb neighbor stride: additive step, or the multiplicative
  /// factor when log_scale (budget-like knobs move in decades, not
  /// increments).
  double step = 0.0;
  bool log_scale = false;
  std::string doc;
};

/// The registry of every tunable knob.  Immutable after construction;
/// global() is the process-wide instance the built-in backends populate.
class KnobSpace {
 public:
  explicit KnobSpace(std::vector<KnobSpec> knobs)
      : knobs_(std::move(knobs)) {}

  /// All knobs, grouped by backend in backend-registration order.
  const std::vector<KnobSpec>& knobs() const { return knobs_; }

  /// The subspace a single backend contributes (possibly empty — the
  /// greedy/dsatur/welsh-powell/tdma backends have no knobs).
  std::vector<KnobSpec> knobs_for(const std::string& backend) const;

  /// The spec of `backend`'s knob `name`, or nullptr.
  const KnobSpec* find(const std::string& backend,
                       const std::string& name) const;

  /// Process-wide knob space with the built-in backends' subspaces.
  static const KnobSpace& global();

 private:
  std::vector<KnobSpec> knobs_;
};

/// A point in the knob space: a delegate backend plus the knob values its
/// PlanRequest is built with.  `values` stays sorted by knob name so
/// serialization (and therefore cache keys and report cells) is canonical
/// regardless of insertion order.
struct TunedConfig {
  std::string backend;
  std::vector<std::pair<std::string, double>> values;

  double get(const std::string& name, double fallback) const;
  void set(const std::string& name, double value);

  /// Token-safe canonical form: "backend=tiling;node_limit=20000000".
  /// No spaces or commas, so it embeds in whitespace-tokenized cache
  /// entries and unquoted CSV cells alike.
  std::string serialize() const;

  /// Inverse of serialize(); nullopt on malformed input (a corrupt cache
  /// line degrades to a recompute, never a crash).
  static std::optional<TunedConfig> parse(const std::string& text);

  bool operator==(const TunedConfig& other) const {
    return backend == other.backend && values == other.values;
  }
  bool operator!=(const TunedConfig& other) const {
    return !(*this == other);
  }
};

/// `backend`'s subspace at its defaults (the tuner's candidate 0 and the
/// comparison point of every tuned-vs-default table).
TunedConfig default_config(const std::string& backend);

/// Applies `config`'s knob values onto the request fields the delegate
/// backend reads (search/sa).  Unknown knobs, such as the retired
/// `regions` an older tune-cache entry may carry, are skipped.
void apply_config(const TunedConfig& config, PlanRequest* request);

/// Deterministic hill-climb neighborhood: each knob nudged one stride in
/// each direction (clamped to its range; nudges that land back on the
/// same value are dropped), in knob order.
std::vector<TunedConfig> neighbors(const TunedConfig& config);

/// Seeded random point in `backend`'s subspace (log-scale knobs sample
/// uniformly in the exponent, others uniformly in the range, snapped to
/// integers for integral knobs).
TunedConfig random_config(const std::string& backend, Rng& rng);

}  // namespace tune
}  // namespace latticesched
