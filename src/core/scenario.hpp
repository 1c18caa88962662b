// The scenario library: named, parameterized deployment generators.
//
// The paper's punchline is that ONE constructive tiling search serves
// many deployment shapes (Theorems 1/2, Figure 5); the scenarios that
// used to live as ad-hoc structs inside the CLI driver are therefore a
// reusable registry: every consumer — driver, examples, benches, the
// batch planning service — asks for "grid with n=16, radius=2" by name
// and gets the same deployment (and, where the scenario is defined by a
// tiling, the same tiling).  Generators that run a torus search accept a
// TilingCache so scenario sweeps pay for each search once.
//
// Built-in scenarios: grid, hex, cube3d, mobile (random scattered
// snapshot), figure5 (mixed S/Z tetrominoes, rule D1), antennas
// (Theorem-2 ball + bar field), multichannel (grid with c >= 2
// channels), random-subset (seeded random sub-deployment of the grid at
// a given density).  Sweep helpers expand one scenario into the
// (scenario, params) lists the batch service consumes — radius sweeps,
// density sweeps, window-size sweeps and seed replicas.
//
// DYNAMIC scenarios additionally carry a MutationTrace — a seeded,
// timestamped DeploymentDelta sequence a PlanSession replays step by
// step: grid-failures (sensors die in rounds), mobile-churn (a swarm
// with per-step leave/move/join churn), radius-degradation (radio
// range decays fleet-wide) and staged-rollout (the grid is deployed in
// column bands).  ScenarioParams::steps bounds the trace length.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/plan_session.hpp"
#include "graph/interference.hpp"
#include "lattice/lattice.hpp"
#include "tiling/tiling.hpp"

namespace latticesched {

class TilingCache;

/// Knobs every generator draws from; each scenario documents (and its
/// label shows) the subset it actually uses.
struct ScenarioParams {
  std::int64_t n = 12;        ///< window side length / diameter
  std::int64_t radius = 1;    ///< interference radius, where applicable
  std::uint64_t seed = 1;     ///< RNG seed of randomized scenarios
  std::uint32_t channels = 1; ///< radio channels (multichannel scenario)
  double density = 0.35;      ///< occupied-cell fraction of random scatters
  /// Mutation steps of dynamic scenarios (0 = the scenario's default);
  /// static scenarios ignore it.
  std::int64_t steps = 0;
};

/// A built scenario: the deployment plus everything the planner needs.
struct ScenarioInstance {
  std::string scenario;          ///< registry name
  std::string label;             ///< e.g. "grid(n=12 r=1)" — report key
  Deployment deployment;
  /// The tiling the deployment came from, when it came from one.
  std::optional<Tiling> tiling = std::nullopt;
  std::uint32_t channels = 1;    ///< channels the plan should use
  /// Euclidean geometry of the coordinates when it is not the square
  /// lattice (the hex scenario); feeds PlanRequest::lattice so the
  /// mobile backend's Voronoi cells match the deployment.
  std::optional<Lattice> lattice = std::nullopt;
  /// Dynamic scenarios: the timestamped delta sequence a PlanSession
  /// replays on top of `deployment` (empty for static scenarios).
  MutationTrace trace = {};
};

struct ScenarioParamDoc {
  std::string name;     ///< ScenarioParams field consumed
  std::string value;    ///< default, rendered for --list-scenarios
  std::string doc;
};

struct ScenarioSpec {
  std::string name;
  std::string summary;
  std::vector<ScenarioParamDoc> params;  ///< only the params it reads
  /// Builds the instance; `cache` (may be null) memoizes torus searches.
  std::function<ScenarioInstance(const ScenarioParams&, TilingCache*)> build;
};

class ScenarioRegistry {
 public:
  ScenarioRegistry() = default;

  /// Registers (or replaces, by name) a scenario.
  void register_scenario(ScenarioSpec spec);

  /// Registered names, in registration order.
  std::vector<std::string> names() const;

  /// The spec registered under `name`, or nullptr.
  const ScenarioSpec* find(const std::string& name) const;

  /// Builds the named scenario; throws std::invalid_argument on an
  /// unknown name (listing the known ones).
  ScenarioInstance build(const std::string& name,
                         const ScenarioParams& params = {},
                         TilingCache* cache = nullptr) const;

  /// Human-readable registry listing with per-scenario parameter docs
  /// (the driver's --list-scenarios output).
  std::string describe() const;

  /// Process-wide registry pre-populated with the built-in scenarios.
  static ScenarioRegistry& global();

 private:
  std::vector<ScenarioSpec> specs_;
};

/// A (scenario, params) pair — the unit the batch service plans.
struct ScenarioQuery {
  std::string scenario;
  ScenarioParams params;
};

/// Sweep expanders: one query per swept value, base params otherwise.
std::vector<ScenarioQuery> radius_sweep(const std::string& scenario,
                                        const ScenarioParams& base,
                                        const std::vector<std::int64_t>& radii);
std::vector<ScenarioQuery> density_sweep(const std::string& scenario,
                                         const ScenarioParams& base,
                                         const std::vector<double>& densities);
std::vector<ScenarioQuery> size_sweep(const std::string& scenario,
                                      const ScenarioParams& base,
                                      const std::vector<std::int64_t>& sizes);
/// `replicas` seed values seed, seed+1, ... (random-subset deployments).
std::vector<ScenarioQuery> seed_sweep(const std::string& scenario,
                                      const ScenarioParams& base,
                                      std::size_t replicas);

}  // namespace latticesched
