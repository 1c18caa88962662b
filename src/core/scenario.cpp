#include "core/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "core/tiling_cache.hpp"
#include "lattice/lattice.hpp"
#include "tiling/shapes.hpp"
#include "tiling/torus_search.hpp"
#include "util/rng.hpp"

namespace latticesched {

namespace {

std::string fmt_density(double d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", d);
  return buf;
}

/// Runs a torus search through the cache when one is supplied.
std::optional<Tiling> cached_torus_search(
    TilingCache* cache, const std::vector<Prototile>& prototiles,
    const Sublattice& period, const TorusSearchConfig& config) {
  if (cache != nullptr) {
    return cache->find_or_search_on_torus(prototiles, period, config);
  }
  return find_tiling_on_torus(prototiles, period, config);
}

Tiling figure5_tiling(TilingCache* cache) {
  TorusSearchConfig cfg;
  cfg.require_all_prototiles = true;
  auto tiling = cached_torus_search(
      cache, {shapes::s_tetromino(), shapes::z_tetromino()},
      Sublattice::diagonal({4, 4}), cfg);
  if (!tiling.has_value()) {
    throw std::runtime_error("figure5: no mixed S/Z tiling on 4x4");
  }
  return *std::move(tiling);
}

Tiling antennas_tiling() {
  // Period 3x6: one 3x3 ball block + three 1x3 bars (Theorem 2's
  // respectable mixed tiling, as in examples/directional_antennas).
  return Tiling::periodic(
      {shapes::chebyshev_ball(2, 1), shapes::rectangle(3, 1, 1, 0)},
      Sublattice::diagonal({3, 6}),
      {{Point{1, 1}, 0}, {Point{1, 3}, 1}, {Point{1, 4}, 1},
       {Point{1, 5}, 1}});
}

/// Window side above which random_cells switches from
/// materialize-and-shuffle (O(n²) intermediates) to rejection sampling
/// (O(kept) memory).
constexpr std::int64_t kSparseScatterSide = 2048;

/// Seeded random subset of the n x n grid cells at the given density
/// (at least one sensor), shared by the mobile and random-subset
/// scenarios.  Small windows shuffle the full cell list (the historical
/// path — byte-identical instances for every pinned seed); windows past
/// kSparseScatterSide rejection-sample cells instead, so a sparse
/// scatter over a million-cell window never allocates the window.
PointVec random_cells(std::int64_t n, std::uint64_t seed, double density) {
  if (density <= 0.0 || density > 1.0) {
    throw std::invalid_argument("scenario: density must be in (0, 1]");
  }
  if (n <= kSparseScatterSide) {
    PointVec cells = Box::cube(2, 0, n - 1).points();
    Rng rng(seed);
    rng.shuffle(cells);
    const auto keep = static_cast<std::size_t>(
        static_cast<double>(cells.size()) * density);
    cells.resize(std::max<std::size_t>(1, keep));
    return cells;
  }
  // Rejection sampling stays O(kept) only while misses are rare; past
  // half occupancy the expected probe count blows up, and the dense
  // path would need the quadratic window anyway.
  if (density > 0.5) {
    throw std::invalid_argument(
        "scenario: density > 0.5 needs the dense scatter path, which "
        "materializes the whole window — use n <= " +
        std::to_string(kSparseScatterSide));
  }
  const auto keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(n) *
                                  static_cast<double>(n) * density));
  Rng rng(seed);
  PointVec cells;
  cells.reserve(keep);
  PointSet taken;
  while (cells.size() < keep) {
    const Point c{
        static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(n))),
        static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(n)))};
    if (taken.insert(c).second) cells.push_back(c);
  }
  return cells;
}

/// Row-major prefix of the smallest square window holding `sensors`
/// cells — the O(sensors) generator behind grid-large (and the grid
/// scenario's large-n delegation).
ScenarioInstance grid_large_instance(const ScenarioParams& p) {
  const std::int64_t sensors = std::max<std::int64_t>(1, p.n);
  std::int64_t side = 1;
  while (side * side < sensors) ++side;
  PointVec cells;
  cells.reserve(static_cast<std::size_t>(sensors));
  for (std::int64_t i = 0; i < sensors; ++i) {
    cells.push_back(Point{i / side, i % side});
  }
  std::ostringstream label;
  label << "grid-large(sensors=" << sensors << " side=" << side
        << " r=" << p.radius << ")";
  return ScenarioInstance{
      .scenario = "grid-large",
      .label = label.str(),
      .deployment = Deployment::uniform(std::move(cells),
                                        shapes::chebyshev_ball(2, p.radius))};
}

/// Grid sizes at or past this --n are sensor COUNTS (grid-large
/// semantics): a million-sensor request means 10^6 sensors, not a
/// 10^6-sided window with 10^12 cells.
constexpr std::int64_t kGridLargeThreshold = 100000;

ScenarioSpec make_grid_spec() {
  return ScenarioSpec{
      "grid",
      "n x n field of Chebyshev-ball sensors (the paper's motivating grid)",
      {{"n", "12", "grid side length (>= 100000: sensor count, see "
        "grid-large)"},
       {"radius", "1", "Chebyshev interference radius"}},
      [](const ScenarioParams& p, TilingCache*) {
        if (p.n >= kGridLargeThreshold) return grid_large_instance(p);
        std::ostringstream label;
        label << "grid(n=" << p.n << " r=" << p.radius << ")";
        return ScenarioInstance{
            .scenario = "grid",
            .label = label.str(),
            .deployment = Deployment::grid(
                Box::cube(2, 0, p.n - 1), shapes::chebyshev_ball(2, p.radius))};
      }};
}

ScenarioSpec make_grid_large_spec() {
  return ScenarioSpec{
      "grid-large",
      "row-major prefix of the smallest square window holding n "
      "sensors — the O(n) generator for million-sensor region-sharded "
      "runs",
      {{"n", "100000", "sensor count"},
       {"radius", "1", "Chebyshev interference radius"}},
      [](const ScenarioParams& p, TilingCache*) {
        return grid_large_instance(p);
      }};
}

ScenarioSpec make_hex_spec() {
  return ScenarioSpec{
      "hex",
      "hexagonal-lattice patch with the 7-point Euclidean-ball "
      "neighborhood (Figure 1 right)",
      {{"n", "12", "patch diameter (rhombic window)"}},
      [](const ScenarioParams& p, TilingCache*) {
        Lattice hex = Lattice::hexagonal();
        const Prototile ball = shapes::euclidean_ball(hex, 1.0);
        std::ostringstream label;
        label << "hex(n=" << p.n << ")";
        return ScenarioInstance{
            .scenario = "hex",
            .label = label.str(),
            .deployment = Deployment::grid(Box::centered(2, p.n / 2), ball),
            .lattice = std::move(hex)};
      }};
}

ScenarioSpec make_cube3d_spec() {
  return ScenarioSpec{
      "cube3d",
      "n^3 sensor cube with a 3-D Chebyshev interference volume "
      "(\"arbitrary dimensions\")",
      {{"n", "12", "cube side length"},
       {"radius", "1", "Chebyshev interference radius"}},
      [](const ScenarioParams& p, TilingCache*) {
        std::ostringstream label;
        label << "cube3d(n=" << p.n << " r=" << p.radius << ")";
        return ScenarioInstance{
            .scenario = "cube3d",
            .label = label.str(),
            .deployment = Deployment::grid(
                Box::cube(3, 0, p.n - 1), shapes::chebyshev_ball(3, p.radius))};
      }};
}

ScenarioSpec make_mobile_spec() {
  return ScenarioSpec{
      "mobile",
      "snapshot of a mobile swarm: seeded random scatter of l1-ball "
      "sensors over the n x n window",
      {{"n", "12", "window side length"},
       {"radius", "1", "l1 interference radius"},
       {"seed", "1", "scatter seed"},
       {"density", "0.35", "fraction of cells holding a sensor"}},
      [](const ScenarioParams& p, TilingCache*) {
        std::ostringstream label;
        label << "mobile(n=" << p.n << " r=" << p.radius
              << " d=" << fmt_density(p.density) << " seed=" << p.seed
              << ")";
        return ScenarioInstance{
            .scenario = "mobile",
            .label = label.str(),
            .deployment =
                Deployment::uniform(random_cells(p.n, p.seed, p.density),
                                    shapes::l1_ball(2, p.radius))};
      }};
}

ScenarioSpec make_figure5_spec() {
  return ScenarioSpec{
      "figure5",
      "mixed S/Z tetromino tiling (Figure 5 left), deployment rule D1",
      {{"n", "12", "window diameter"}},
      [](const ScenarioParams& p, TilingCache* cache) {
        Tiling tiling = figure5_tiling(cache);
        Deployment d =
            Deployment::from_tiling(tiling, Box::centered(2, p.n / 2));
        std::ostringstream label;
        label << "figure5(n=" << p.n << ")";
        return ScenarioInstance{.scenario = "figure5",
                                .label = label.str(),
                                .deployment = std::move(d),
                                .tiling = std::move(tiling)};
      }};
}

ScenarioSpec make_antennas_spec() {
  return ScenarioSpec{
      "antennas",
      "heterogeneous field mixing 3x3 omni balls with 1x3 bars "
      "(Theorem 2, respectable tiling)",
      {{"n", "12", "window diameter"}},
      [](const ScenarioParams& p, TilingCache*) {
        Tiling tiling = antennas_tiling();
        Deployment d =
            Deployment::from_tiling(tiling, Box::centered(2, p.n / 2));
        std::ostringstream label;
        label << "antennas(n=" << p.n << ")";
        return ScenarioInstance{.scenario = "antennas",
                                .label = label.str(),
                                .deployment = std::move(d),
                                .tiling = std::move(tiling)};
      }};
}

ScenarioSpec make_multichannel_spec() {
  return ScenarioSpec{
      "multichannel",
      "grid whose radios have c orthogonal channels: every backend's "
      "schedule folds to (slot, channel) pairs",
      {{"n", "12", "grid side length"},
       {"radius", "1", "Chebyshev interference radius"},
       {"channels", "2", "channel count (raised to >= 2)"}},
      [](const ScenarioParams& p, TilingCache*) {
        const std::uint32_t channels = std::max<std::uint32_t>(2, p.channels);
        std::ostringstream label;
        label << "multichannel(n=" << p.n << " r=" << p.radius
              << " c=" << channels << ")";
        return ScenarioInstance{
            .scenario = "multichannel",
            .label = label.str(),
            .deployment = Deployment::grid(
                Box::cube(2, 0, p.n - 1), shapes::chebyshev_ball(2, p.radius)),
            .channels = channels};
      }};
}

// ---------------------------------------------------------------------------
// Dynamic scenarios: deployment + seeded MutationTrace
// ---------------------------------------------------------------------------

std::size_t effective_steps(const ScenarioParams& p,
                            std::int64_t default_steps) {
  return static_cast<std::size_t>(p.steps > 0 ? p.steps : default_steps);
}

ScenarioSpec make_grid_failures_spec() {
  return ScenarioSpec{
      "grid-failures",
      "dynamic grid: a seeded batch of surviving sensors fails every "
      "step (restricted-strip-covering style node death)",
      {{"n", "12", "grid side length"},
       {"radius", "1", "Chebyshev interference radius"},
       {"seed", "1", "failure-order seed"},
       {"steps", "3", "failure rounds"}},
      [](const ScenarioParams& p, TilingCache*) {
        const std::size_t steps = effective_steps(p, 3);
        PointVec order = Box::cube(2, 0, p.n - 1).points();
        Rng rng(p.seed);
        rng.shuffle(order);
        // ~10% of the original fleet dies per round; the last sensor
        // never dies, so every step still has something to schedule.
        const std::size_t per_step =
            std::max<std::size_t>(1, order.size() / 10);
        MutationTrace trace;
        std::size_t next = 0;
        for (std::size_t s = 1; s <= steps; ++s) {
          MutationStep step;
          step.at = s;
          for (std::size_t k = 0;
               k < per_step && next + 1 < order.size(); ++k) {
            step.delta.remove_sensors.push_back(order[next++]);
          }
          trace.steps.push_back(std::move(step));
        }
        std::ostringstream label;
        label << "grid-failures(n=" << p.n << " r=" << p.radius
              << " seed=" << p.seed << " steps=" << steps << ")";
        return ScenarioInstance{
            .scenario = "grid-failures",
            .label = label.str(),
            .deployment = Deployment::grid(
                Box::cube(2, 0, p.n - 1), shapes::chebyshev_ball(2, p.radius)),
            .trace = std::move(trace)};
      }};
}

ScenarioSpec make_mobile_churn_spec() {
  return ScenarioSpec{
      "mobile-churn",
      "dynamic swarm: every step a seeded batch of sensors leaves, "
      "roams to a free cell, or joins late",
      {{"n", "12", "window side length"},
       {"radius", "1", "l1 interference radius"},
       {"seed", "1", "churn seed"},
       {"density", "0.35", "initial occupied-cell fraction"},
       {"steps", "3", "churn rounds"}},
      [](const ScenarioParams& p, TilingCache*) {
        const std::size_t steps = effective_steps(p, 3);
        PointVec occupied = random_cells(p.n, p.seed, p.density);
        Rng rng(p.seed ^ 0x9e3779b97f4a7c15ull);
        PointSet occupancy(occupied.begin(), occupied.end());
        // A uniformly random FREE window cell (deterministic in the
        // seed); gives up after a bounded number of probes so a
        // near-full window degrades to less churn instead of spinning.
        const auto free_cell = [&]() -> std::optional<Point> {
          for (int tries = 0; tries < 256; ++tries) {
            const Point c{static_cast<std::int64_t>(
                              rng.next_below(static_cast<std::uint64_t>(p.n))),
                          static_cast<std::int64_t>(rng.next_below(
                              static_cast<std::uint64_t>(p.n)))};
            if (!occupancy.count(c)) return c;
          }
          return std::nullopt;
        };
        MutationTrace trace;
        for (std::size_t s = 1; s <= steps; ++s) {
          MutationStep step;
          step.at = s;
          // All of one step's remove/move sources must exist PRE-delta
          // (PlanSession resolves every position against the pre-delta
          // deployment), so draw them from a snapshot of the step's
          // starting population — a cell a move just vacated or filled
          // is never a source again within the same step.
          PointVec eligible = occupied;
          const auto take_eligible = [&]() -> Point {
            const std::size_t i = static_cast<std::size_t>(
                rng.next_below(eligible.size()));
            const Point p_out = eligible[i];
            eligible[i] = eligible.back();
            eligible.pop_back();
            return p_out;
          };
          const auto drop_occupied = [&](const Point& p_out) {
            occupancy.erase(p_out);
            for (Point& q : occupied) {
              if (q == p_out) {
                q = occupied.back();
                occupied.pop_back();
                break;
              }
            }
          };
          const std::size_t churn =
              std::max<std::size_t>(1, occupied.size() / 12);
          for (std::size_t k = 0;
               k < churn && occupied.size() > 1 && !eligible.empty(); ++k) {
            const Point victim = take_eligible();
            drop_occupied(victim);
            step.delta.remove_sensors.push_back(victim);
          }
          for (std::size_t k = 0; k < churn && !eligible.empty(); ++k) {
            if (const auto to = free_cell()) {
              const Point from = take_eligible();
              drop_occupied(from);
              step.delta.move_sensors.push_back(
                  DeploymentDelta::SensorMove{from, *to});
              occupied.push_back(*to);
              occupancy.insert(*to);
            }
          }
          for (std::size_t k = 0; k < churn; ++k) {
            if (const auto at = free_cell()) {
              step.delta.add_sensors.push_back(
                  DeploymentDelta::SensorAdd{*at, std::nullopt});
              occupied.push_back(*at);
              occupancy.insert(*at);
            }
          }
          trace.steps.push_back(std::move(step));
        }
        std::ostringstream label;
        label << "mobile-churn(n=" << p.n << " r=" << p.radius
              << " d=" << fmt_density(p.density) << " seed=" << p.seed
              << " steps=" << steps << ")";
        return ScenarioInstance{
            .scenario = "mobile-churn",
            .label = label.str(),
            .deployment =
                Deployment::uniform(random_cells(p.n, p.seed, p.density),
                                    shapes::l1_ball(2, p.radius)),
            .trace = std::move(trace)};
      }};
}

ScenarioSpec make_radius_degradation_spec() {
  return ScenarioSpec{
      "radius-degradation",
      "dynamic grid whose radio range decays fleet-wide one step at a "
      "time (energy-aware sensor scheduling)",
      {{"n", "12", "grid side length"},
       {"radius", "2", "initial Chebyshev radius (raised to >= 2)"},
       {"steps", "2", "degradation rounds (radius floors at 1)"}},
      [](const ScenarioParams& p, TilingCache*) {
        const std::size_t steps = effective_steps(p, 2);
        const std::int64_t r0 = std::max<std::int64_t>(2, p.radius);
        MutationTrace trace;
        for (std::size_t s = 1; s <= steps; ++s) {
          MutationStep step;
          step.at = s;
          DeploymentDelta::RadiusChange rc;
          rc.radius = std::max<std::int64_t>(
              1, r0 - static_cast<std::int64_t>(s));
          step.delta.set_radius.push_back(std::move(rc));
          trace.steps.push_back(std::move(step));
        }
        std::ostringstream label;
        label << "radius-degradation(n=" << p.n << " r=" << r0
              << " steps=" << steps << ")";
        return ScenarioInstance{
            .scenario = "radius-degradation",
            .label = label.str(),
            .deployment = Deployment::grid(Box::cube(2, 0, p.n - 1),
                                           shapes::chebyshev_ball(2, r0)),
            .trace = std::move(trace)};
      }};
}

ScenarioSpec make_staged_rollout_spec() {
  return ScenarioSpec{
      "staged-rollout",
      "dynamic grid deployed in column bands: each step brings the next "
      "band of sensors online",
      {{"n", "12", "grid side length"},
       {"radius", "1", "Chebyshev interference radius"},
       {"steps", "3", "rollout stages after the initial band"}},
      [](const ScenarioParams& p, TilingCache*) {
        // n columns split into steps+1 near-equal bands (capped so every
        // band holds at least one column).
        const std::size_t steps = std::min<std::size_t>(
            effective_steps(p, 3),
            static_cast<std::size_t>(std::max<std::int64_t>(1, p.n) - 1));
        const std::size_t bands = steps + 1;
        const auto band_end = [&](std::size_t b) {
          return static_cast<std::int64_t>(
              (static_cast<std::size_t>(p.n) * (b + 1)) / bands);
        };
        PointVec initial;
        for (std::int64_t x = 0; x < band_end(0); ++x) {
          for (std::int64_t y = 0; y < p.n; ++y) {
            initial.push_back(Point{x, y});
          }
        }
        MutationTrace trace;
        for (std::size_t s = 1; s <= steps; ++s) {
          MutationStep step;
          step.at = s;
          for (std::int64_t x = band_end(s - 1); x < band_end(s); ++x) {
            for (std::int64_t y = 0; y < p.n; ++y) {
              step.delta.add_sensors.push_back(
                  DeploymentDelta::SensorAdd{Point{x, y}, std::nullopt});
            }
          }
          trace.steps.push_back(std::move(step));
        }
        std::ostringstream label;
        label << "staged-rollout(n=" << p.n << " r=" << p.radius
              << " steps=" << steps << ")";
        return ScenarioInstance{
            .scenario = "staged-rollout",
            .label = label.str(),
            .deployment = Deployment::uniform(
                std::move(initial), shapes::chebyshev_ball(2, p.radius)),
            .trace = std::move(trace)};
      }};
}

ScenarioSpec make_random_subset_spec() {
  return ScenarioSpec{
      "random-subset",
      "seeded random sub-deployment of the Chebyshev grid at a given "
      "density (finite-restriction workloads)",
      {{"n", "12", "window side length"},
       {"radius", "1", "Chebyshev interference radius"},
       {"seed", "1", "subset seed"},
       {"density", "0.35", "fraction of grid cells kept"}},
      [](const ScenarioParams& p, TilingCache*) {
        std::ostringstream label;
        label << "random-subset(n=" << p.n << " r=" << p.radius
              << " d=" << fmt_density(p.density) << " seed=" << p.seed
              << ")";
        return ScenarioInstance{
            .scenario = "random-subset",
            .label = label.str(),
            .deployment =
                Deployment::uniform(random_cells(p.n, p.seed, p.density),
                                    shapes::chebyshev_ball(2, p.radius))};
      }};
}

}  // namespace

void ScenarioRegistry::register_scenario(ScenarioSpec spec) {
  if (spec.name.empty() || !spec.build) {
    throw std::invalid_argument(
        "register_scenario: name and build are required");
  }
  for (ScenarioSpec& existing : specs_) {
    if (existing.name == spec.name) {
      existing = std::move(spec);
      return;
    }
  }
  specs_.push_back(std::move(spec));
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const ScenarioSpec& s : specs_) out.push_back(s.name);
  return out;
}

const ScenarioSpec* ScenarioRegistry::find(const std::string& name) const {
  for (const ScenarioSpec& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

ScenarioInstance ScenarioRegistry::build(const std::string& name,
                                         const ScenarioParams& params,
                                         TilingCache* cache) const {
  const ScenarioSpec* spec = find(name);
  if (spec == nullptr) {
    std::string known;
    for (const std::string& n : names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("unknown scenario '" + name + "' (" + known +
                                ")");
  }
  return spec->build(params, cache);
}

std::string ScenarioRegistry::describe() const {
  std::ostringstream os;
  for (const ScenarioSpec& s : specs_) {
    os << s.name << " — " << s.summary << "\n";
    for (const ScenarioParamDoc& p : s.params) {
      os << "    --" << p.name;
      for (std::size_t pad = p.name.size(); pad < 10; ++pad) os << ' ';
      os << "(default " << p.value << ")  " << p.doc << "\n";
    }
  }
  return os.str();
}

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry();
    r->register_scenario(make_grid_spec());
    r->register_scenario(make_grid_large_spec());
    r->register_scenario(make_hex_spec());
    r->register_scenario(make_cube3d_spec());
    r->register_scenario(make_mobile_spec());
    r->register_scenario(make_figure5_spec());
    r->register_scenario(make_antennas_spec());
    r->register_scenario(make_multichannel_spec());
    r->register_scenario(make_random_subset_spec());
    r->register_scenario(make_grid_failures_spec());
    r->register_scenario(make_mobile_churn_spec());
    r->register_scenario(make_radius_degradation_spec());
    r->register_scenario(make_staged_rollout_spec());
    return r;
  }();
  return *registry;
}

std::vector<ScenarioQuery> radius_sweep(
    const std::string& scenario, const ScenarioParams& base,
    const std::vector<std::int64_t>& radii) {
  std::vector<ScenarioQuery> out;
  out.reserve(radii.size());
  for (std::int64_t r : radii) {
    ScenarioParams p = base;
    p.radius = r;
    out.push_back(ScenarioQuery{scenario, p});
  }
  return out;
}

std::vector<ScenarioQuery> density_sweep(const std::string& scenario,
                                         const ScenarioParams& base,
                                         const std::vector<double>& densities) {
  std::vector<ScenarioQuery> out;
  out.reserve(densities.size());
  for (double d : densities) {
    ScenarioParams p = base;
    p.density = d;
    out.push_back(ScenarioQuery{scenario, p});
  }
  return out;
}

std::vector<ScenarioQuery> size_sweep(const std::string& scenario,
                                      const ScenarioParams& base,
                                      const std::vector<std::int64_t>& sizes) {
  std::vector<ScenarioQuery> out;
  out.reserve(sizes.size());
  for (std::int64_t n : sizes) {
    ScenarioParams p = base;
    p.n = n;
    out.push_back(ScenarioQuery{scenario, p});
  }
  return out;
}

std::vector<ScenarioQuery> seed_sweep(const std::string& scenario,
                                      const ScenarioParams& base,
                                      std::size_t replicas) {
  std::vector<ScenarioQuery> out;
  out.reserve(replicas);
  for (std::size_t i = 0; i < replicas; ++i) {
    ScenarioParams p = base;
    p.seed = base.seed + i;
    out.push_back(ScenarioQuery{scenario, p});
  }
  return out;
}

}  // namespace latticesched
