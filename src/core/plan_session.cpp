#include "core/plan_session.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "core/region_shard.hpp"
#include "graph/coloring.hpp"
#include "tiling/shapes.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

namespace latticesched {

// ---------------------------------------------------------------------------
// Script parsing / emission
// ---------------------------------------------------------------------------

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') break;  // comment to end of line
    tokens.push_back(tok);
  }
  return tokens;
}

[[noreturn]] void script_error(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("script line " + std::to_string(line_no) +
                              ": " + what);
}

/// Strict numbers (util/cli.hpp): junk, overflow or — for the unsigned
/// form — a sign is a script error naming the line.
std::int64_t parse_int(const std::string& tok, std::size_t line_no) {
  try {
    return parse_i64(tok, "integer");
  } catch (const std::invalid_argument& e) {
    script_error(line_no, e.what());
  }
}

std::uint64_t parse_uint(const std::string& tok, std::size_t line_no) {
  try {
    return parse_u64(tok, "unsigned integer");
  } catch (const std::invalid_argument& e) {
    script_error(line_no, e.what());
  }
}

/// Reads `dim` coordinates starting at tokens[at].
Point parse_point(const std::vector<std::string>& tokens, std::size_t at,
                  std::size_t dim, std::size_t line_no) {
  if (at + dim > tokens.size()) {
    script_error(line_no, "expected " + std::to_string(dim) +
                              " coordinates");
  }
  std::vector<std::int64_t> coords(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    coords[i] = parse_int(tokens[at + i], line_no);
  }
  return Point(coords);
}

}  // namespace

MutationTrace parse_mutation_script(const std::string& text) {
  MutationTrace trace;
  std::size_t dim = 2;
  bool dim_fixed = false;  // dim may only change before the first step
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  DeploymentDelta* current = nullptr;
  std::uint64_t last_at = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& op = tokens[0];

    if (op == "dim") {
      if (dim_fixed) script_error(line_no, "'dim' after the first step");
      if (tokens.size() != 2) script_error(line_no, "usage: dim D");
      const std::int64_t d = parse_int(tokens[1], line_no);
      if (d < 1 || d > 8) script_error(line_no, "dimension out of range");
      dim = static_cast<std::size_t>(d);
      continue;
    }
    if (op == "step") {
      if (tokens.size() > 2) script_error(line_no, "usage: step [AT]");
      const std::uint64_t at =
          tokens.size() == 2 ? parse_uint(tokens[1], line_no) : last_at + 1;
      if (at <= last_at) {
        script_error(line_no, "step timestamps must be strictly increasing");
      }
      last_at = at;
      dim_fixed = true;
      trace.steps.push_back(MutationStep{at, {}});
      current = &trace.steps.back().delta;
      continue;
    }
    if (current == nullptr) {
      script_error(line_no, "'" + op + "' before the first 'step'");
    }

    if (op == "add") {
      DeploymentDelta::SensorAdd add;
      add.position = parse_point(tokens, 1, dim, line_no);
      if (tokens.size() == 1 + dim) {
        // neighborhood inherited
      } else if (tokens.size() == 3 + dim && tokens[1 + dim] == "r") {
        const std::int64_t r = parse_int(tokens[2 + dim], line_no);
        if (r < 0) script_error(line_no, "radius must be >= 0");
        add.neighborhood = shapes::chebyshev_ball(dim, r);
      } else {
        script_error(line_no, "usage: add X.. [r R]");
      }
      current->add_sensors.push_back(std::move(add));
    } else if (op == "remove") {
      if (tokens.size() != 1 + dim) script_error(line_no, "usage: remove X..");
      current->remove_sensors.push_back(parse_point(tokens, 1, dim, line_no));
    } else if (op == "move") {
      if (tokens.size() != 1 + 2 * dim) {
        script_error(line_no, "usage: move X.. Y..");
      }
      current->move_sensors.push_back(DeploymentDelta::SensorMove{
          parse_point(tokens, 1, dim, line_no),
          parse_point(tokens, 1 + dim, dim, line_no)});
    } else if (op == "radius") {
      if (tokens.size() < 2) script_error(line_no, "usage: radius R [at X..]");
      DeploymentDelta::RadiusChange rc;
      rc.radius = parse_int(tokens[1], line_no);
      if (rc.radius < 0) script_error(line_no, "radius must be >= 0");
      if (tokens.size() > 2) {
        if (tokens[2] != "at" || (tokens.size() - 3) % dim != 0 ||
            tokens.size() == 3) {
          script_error(line_no, "usage: radius R at X.. [Y.. ...]");
        }
        for (std::size_t at = 3; at < tokens.size(); at += dim) {
          rc.sensors.push_back(parse_point(tokens, at, dim, line_no));
        }
      }
      current->set_radius.push_back(std::move(rc));
    } else if (op == "channels") {
      if (tokens.size() != 2) script_error(line_no, "usage: channels C");
      const std::uint64_t c = parse_uint(tokens[1], line_no);
      if (c < 1 || c > UINT32_MAX) {
        script_error(line_no, "channels must be in [1, 4294967295]");
      }
      current->set_channels = static_cast<std::uint32_t>(c);
    } else {
      script_error(line_no, "unknown directive '" + op + "'");
    }
  }
  return trace;
}

namespace {

void emit_point(std::ostream& os, const Point& p) {
  for (std::size_t i = 0; i < p.dim(); ++i) os << ' ' << p[i];
}

/// Chebyshev radius of a ball prototile, or nullopt when the shape is
/// not a Chebyshev ball (not representable in the script format).
std::optional<std::int64_t> ball_radius(const Prototile& shape) {
  const Box bb = shape.bounding_box();
  const std::int64_t r = bb.hi()[0];
  if (shape == shapes::chebyshev_ball(shape.dim(), std::max<std::int64_t>(
                                                       0, r))) {
    return std::max<std::int64_t>(0, r);
  }
  return std::nullopt;
}

}  // namespace

std::string mutation_trace_to_script(const MutationTrace& trace,
                                     std::size_t dim) {
  std::ostringstream os;
  os << "dim " << dim << '\n';
  for (const MutationStep& step : trace.steps) {
    os << "step " << step.at << '\n';
    const DeploymentDelta& delta = step.delta;
    for (const Point& p : delta.remove_sensors) {
      os << "remove";
      emit_point(os, p);
      os << '\n';
    }
    for (const DeploymentDelta::SensorMove& m : delta.move_sensors) {
      os << "move";
      emit_point(os, m.from);
      emit_point(os, m.to);
      os << '\n';
    }
    for (const DeploymentDelta::RadiusChange& rc : delta.set_radius) {
      std::int64_t radius = rc.radius;
      if (rc.neighborhood.has_value()) {
        const auto r = ball_radius(*rc.neighborhood);
        if (!r.has_value()) {
          throw std::invalid_argument(
              "mutation_trace_to_script: non-Chebyshev neighborhood "
              "override is not representable");
        }
        radius = *r;
      }
      os << "radius " << radius;
      if (!rc.sensors.empty()) {
        os << " at";
        for (const Point& p : rc.sensors) emit_point(os, p);
      }
      os << '\n';
    }
    for (const DeploymentDelta::SensorAdd& add : delta.add_sensors) {
      os << "add";
      emit_point(os, add.position);
      if (add.neighborhood.has_value()) {
        const auto r = ball_radius(*add.neighborhood);
        if (!r.has_value()) {
          throw std::invalid_argument(
              "mutation_trace_to_script: non-Chebyshev neighborhood "
              "override is not representable");
        }
        os << " r " << *r;
      }
      os << '\n';
    }
    if (delta.set_channels.has_value()) {
      os << "channels " << *delta.set_channels << '\n';
    }
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// PlanSession
// ---------------------------------------------------------------------------

namespace {

/// Marks a removed sensor in apply()'s old-to-new id map.
constexpr std::uint32_t kRemovedSensor = 0xffffffffu;

}  // namespace

PlanSession::PlanSession(Deployment initial, SessionConfig config)
    : planners_(config.planners != nullptr ? config.planners
                                           : &PlannerRegistry::global()),
      backends_(std::move(config.backends)) {
  base_.search = config.search;
  base_.sa = config.sa;
  base_.verify = config.verify;
  base_.channels = config.channels;
  base_.lattice = config.lattice;
  base_.tiling = config.tiling;
  base_.tiling_cache = config.tiling_cache;
  base_.tune_cache = config.tune_cache;
  base_.tune_trials = config.tune_trials;
  base_.tune_budget_ms = config.tune_budget_ms;
  base_.tune_family = config.tune_family;
  owned_.emplace(std::move(initial));
  deployment_ = &*owned_;
}

PlanSession::PlanSession(const PlanRequest& request,
                         const PlannerRegistry& planners,
                         std::vector<std::string> backends)
    : base_(request), planners_(&planners), backends_(std::move(backends)) {
  if (request.deployment == nullptr) {
    throw std::invalid_argument("plan_all: deployment is required");
  }
  deployment_ = request.deployment;
}

std::vector<const Planner*> PlanSession::select_backends() const {
  PlanRequest probe = base_;
  probe.deployment = deployment_;
  std::vector<const Planner*> selected;
  if (backends_.empty()) {
    // Default selection: every backend that supports the request (the
    // mobile backend, e.g., sits out 3-D deployments instead of
    // failing).  Meta-backends (`auto`) opt out of the default set —
    // they delegate to a backend that is already in it.
    for (const std::string& name : planners_->names()) {
      const Planner* p = planners_->find(name);
      if (p != nullptr && p->in_default_set() && p->supports(probe)) {
        selected.push_back(p);
      }
    }
  } else {
    for (const std::string& name : backends_) {
      const Planner* p = planners_->find(name);
      if (p == nullptr) {
        throw std::invalid_argument("plan_all: unknown backend '" + name +
                                    "'");
      }
      selected.push_back(p);
    }
  }
  return selected;
}

void PlanSession::apply(const DeploymentDelta& delta) {
  const Deployment& d = *deployment_;
  const std::size_t n_old = d.size();
  const std::size_t dim =
      n_old > 0 ? d.position(0).dim() : d.prototiles().front().dim();

  if (delta.set_channels.has_value() && *delta.set_channels == 0) {
    throw std::invalid_argument("apply: set_channels must be >= 1");
  }

  // --- stage the delta against the pre-delta deployment ---------------
  // Everything below builds NEW state; members are only committed once
  // the new deployment validated, so a throwing delta leaves the
  // session untouched.
  const auto resolve = [&](const Point& p, const char* op) -> std::size_t {
    if (p.dim() != dim) {
      throw std::invalid_argument(std::string(op) +
                                  ": coordinate dimension mismatch");
    }
    const auto i = d.sensor_at(p);
    if (!i.has_value()) {
      throw std::invalid_argument(std::string(op) + ": no sensor at " +
                                  p.to_string());
    }
    return *i;
  };

  std::vector<char> removed(n_old, 0);
  std::vector<char> touched(n_old, 0);  // moved or reshaped in place
  PointVec pos(d.positions());
  std::vector<std::uint32_t> type(n_old);
  for (std::size_t i = 0; i < n_old; ++i) {
    type[i] = d.type_of(i);
  }
  std::vector<Prototile> protos = d.prototiles();

  for (const Point& p : delta.remove_sensors) {
    removed[resolve(p, "remove_sensors")] = 1;
  }
  for (const DeploymentDelta::SensorMove& m : delta.move_sensors) {
    const std::size_t i = resolve(m.from, "move_sensors");
    if (removed[i]) {
      throw std::invalid_argument(
          "move_sensors: sensor removed in the same delta");
    }
    if (m.to.dim() != dim) {
      throw std::invalid_argument(
          "move_sensors: coordinate dimension mismatch");
    }
    pos[i] = m.to;
    touched[i] = 1;
  }

  // New shapes are interned into the working prototile list (deduped by
  // element set, so a radius restored to an existing shape reuses its
  // type and cache key).
  const auto intern = [&protos, dim](Prototile shape) -> std::uint32_t {
    if (shape.dim() != dim) {
      throw std::invalid_argument(
          "apply: neighborhood dimension mismatch");
    }
    for (std::uint32_t t = 0; t < protos.size(); ++t) {
      if (protos[t] == shape) return t;
    }
    protos.push_back(std::move(shape));
    return static_cast<std::uint32_t>(protos.size() - 1);
  };

  for (const DeploymentDelta::RadiusChange& rc : delta.set_radius) {
    if (!rc.neighborhood.has_value() && rc.radius < 0) {
      throw std::invalid_argument("set_radius: radius must be >= 0");
    }
    const std::uint32_t t =
        intern(rc.neighborhood.has_value()
                   ? *rc.neighborhood
                   : shapes::chebyshev_ball(dim, rc.radius));
    if (rc.sensors.empty()) {
      for (std::size_t i = 0; i < n_old; ++i) {
        if (!removed[i] && type[i] != t) {
          type[i] = t;
          touched[i] = 1;
        }
      }
    } else {
      for (const Point& p : rc.sensors) {
        const std::size_t i = resolve(p, "set_radius");
        if (removed[i]) {
          throw std::invalid_argument(
              "set_radius: sensor removed in the same delta");
        }
        if (type[i] != t) {
          type[i] = t;
          touched[i] = 1;
        }
      }
    }
  }

  struct StagedAdd {
    Point position;
    std::uint32_t type;
  };
  std::vector<StagedAdd> adds;
  adds.reserve(delta.add_sensors.size());
  for (const DeploymentDelta::SensorAdd& add : delta.add_sensors) {
    if (add.position.dim() != dim) {
      throw std::invalid_argument(
          "add_sensors: coordinate dimension mismatch");
    }
    // Default neighborhood: the pre-delta deployment's type 0 (intern
    // only appends, so index 0 still names it).
    const std::uint32_t t =
        add.neighborhood.has_value() ? intern(*add.neighborhood) : 0;
    adds.push_back(StagedAdd{add.position, t});
  }

  // --- compact into the post-delta arrays ------------------------------
  PointVec new_pos;
  std::vector<std::uint32_t> new_type;
  new_pos.reserve(n_old + adds.size());
  new_type.reserve(n_old + adds.size());
  std::vector<std::uint32_t> old_to_new(n_old, kRemovedSensor);
  // New ids of moved, reshaped and added sensors, ascending.
  std::vector<std::uint32_t> dirty;
  for (std::size_t i = 0; i < n_old; ++i) {
    if (removed[i]) continue;
    old_to_new[i] = static_cast<std::uint32_t>(new_pos.size());
    if (touched[i]) dirty.push_back(old_to_new[i]);
    new_pos.push_back(pos[i]);
    new_type.push_back(type[i]);
  }
  for (const StagedAdd& add : adds) {
    dirty.push_back(static_cast<std::uint32_t>(new_pos.size()));
    new_pos.push_back(add.position);
    new_type.push_back(add.type);
  }

  // Prototile GC: drop shapes no sensor uses anymore (they would
  // otherwise leak into lower bounds and multi-prototile torus
  // searches), preserving the survivors' relative order for stable
  // cache keys.
  std::vector<char> used(protos.size(), 0);
  for (std::uint32_t t : new_type) used[t] = 1;
  std::vector<std::uint32_t> proto_map(protos.size(), kRemovedSensor);
  std::vector<Prototile> new_protos;
  for (std::uint32_t t = 0; t < protos.size(); ++t) {
    if (used[t]) {
      proto_map[t] = static_cast<std::uint32_t>(new_protos.size());
      new_protos.push_back(std::move(protos[t]));
    }
  }
  if (new_protos.empty()) {
    // Every sensor removed: keep one prototile so the (empty)
    // deployment stays constructible.
    new_protos.push_back(d.prototiles().front());
  }
  for (std::uint32_t& t : new_type) t = proto_map[t];

  // Throws on duplicate positions (colliding moves/adds) BEFORE any
  // member changes.
  Deployment next = Deployment::assemble(std::move(new_pos),
                                         std::move(new_type),
                                         std::move(new_protos));

  // --- repair the greedy table ----------------------------------------
  // Carry it across small deltas only: past a quarter of the fleet
  // (kWarmRepairDirtyDenominator) the seed rows probe more cells than
  // one cold plan would.
  std::optional<PlanWarmStart> next_warm;
  if (dirty.size() * kWarmRepairDirtyDenominator <= next.size() &&
      warm_.has_value()) {
    // Carry the greedy table onto the new ids and repair it from every
    // sensor whose conflict row changed: the delta's own sensors, their
    // old rows in the pre-delta deployment and their new rows.  Added
    // sensors start uncolored, which seeds them too.
    PlanWarmStart& warm = next_warm.emplace();
    warm.greedy_colors.assign(next.size(), kUncolored);
    std::vector<std::uint32_t> seeds = dirty;
    std::vector<std::uint32_t> row;
    const ConflictRows old_rows(d);
    for (std::uint32_t i = 0; i < n_old; ++i) {
      if (old_to_new[i] != kRemovedSensor) {
        warm.greedy_colors[old_to_new[i]] = warm_->greedy_colors[i];
      }
      if (!removed[i] && !touched[i]) continue;
      old_rows.build(i, row);
      for (std::uint32_t u : row) {
        if (old_to_new[u] != kRemovedSensor) seeds.push_back(old_to_new[u]);
      }
    }
    const ConflictRows new_rows(next);
    for (std::uint32_t u : dirty) {
      new_rows.build(u, row);
      seeds.insert(seeds.end(), row.begin(), row.end());
    }
    warm.recolored = warm_->recolored +
                     repair_greedy_table(new_rows, warm.greedy_colors, seeds);
  }

  // --- commit -----------------------------------------------------------
  owned_.emplace(std::move(next));
  deployment_ = &*owned_;
  graph_.reset();
  warm_ = std::move(next_warm);
  if (delta.set_channels.has_value()) base_.channels = *delta.set_channels;
  // A delta invalidates the scenario-supplied tiling and any borrowed
  // one-shot conflict graph; the memoized search and the next replan's
  // graph take over from here.
  base_.tiling = nullptr;
  base_.conflict_graph = nullptr;
  ++stats_.deltas;
}

std::vector<PlanResult> PlanSession::replan() {
  const std::vector<const Planner*> selected = select_backends();

  PlanRequest request = base_;
  request.deployment = deployment_;

  // Same scoped-cache rule as the one-shot plan_all: memoize torus
  // searches in the session cache unless the caller brought a cache or
  // an explicit tiling makes searching unnecessary.
  if (request.tiling == nullptr && request.tiling_cache == nullptr) {
    request.tiling_cache = &own_cache_;
  }

  // Build the conflict graph once for the order-sensitive coloring
  // backends and keep it for later replans; the next apply() drops it.
  if (request.conflict_graph == nullptr) {
    const bool wants_graph =
        std::any_of(selected.begin(), selected.end(), [](const Planner* p) {
          return p->wants_conflict_graph();
        });
    if (wants_graph) {
      if (!graph_.has_value()) {
        graph_.emplace(build_conflict_graph(*deployment_));
        ++stats_.graph_builds;
      }
      request.conflict_graph = &*graph_;
    }
  }

  // Warm start: the greedy table apply() kept exact.  greedy and
  // region-greedy both return it as is.
  const bool warm =
      warm_.has_value() &&
      std::any_of(selected.begin(), selected.end(), [](const Planner* p) {
        return p->wants_warm_start();
      });
  if (warm) {
    request.warm = &*warm_;
    ++stats_.warm_greedy;
  }

  // Backend fan-out: results land in their request slots, so the output
  // order is the request order at any thread count.  Backends that
  // themselves use the pool (tiling search) degrade to serial inside
  // this region — the pool never nests.  Each backend counts into its
  // own stats slot (`auto` hands its slot to its delegate, which may be
  // `region-greedy`), summed in request order below.
  std::vector<PlanResult> results(selected.size());
  std::vector<RegionShardStats> backend_stats(selected.size());
  parallel_for(0, selected.size(), [&](std::size_t i) {
    PlanRequest own = request;
    own.region_stats = &backend_stats[i];
    results[i] = selected[i]->plan(own);
  });

  if (warm) {
    warm_->recolored = 0;  // reported by this replan
  } else {
    // A cold greedy table is this deployment's fixpoint: it becomes the
    // table the following deltas repair.
    for (std::size_t i = 0; i < selected.size(); ++i) {
      if (selected[i]->wants_warm_start() && results[i].ok) {
        warm_ = PlanWarmStart{results[i].slots.slot, 0};
        break;
      }
    }
  }
  std::uint64_t regions = 0;
  for (const RegionShardStats& counted : backend_stats) {
    regions += counted.regions;
    stats_.regions_replanned += counted.regions_planned;
    stats_.seam_sensors += counted.seam_sensors;
    stats_.stitch_recolored += counted.stitch_recolored;
  }
  stats_.regions = std::max(stats_.regions, regions);
  ++stats_.replans;
  return results;
}

}  // namespace latticesched
