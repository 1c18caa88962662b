#include "core/planner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "baseline/coloring_schedule.hpp"
#include "baseline/tdma.hpp"
#include "core/analysis.hpp"
#include "core/mobile.hpp"
#include "core/plan_session.hpp"
#include "core/region_shard.hpp"
#include "core/tiling_cache.hpp"
#include "core/tiling_scheduler.hpp"
#include "graph/coloring.hpp"
#include "lattice/lattice.hpp"
#include "tune/auto_planner.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

namespace latticesched {

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Built-in backends
// ---------------------------------------------------------------------------

/// Obtains the tiling behind a request: a caller-provided one, a cached
/// torus-search result (request.tiling_cache), or a fresh period sweep.
/// Throws when the search budget is exhausted without a tiling.
Tiling acquire_tiling(const PlanRequest& request) {
  if (request.tiling != nullptr) return *request.tiling;
  const Deployment& d = *request.deployment;
  TorusSearchConfig search = request.search;
  // Rule-D1 deployments carry several prototiles; a schedule that
  // covers them all needs a tiling using every one (Theorem 2).
  if (d.prototiles().size() > 1) search.require_all_prototiles = true;
  std::optional<Tiling> tiling =
      request.tiling_cache != nullptr
          ? request.tiling_cache->find_or_search(d.prototiles(), search)
          : search_periodic_tiling(d.prototiles(), search);
  if (!tiling.has_value()) {
    throw std::runtime_error(
        "no periodic tiling found within the search budget "
        "(prototile set may not be exact)");
  }
  return *std::move(tiling);
}

class TilingPlanner final : public Planner {
 public:
  std::string name() const override { return "tiling"; }

 protected:
  Raw compute(const PlanRequest& request) const override {
    Tiling tiling = acquire_tiling(request);
    const TilingSchedule schedule(tiling);
    Raw raw;
    raw.slots = assign_slots(schedule, *request.deployment);
    raw.detail = schedule.description();
    raw.tiling = std::move(tiling);
    return raw;
  }
};

// The Conclusions' location-based rule as a first-class backend: the
// Theorem-1/2 schedule for the deployment's prototiles plus a
// MobileScheduler over the square lattice, so consumers simulate roaming
// sensors straight from the PlanResult instead of hand-wiring the
// scheduler from PlanResult::tiling.
class MobilePlanner final : public Planner {
 public:
  std::string name() const override { return "mobile"; }

  bool supports(const PlanRequest& request) const override {
    // The Voronoi-cell geometry of the mobile rule is 2-D.
    return request.deployment != nullptr && request.deployment->size() > 0 &&
           request.deployment->position(0).dim() == 2;
  }

 protected:
  Raw compute(const PlanRequest& request) const override {
    if (!supports(request)) {
      throw std::runtime_error(
          "mobile backend needs a non-empty 2-D deployment");
    }
    Tiling tiling = acquire_tiling(request);
    TilingSchedule schedule(tiling);
    Raw raw;
    raw.slots = assign_slots(schedule, *request.deployment);
    raw.detail = "location-based rule over " + schedule.description();
    // The Voronoi-cell geometry follows the request's lattice (hex
    // deployments get hexagonal cells), square by default.
    raw.mobile = std::make_shared<const MobileScheduler>(
        request.lattice != nullptr ? *request.lattice : Lattice::square(),
        std::move(schedule));
    raw.tiling = std::move(tiling);
    return raw;
  }
};

// The order-sensitive heuristics, over the shared conflict graph.
class ColoringPlanner final : public Planner {
 public:
  explicit ColoringPlanner(ColoringHeuristic h) : heuristic_(h) {}
  std::string name() const override { return to_string(heuristic_); }
  bool wants_conflict_graph() const override { return true; }

 protected:
  Raw compute(const PlanRequest& request) const override {
    Raw raw;
    raw.slots = request.conflict_graph != nullptr
                    ? coloring_slots_on_graph(*request.conflict_graph,
                                              heuristic_, request.sa)
                    : coloring_slots(*request.deployment, heuristic_,
                                     request.sa);
    std::ostringstream os;
    os << "conflict-graph coloring (" << to_string(heuristic_) << "), "
       << raw.slots.period << " slots";
    raw.detail = os.str();
    return raw;
  }

 private:
  ColoringHeuristic heuristic_;
};

// First-fit in index order over conflict rows streamed one at a time
// (no graph is materialized) serves two names: `greedy` plans the
// deployment as one region, and `region-greedy` colors rectangular
// shards in parallel and stitches the seams back to the serial table
// (core/region_shard.hpp).  Warm, both return the session's table,
// which PlanSession::apply keeps exact.
class GreedyPlanner final : public Planner {
 public:
  explicit GreedyPlanner(bool sharded) : sharded_(sharded) {}
  std::string name() const override {
    return sharded_ ? "region-greedy" : "greedy";
  }
  bool wants_warm_start() const override { return true; }

 protected:
  Raw compute(const PlanRequest& request) const override {
    const Deployment& d = *request.deployment;
    const std::size_t regions =
        sharded_ ? std::max<std::size_t>(request.regions, 1) : 1;
    RegionShardStats local;
    RegionShardStats& stats = sharded_ && request.region_stats != nullptr
                                  ? *request.region_stats
                                  : local;
    const std::uint64_t regions_before = stats.regions;
    Raw raw;
    if (request.warm != nullptr &&
        request.warm->greedy_colors.size() == d.size()) {
      raw.slots.slot = request.warm->greedy_colors;
      // region-greedy's detail names its shard count, as a cold plan's.
      if (sharded_) stats.regions += partition_regions(d, regions).boxes.size();
      stats.stitch_recolored += request.warm->recolored;
    } else {
      raw.slots.slot = plan_regions(d, regions, &stats);
    }
    raw.slots.period = color_count(raw.slots.slot);
    std::ostringstream os;
    if (sharded_) {
      raw.slots.source = "region-greedy";
      os << "region-sharded greedy (" << (stats.regions - regions_before)
         << " region(s), " << raw.slots.period << " slots)";
    } else {
      raw.slots.source = "coloring-greedy";
      os << "conflict-graph coloring (greedy), " << raw.slots.period
         << " slots";
    }
    raw.detail = os.str();
    return raw;
  }

 private:
  bool sharded_;
};

class TdmaPlanner final : public Planner {
 public:
  std::string name() const override { return "tdma"; }

 protected:
  Raw compute(const PlanRequest& request) const override {
    Raw raw;
    raw.slots = tdma_slots(*request.deployment);
    std::ostringstream os;
    os << "TDMA round-robin, one slot per sensor (period "
       << raw.slots.period << ")";
    raw.detail = os.str();
    return raw;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Planner base pipeline
// ---------------------------------------------------------------------------

PlanResult Planner::plan(const PlanRequest& request) const {
  if (request.deployment == nullptr) {
    throw std::invalid_argument("Planner::plan: deployment is required");
  }
  if (request.channels == 0) {
    throw std::invalid_argument("Planner::plan: channels must be >= 1");
  }
  const Deployment& d = *request.deployment;
  PlanResult result;
  result.backend = name();
  result.channels = request.channels;
  for (const Prototile& n : d.prototiles()) {
    result.lower_bound = std::max(result.lower_bound,
                                  static_cast<std::uint32_t>(n.size()));
  }

  const Clock::time_point t0 = Clock::now();
  try {
    Raw raw = compute(request);
    result.wall_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    result.slots = std::move(raw.slots);
    result.detail = std::move(raw.detail);
    result.tiling = std::move(raw.tiling);
    result.mobile = std::move(raw.mobile);
    result.ok = true;
  } catch (const std::exception& e) {
    result.wall_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    result.error = e.what();
    return result;
  }

  if (result.slots.slot.size() != d.size()) {
    result.ok = false;
    result.error = "backend produced a slot table of the wrong size";
    return result;
  }
  // Custom backends can be registered, so the pipeline must not trust the
  // table: a slot >= period would corrupt the histogram below.
  for (std::uint32_t s : result.slots.slot) {
    if (s >= result.slots.period) {
      result.ok = false;
      result.error = "backend produced a slot outside [0, period)";
      return result;
    }
  }

  // Multichannel is planner currency: every backend's table folds onto c
  // channels (collision-freedom is preserved — sensors share
  // (slot, channel) iff they shared the original slot), and the verdict
  // below covers the folded schedule, which is what gets deployed.
  if (request.channels > 1) {
    result.channel_slots = fold_channels(result.slots, request.channels);
  }

  if (request.verify) {
    result.report =
        result.channel_slots.has_value()
            ? check_collision_free_multichannel(d, *result.channel_slots)
            : check_collision_free(d, result.slots);
    result.collision_free = result.report.collision_free;
    result.verified = true;
  } else {
    result.collision_free = true;
    result.verified = false;
  }

  if (result.slots.period > 0) {
    // Every diagnostic describes the DEPLOYED schedule: with channels
    // the histogram counts senders per folded time slot (across
    // channels), the duty cycle uses the folded period, and the
    // optimality gap is judged against the pigeonhole bound
    // ceil(lower_bound / c) (at most c of one tile's
    // pairwise-conflicting sensors can share a slot).
    std::vector<std::uint64_t> histogram(result.effective_period(), 0);
    if (result.channel_slots.has_value()) {
      for (const SlotChannel& a : result.channel_slots->assignment) {
        ++histogram[a.slot];
      }
    } else {
      for (std::uint32_t s : result.slots.slot) ++histogram[s];
    }
    result.slot_balance = slot_balance(histogram);
    const std::uint32_t period = result.effective_period();
    result.duty_cycle = 1.0 / static_cast<double>(period);
    const std::uint32_t bound =
        (result.lower_bound + request.channels - 1) / request.channels;
    if (bound > 0) {
      result.optimality_gap = static_cast<double>(period) /
                              static_cast<double>(bound);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

void PlannerRegistry::register_planner(std::unique_ptr<Planner> planner) {
  if (planner == nullptr) {
    throw std::invalid_argument("register_planner: null planner");
  }
  const std::string name = planner->name();
  for (auto& existing : planners_) {
    if (existing->name() == name) {
      existing = std::move(planner);
      return;
    }
  }
  planners_.push_back(std::move(planner));
}

std::vector<std::string> PlannerRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(planners_.size());
  for (const auto& p : planners_) out.push_back(p->name());
  return out;
}

const Planner* PlannerRegistry::find(const std::string& name) const {
  for (const auto& p : planners_) {
    if (p->name() == name) return p.get();
  }
  return nullptr;
}

std::vector<PlanResult> PlannerRegistry::plan_all(
    const PlanRequest& request,
    const std::vector<std::string>& backends) const {
  // The one-shot form of the session API: a single-step PlanSession
  // borrowing the request's deployment.  The session owns the shared
  // conflict-graph build, the scoped tiling cache and the backend
  // fan-out — one code path whether the deployment is planned once or
  // evolved delta by delta.
  PlanSession session(request, *this, backends);
  return session.replan();
}

PlannerRegistry& PlannerRegistry::global() {
  static PlannerRegistry* registry = [] {
    auto* r = new PlannerRegistry();
    r->register_planner(std::make_unique<TilingPlanner>());
    r->register_planner(std::make_unique<GreedyPlanner>(false));
    r->register_planner(
        std::make_unique<ColoringPlanner>(ColoringHeuristic::kWelshPowell));
    r->register_planner(
        std::make_unique<ColoringPlanner>(ColoringHeuristic::kDsatur));
    r->register_planner(
        std::make_unique<ColoringPlanner>(ColoringHeuristic::kAnnealing));
    r->register_planner(std::make_unique<GreedyPlanner>(true));
    r->register_planner(std::make_unique<TdmaPlanner>());
    r->register_planner(std::make_unique<MobilePlanner>());
    r->register_planner(std::make_unique<tune::AutoPlanner>());
    return r;
  }();
  return *registry;
}

// ---------------------------------------------------------------------------
// Report helpers
// ---------------------------------------------------------------------------

std::vector<std::string> parse_backend_list(const std::string& csv) {
  if (csv.empty() || csv == "all") return {};
  return split_csv_list(csv);
}

}  // namespace latticesched
