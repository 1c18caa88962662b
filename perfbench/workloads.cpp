#include "workloads.hpp"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "bench_stats.hpp"
#include "core/collision.hpp"
#include "core/multichannel.hpp"
#include "core/plan_service.hpp"
#include "core/plan_session.hpp"
#include "core/region_shard.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/tiling_cache.hpp"
#include "deltas.hpp"
#include "graph/interference.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

using latticesched::BatchItem;
using latticesched::BatchItemReport;
using latticesched::BatchReport;
using latticesched::BatchStepReport;
using latticesched::Deployment;
using latticesched::DeploymentDelta;
using latticesched::Graph;
using latticesched::MutationStep;
using latticesched::MutationTrace;
using latticesched::Planner;
using latticesched::PlannerRegistry;
using latticesched::PlanRequest;
using latticesched::PlanResult;
using latticesched::PlanResultRow;
using latticesched::PlanService;
using latticesched::PlanSession;
using latticesched::Point;
using latticesched::PointVec;
using latticesched::Prototile;
using latticesched::RegionShardStats;
using latticesched::ScenarioInstance;
using latticesched::ScenarioRegistry;
using latticesched::SessionConfig;
using latticesched::TilingCache;
using latticesched::TorusSearchConfig;
using latticesched::TorusSearchStats;
namespace serve = latticesched::serve;

using Clock = std::chrono::steady_clock;

/// A timed run sets up at least kMinSetups times and until kSetupSeconds
/// have passed (at most kMaxSetups); setup_s is the median.  Small
/// set-ups thus get more samples, so their median is steadier.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 25;
constexpr double kSetupSeconds = 2.0;
/// Share of a traced run spent on untraced ops; the rest replays.
constexpr double kUntracedShare = 0.4;
/// Slot count of the Chebyshev radius-1 ball, the lower bound max|N_k|
/// that the tiling schedule meets on a grid (Theorem 1).
constexpr std::uint32_t kGridLowerBound = 9;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

std::string format(const char* fmt, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, value);
  return buf;
}

// ---------------------------------------------------------------------------
// Op outcomes and the closed loop
// ---------------------------------------------------------------------------

struct OpOutcome {
  bool ok = true;
  /// The op lost state it cannot continue without (a session whose
  /// DELTA or REPLAN failed); the client stops.
  bool fatal = false;
  std::vector<double> best_gaps;  ///< smallest optimality gap per item
  double backend_seconds = 0.0;   ///< sum of the results' wall_seconds
  std::string error;              ///< first failed check

  void fail(std::string why) {
    if (ok) error = std::move(why);
    ok = false;
  }
};

struct LoopStats {
  std::vector<double> latency_ms;
  latticesched::SampleSet best_gaps;
  latticesched::SampleSet concurrency;  ///< backend time / op wall, per op
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_seconds = 0.0;
  std::string first_error;

  void record(double ms, const OpOutcome& outcome) {
    latency_ms.push_back(ms);
    ++attempted;
    if (!outcome.ok) {
      ++failed;
      if (first_error.empty()) first_error = outcome.error;
    }
    for (double gap : outcome.best_gaps) best_gaps.add(gap);
    if (ms > 0.0) concurrency.add(outcome.backend_seconds * 1e3 / ms);
  }
};

/// Runs `op` back to back until `seconds` have passed since `start` (at
/// least once), or until an op fails fatally.  `op(&ms)` times only its
/// own call; its output checks run outside that time.
template <typename Op>
LoopStats closed_loop(Clock::time_point start, double seconds, Op&& op) {
  LoopStats stats;
  do {
    double ms = 0.0;
    const OpOutcome outcome = op(&ms);
    stats.record(ms, outcome);
    if (outcome.fatal) break;
  } while (seconds_since(start) < seconds);
  stats.wall_seconds = seconds_since(start);
  return stats;
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

void check_results(const std::vector<PlanResult>& results,
                   const std::string& where, OpOutcome* out) {
  if (results.empty()) out->fail(where + ": no results");
  for (const PlanResult& r : results) {
    if (!r.ok) {
      out->fail(where + ": " + r.backend + " failed: " + r.error);
    } else if (!r.verified) {
      out->fail(where + ": " + r.backend + " was not verified");
    } else if (!r.collision_free) {
      out->fail(where + ": " + r.backend + " collides: " +
                r.report.to_string());
    }
    out->backend_seconds += r.wall_seconds;
  }
}

template <typename Result, typename Gap>
double best_gap(const std::vector<Result>& results, Gap gap_of) {
  double best = 0.0;
  for (const Result& r : results) {
    if (!r.ok) continue;
    const double g = gap_of(r);
    if (g > 0.0 && (best == 0.0 || g < best)) best = g;
  }
  return best;
}

double best_gap(const std::vector<PlanResult>& results) {
  return best_gap(results, [](const PlanResult& r) { return r.optimality_gap; });
}

/// Report rows compare equal except for wall time.
bool same_rows(const std::vector<PlanResultRow>& a,
               const std::vector<PlanResultRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const PlanResultRow& x = a[i];
    const PlanResultRow& y = b[i];
    if (x.scenario != y.scenario || x.step != y.step ||
        x.backend != y.backend || x.ok != y.ok || x.sensors != y.sensors ||
        x.period != y.period || x.lower_bound != y.lower_bound ||
        x.optimality_gap != y.optimality_gap ||
        x.collision_free != y.collision_free || x.verified != y.verified ||
        x.slot_balance != y.slot_balance || x.duty_cycle != y.duty_cycle ||
        x.channels != y.channels || x.effective_period != y.effective_period ||
        x.tuned != y.tuned || x.tuned_config != y.tuned_config ||
        x.detail != y.detail || x.error != y.error) {
      return false;
    }
  }
  return true;
}

/// Every item's report rows with wall times blanked: equal across runs
/// of the same items iff the plans are equal.
std::string canonical_rows(const BatchReport& report) {
  std::string out;
  for (const BatchItemReport& item : report.items) {
    out += item.label + (item.built ? "\n" : " not built: " + item.error + "\n");
    const auto emit = [&](std::vector<PlanResult> results,
                          std::uint64_t step) {
      for (PlanResult& r : results) r.wall_seconds = 0.0;
      out += latticesched::plan_results_to_json(results, item.label, step);
    };
    if (item.steps.empty()) {
      emit(item.results, 0);
    } else {
      for (const BatchStepReport& step : item.steps) {
        emit(step.results, step.step);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Replay helpers: one span per public call
// ---------------------------------------------------------------------------

/// The backends PlanSession would select: the named ones, or every
/// default-set backend that supports the request.
std::vector<const Planner*> select_planners(
    const std::vector<std::string>& names, const PlanRequest& request) {
  const PlannerRegistry& registry = PlannerRegistry::global();
  std::vector<const Planner*> selected;
  if (names.empty()) {
    for (const std::string& name : registry.names()) {
      const Planner* p = registry.find(name);
      if (p != nullptr && p->in_default_set() && p->supports(request)) {
        selected.push_back(p);
      }
    }
  } else {
    for (const std::string& name : names) {
      const Planner* p = registry.find(name);
      if (p == nullptr) throw std::invalid_argument("unknown backend " + name);
      selected.push_back(p);
    }
  }
  return selected;
}

/// A search the replay ran through the cache on a miss.  The cache keeps
/// its search counters to itself, so the node count comes from running
/// the same search again with stats once the op's spans have closed.
struct MissedSearch {
  std::vector<Prototile> prototiles;
  TorusSearchConfig config;
};

/// The torus search the tiling backend would run, under the same cache
/// key (several prototiles require a tiling that uses them all).
void trace_search(Tracer& tracer, const Deployment& d,
                  TorusSearchConfig config, TilingCache& cache,
                  std::vector<MissedSearch>* missed) {
  if (d.prototiles().size() > 1) config.require_all_prototiles = true;
  const std::uint64_t misses = cache.stats().misses;
  (void)tracer.timed("tiling.search", [&] {
    return cache.find_or_search(d.prototiles(), config);
  });
  if (cache.stats().misses != misses) {
    missed->push_back({d.prototiles(), config});
  }
}

/// Counts the nodes of the op's missed searches (outside every span).
void count_search_nodes(Tracer& tracer,
                        const std::vector<MissedSearch>& missed) {
  for (const MissedSearch& m : missed) {
    TorusSearchStats stats;
    TorusSearchConfig config = m.config;
    config.stats = &stats;
    (void)latticesched::search_periodic_tiling(m.prototiles, config);
    tracer.count("tiling.search_nodes", static_cast<double>(stats.nodes));
  }
}

/// Verifies a result the way Planner::plan does with verify on.
void trace_verify(Tracer& tracer, const Deployment& d, PlanResult* r) {
  if (!r->ok) return;
  r->report = tracer.timed("collision.verify", [&] {
    return r->channel_slots.has_value()
               ? latticesched::check_collision_free_multichannel(
                     d, *r->channel_slots)
               : latticesched::check_collision_free(d, r->slots);
  });
  r->collision_free = r->report.collision_free;
  r->verified = true;
  tracer.count("collision.checks", 1);
}

/// Adds a session's counter growth since `before` to the current op.
void trace_session_stats(Tracer& tracer, const PlanSession::Stats& now,
                         const PlanSession::Stats& before) {
  const auto diff = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  tracer.count("session.graph_patches",
               diff(now.graph_patches, before.graph_patches));
  tracer.count("session.graph_builds",
               diff(now.graph_builds, before.graph_builds));
  tracer.count("session.warm_greedy", diff(now.warm_greedy, before.warm_greedy));
  tracer.count("session.replans", diff(now.replans, before.replans));
  tracer.count("region.seam_sensors",
               diff(now.seam_sensors, before.seam_sensors));
  tracer.count("region.stitch_recolored",
               diff(now.stitch_recolored, before.stitch_recolored));
}

/// Replays one batch item the way PlanService::run plans it: build and
/// index the scenario, then either (static item) search, build the
/// conflict graph, plan each backend with verify off and verify each
/// result, or (dynamic item) drive a local PlanSession through the
/// trace, verifying every step's results.
BatchItemReport trace_item(Tracer& tracer, const BatchItem& item,
                           TilingCache& cache,
                           std::vector<MissedSearch>* missed) {
  const TilingCache::Stats cache_before = cache.stats();
  BatchItemReport out;
  out.scenario = item.query.scenario;
  ScenarioInstance instance = tracer.timed("scenario.build", [&] {
    return ScenarioRegistry::global().build(item.query.scenario,
                                            item.query.params, &cache);
  });
  out.label = instance.label;
  out.sensors = instance.deployment.size();
  out.channels = instance.channels;
  out.built = true;

  PointVec positions = instance.deployment.positions();
  std::vector<std::uint32_t> types(instance.deployment.size());
  for (std::size_t i = 0; i < types.size(); ++i) {
    types[i] = instance.deployment.type_of(i);
  }
  std::vector<Prototile> prototiles = instance.deployment.prototiles();
  Deployment d = tracer.timed("scenario.index", [&] {
    return Deployment::assemble(std::move(positions), std::move(types),
                                std::move(prototiles));
  });
  tracer.count("scenario.sensors", static_cast<double>(d.size()));
  if (!instance.tiling.has_value()) {
    trace_search(tracer, d, item.search, cache, missed);
  }

  MutationTrace trace = std::move(instance.trace);
  if (!item.trace_script.empty()) {
    trace = latticesched::parse_mutation_script(item.trace_script);
  }
  if (trace.empty()) {
    PlanRequest request;
    request.deployment = &d;
    request.tiling = instance.tiling.has_value() ? &*instance.tiling : nullptr;
    request.search = item.search;
    request.sa = item.sa;
    request.verify = false;
    request.channels = instance.channels;
    request.tiling_cache = &cache;
    request.lattice =
        instance.lattice.has_value() ? &*instance.lattice : nullptr;
    request.regions = std::max<std::size_t>(item.regions, 1);
    request.region_halo = item.region_halo;
    const std::vector<const Planner*> planners =
        select_planners(item.backends, request);
    std::optional<Graph> graph;
    if (std::any_of(planners.begin(), planners.end(), [](const Planner* p) {
          return p->wants_conflict_graph();
        })) {
      graph.emplace(tracer.timed(
          "graph.build", [&] { return latticesched::build_conflict_graph(d); }));
      request.conflict_graph = &*graph;
      tracer.count("graph.edges", static_cast<double>(graph->edge_count()));
    }
    RegionShardStats region_stats;
    request.region_stats = &region_stats;
    for (const Planner* p : planners) {
      out.results.push_back(tracer.timed("planner." + p->name(),
                                         [&] { return p->plan(request); }));
    }
    tracer.count("region.seam_sensors",
                 static_cast<double>(region_stats.seam_sensors));
    tracer.count("region.stitch_recolored",
                 static_cast<double>(region_stats.stitch_recolored));
    for (PlanResult& r : out.results) trace_verify(tracer, d, &r);
  } else {
    SessionConfig config;
    config.backends = item.backends;
    config.search = item.search;
    config.sa = item.sa;
    config.verify = false;
    config.regions = item.regions;
    config.region_halo = item.region_halo;
    config.channels = instance.channels;
    if (instance.lattice.has_value()) config.lattice = &*instance.lattice;
    if (instance.tiling.has_value()) config.tiling = &*instance.tiling;
    config.tiling_cache = &cache;
    PlanSession session(std::move(d), config);
    const auto replan = [&](std::uint64_t step) {
      std::vector<PlanResult> results =
          tracer.timed("session.replan", [&] { return session.replan(); });
      for (PlanResult& r : results) {
        trace_verify(tracer, session.deployment(), &r);
      }
      out.steps.push_back(
          BatchStepReport{step, session.deployment().size(), results});
    };
    replan(0);
    for (const MutationStep& step : trace.steps) {
      tracer.timed("session.apply", [&] { session.apply(step.delta); });
      replan(step.at);
    }
    out.results = out.steps.back().results;
    trace_session_stats(tracer, session.stats(), PlanSession::Stats{});
  }
  tracer.count("tiling.searches", static_cast<double>(cache.stats().misses -
                                                      cache_before.misses));
  return out;
}

void trace_report(Tracer& tracer, const BatchReport& report) {
  const std::string json = tracer.timed(
      "report.emit", [&] { return latticesched::batch_report_to_json(report); });
  tracer.count("report.bytes", static_cast<double>(json.size()));
  (void)tracer.timed("report.parse", [&] {
    return latticesched::parse_batch_report_json(json);
  });
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds what the ops need and runs one untimed warm-up op; returns
  /// "" when the warm-up op's outputs check, else why not.
  virtual std::string setup() = 0;
  /// Releases what setup() built.
  virtual void teardown() = 0;
  /// The closed loop, for `seconds`.
  virtual LoopStats loop(double seconds) = 0;
  /// Checks that need the whole run; appends failures.
  virtual void final_check(std::vector<std::string>* failures) {
    (void)failures;
  }
  /// Prepares the traced replay (runs after loop()).
  virtual void begin_replay() {}
  /// Replays one op under `tracer`; "" when its outputs check.
  virtual std::string replay_op(Tracer& tracer) = 0;
};

/// grid-250k: the paper's schedule at scale through one warm service.
class GridWorkload final : public Workload {
 public:
  GridWorkload() {
    BatchItem item;
    item.query.scenario = "grid-large";
    item.query.params.n = 250000;
    item.query.params.radius = 1;
    item.backends = {"tiling", "region-greedy"};
    item.verify = true;
    items_.push_back(std::move(item));
  }

  std::string setup() override {
    service_ = std::make_unique<PlanService>();
    double ms = 0.0;
    return run_op(&ms).error;
  }

  void teardown() override { service_.reset(); }

  LoopStats loop(double seconds) override {
    return closed_loop(Clock::now(), seconds,
                       [this](double* ms) { return run_op(ms); });
  }

  std::string replay_op(Tracer& tracer) override {
    tracer.begin_op();
    BatchReport report;
    std::vector<MissedSearch> missed;
    {
      const Tracer::Scope root = tracer.span("service.op");
      report.items.push_back(trace_item(tracer, items_.front(),
                                        service_->tiling_cache(), &missed));
      trace_report(tracer, report);
      tracer.count("service.items", 1);
    }
    count_search_nodes(tracer, missed);
    return check(report).error;
  }

 private:
  OpOutcome run_op(double* ms) {
    const Clock::time_point t0 = Clock::now();
    const BatchReport report = service_->run(items_);
    *ms = ms_since(t0);
    return check(report);
  }

  static OpOutcome check(const BatchReport& report) {
    OpOutcome out;
    if (report.items.size() != 1 || !report.items.front().built) {
      out.fail("grid-250k: scenario not built");
      return out;
    }
    const BatchItemReport& item = report.items.front();
    check_results(item.results, "grid-250k", &out);
    if (item.results.size() != 2) out.fail("grid-250k: expected 2 results");
    for (const PlanResult& r : item.results) {
      if (r.backend == "tiling" && r.ok &&
          !(r.effective_period() == kGridLowerBound &&
            r.lower_bound == kGridLowerBound && r.optimality_gap == 1.0)) {
        out.fail("grid-250k: tiling period " +
                 std::to_string(r.effective_period()) +
                 " misses the lower bound 9");
      }
    }
    out.best_gaps.push_back(best_gap(item.results));
    return out;
  }

  std::unique_ptr<PlanService> service_;
  std::vector<BatchItem> items_;
};

/// registry-sweep: `latticesched --scenario all` with CLI defaults on a
/// fresh service per op.
class RegistryWorkload final : public Workload {
 public:
  explicit RegistryWorkload(std::uint64_t seed) {
    for (const std::string& name : ScenarioRegistry::global().names()) {
      BatchItem item;
      item.query.scenario = name;
      item.query.params.n = 12;
      item.query.params.radius = 1;
      item.query.params.density = 0.35;
      item.query.params.seed = seed;
      item.query.params.channels = 2;
      item.query.params.steps = 0;
      item.sa.max_iters = 60000;
      item.verify = true;
      items_.push_back(std::move(item));
    }
  }

  std::string setup() override {
    reference_.clear();
    double ms = 0.0;
    const BatchReport report = run(&ms);
    reference_ = canonical_rows(report);
    return check(report).error;
  }

  void teardown() override {}

  LoopStats loop(double seconds) override {
    return closed_loop(Clock::now(), seconds, [this](double* ms) {
      const BatchReport report = run(ms);
      return check(report);
    });
  }

  std::string replay_op(Tracer& tracer) override {
    tracer.begin_op();
    BatchReport report;
    std::vector<MissedSearch> missed;
    {
      const Tracer::Scope root = tracer.span("service.op");
      TilingCache cache;  // a fresh service's cache
      for (const BatchItem& item : items_) {
        report.items.push_back(trace_item(tracer, item, cache, &missed));
      }
      trace_report(tracer, report);
      tracer.count("service.items", static_cast<double>(items_.size()));
    }
    count_search_nodes(tracer, missed);
    return check(report).error;
  }

 private:
  /// One op: a fresh service plans every item.  Each op stands for a
  /// cold CLI run, so after the timed call the heap memory the previous
  /// service freed goes back to the OS, as it would when that process
  /// exited.  Without this, peak RSS depends on which pool thread's
  /// malloc arena happened to retain the largest item's memory, which
  /// swings it between ~9.7 and ~12.4 MiB from run to run.
  BatchReport run(double* ms) const {
    const Clock::time_point t0 = Clock::now();
    BatchReport report;
    {
      PlanService service;
      report = service.run(items_);
    }
    *ms = ms_since(t0);
    malloc_trim(0);
    return report;
  }

  /// Every result verified collision-free, and the rows equal the
  /// warm-up op's rows (determinism at the pool width).
  OpOutcome check(const BatchReport& report) const {
    OpOutcome out;
    for (const BatchItemReport& item : report.items) {
      if (!item.built) {
        out.fail(item.scenario + ": not built: " + item.error);
        continue;
      }
      if (item.steps.empty()) {
        check_results(item.results, item.label, &out);
      } else {
        for (const BatchStepReport& step : item.steps) {
          check_results(step.results, item.label, &out);
        }
      }
      out.best_gaps.push_back(best_gap(item.results));
    }
    if (!reference_.empty() && canonical_rows(report) != reference_) {
      out.fail("registry-sweep: report rows differ from the first op's");
    }
    return out;
  }

  std::vector<BatchItem> items_;
  std::string reference_;
};

/// session-serve: two clients, each driving its own server session with
/// seeded DELTA + REPLAN ops over loopback.
class SessionWorkload final : public Workload {
 public:
  explicit SessionWorkload(std::uint64_t seed) : seed_(seed) {
    item_.query.scenario = "grid";
    item_.query.params.n = 48;
    item_.query.params.radius = 1;
    item_.backends = {"greedy", "tiling", "region-greedy"};
    item_.verify = true;
    const ScenarioInstance instance = ScenarioRegistry::global().build(
        item_.query.scenario, item_.query.params);
    for (const Point& p : instance.deployment.positions()) {
      initial_.emplace_back(p[0], p[1]);
    }
    prototile_.emplace(instance.deployment.prototiles().front());
  }

  ~SessionWorkload() override {
    try {
      teardown();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: session-serve teardown: %s\n",
                   e.what());
    }
  }

  std::string setup() override {
    server_ = std::make_unique<serve::PlanServer>(serve::ServerConfig{});
    server_->start();
    std::string error;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      Client& client = clients_[c];
      serve::ClientConfig config;
      config.port = server_->port();
      client = Client{};
      client.client = std::make_unique<serve::PlanClient>(config);
      const serve::OpenInfo info = client.client->open(item_);
      client.session = info.session;
      label_ = info.label;
      client.deltas.emplace(initial_, seed_, c);
      double ms = 0.0;
      const OpOutcome warm = op(client, &ms);
      if (error.empty()) error = warm.error;
    }
    return error;
  }

  void teardown() override {
    for (Client& client : clients_) {
      if (client.client != nullptr && !client.lost) {
        (void)client.client->close_session(client.session);
      }
      client = Client{};
    }
    if (server_ != nullptr) {
      server_->stop();
      server_.reset();
    }
  }

  /// The two clients take turns from one thread, so one op is in flight
  /// at a time.
  LoopStats loop(double seconds) override {
    std::size_t turn = 0;
    return closed_loop(Clock::now(), seconds, [&](double* ms) {
      return op(clients_[turn++ % clients_.size()], ms);
    });
  }

  /// Warm = cold and remote = local: each client's final fleet, planned
  /// cold in-process, must give that client's last REPLAN rows.
  void final_check(std::vector<std::string>* failures) override {
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      const Client& client = clients_[c];
      const std::string who = "session-serve client " + std::to_string(c);
      if (client.lost) {
        failures->push_back(who + " lost its session");
        continue;
      }
      const Deployment d = fleet_deployment(client);
      PlanRequest request;
      request.deployment = &d;
      request.verify = true;
      const std::vector<PlanResult> cold =
          PlannerRegistry::global().plan_all(request, item_.backends);
      const std::vector<PlanResultRow> rows =
          latticesched::parse_plan_results_json(
              latticesched::plan_results_to_json(cold, label_,
                                                 client.last.step));
      if (!same_rows(rows, client.last.rows)) {
        failures->push_back(who +
                            ": last REPLAN rows differ from a cold "
                            "in-process plan of its final fleet");
      }
    }
  }

  /// Opens each client's local replica: a PlanSession on the client's
  /// current fleet, configured like the server's session (verify on), so
  /// the remote op minus the replica's work is the wire's share.
  void begin_replay() override {
    for (Client& client : clients_) {
      if (client.lost) continue;
      SessionConfig config;
      config.backends = item_.backends;
      config.search = item_.search;
      config.verify = item_.verify;
      client.local = std::make_unique<PlanSession>(fleet_deployment(client),
                                                   config);
      (void)client.local->replan();
    }
  }

  std::string replay_op(Tracer& tracer) override {
    Client& client = clients_[replayed_++ % clients_.size()];
    if (client.lost || client.local == nullptr) return "session lost";
    // The op's input, made outside the op: the next seeded delta.
    const std::string script = to_script(client.deltas->next());
    const DeploymentDelta delta =
        latticesched::parse_mutation_script(script).steps.front().delta;
    const std::uint64_t step = client.last.step + 1;
    PlanSession& local = *client.local;

    tracer.begin_op();
    std::vector<PlanResultRow> local_rows;
    serve::ReplanOutcome remote;
    std::string error;
    std::vector<MissedSearch> missed;
    {
      const Tracer::Scope root = tracer.span("service.op");
      const PlanSession::Stats before = local.stats();
      const TilingCache::Stats cache_before = local.tiling_cache().stats();
      tracer.timed("session.apply", [&] { local.apply(delta); });
      trace_search(tracer, local.deployment(), item_.search,
                   local.tiling_cache(), &missed);
      std::vector<PlanResult> results =
          tracer.timed("session.replan", [&] { return local.replan(); });
      // The replica verified inside replan, on the pool; this serial
      // re-check prices the collision layer on its own.
      for (PlanResult& r : results) {
        trace_verify(tracer, local.deployment(), &r);
      }
      trace_session_stats(tracer, local.stats(), before);
      tracer.count("tiling.searches",
                   static_cast<double>(local.tiling_cache().stats().misses -
                                       cache_before.misses));
      const std::string json = tracer.timed("report.emit", [&] {
        return latticesched::plan_results_to_json(results, label_, step);
      });
      tracer.count("report.bytes", static_cast<double>(json.size()));
      local_rows = tracer.timed("report.parse", [&] {
        return latticesched::parse_plan_results_json(json);
      });
      try {
        (void)tracer.timed("serve.delta", [&] {
          return client.client->delta_script(client.session, script);
        });
        count_reconnect(tracer, client);
        remote = tracer.timed("serve.replan", [&] {
          return client.client->replan(client.session);
        });
        count_reconnect(tracer, client);
      } catch (const std::exception& e) {
        client.lost = true;
        error = std::string("session-serve: ") + e.what();
      }
      tracer.count("serve.bytes",
                   static_cast<double>(script.size() + json.size()));
      tracer.count("service.items", 1);
    }
    count_search_nodes(tracer, missed);
    if (!error.empty()) return error;
    client.last = remote;
    OpOutcome out;
    check_rows(remote, client, &out);
    if (out.ok && !same_rows(local_rows, remote.rows)) {
      out.fail("session-serve: remote rows differ from the local replay");
    }
    return out.error;
  }

 private:
  struct Client {
    std::unique_ptr<serve::PlanClient> client;
    std::uint64_t session = 0;
    std::optional<DeltaGenerator> deltas;
    serve::ReplanOutcome last;  ///< the most recent REPLAN reply
    std::unique_ptr<PlanSession> local;  ///< traced replay's replica
    bool lost = false;  ///< a failed DELTA/REPLAN left the session unknown
  };

  Deployment fleet_deployment(const Client& client) const {
    PointVec positions;
    positions.reserve(client.deltas->fleet().size());
    for (const Cell& c : client.deltas->fleet()) {
      positions.push_back(Point{c.first, c.second});
    }
    return Deployment::uniform(std::move(positions), *prototile_);
  }

  static void count_reconnect(Tracer& tracer, const Client& client) {
    if (client.client->reconnected_during_last_request()) {
      tracer.count("serve.reconnects", 1);
    }
  }

  /// One op: the client's next DELTA, then REPLAN, timed at the client.
  OpOutcome op(Client& client, double* ms) {
    // The op's input, made outside the timed call.
    const std::string script = to_script(client.deltas->next());
    OpOutcome out;
    const Clock::time_point t0 = Clock::now();
    try {
      (void)client.client->delta_script(client.session, script);
      client.last = client.client->replan(client.session);
    } catch (const std::exception& e) {
      *ms = ms_since(t0);
      client.lost = true;
      out.fatal = true;
      out.fail(std::string("session-serve: ") + e.what());
      return out;
    }
    *ms = ms_since(t0);
    check_rows(client.last, client, &out);
    return out;
  }

  void check_rows(const serve::ReplanOutcome& outcome, const Client& client,
                  OpOutcome* out) const {
    if (outcome.sensors != client.deltas->fleet().size()) {
      out->fail("session-serve: server fleet has " +
                std::to_string(outcome.sensors) + " sensors, expected " +
                std::to_string(client.deltas->fleet().size()));
    }
    if (outcome.rows.size() != item_.backends.size()) {
      out->fail("session-serve: expected one row per backend");
    }
    for (const PlanResultRow& row : outcome.rows) {
      if (!row.ok || !row.verified || !row.collision_free) {
        out->fail("session-serve: " + row.backend +
                  " row is not a verified collision-free plan");
      }
      out->backend_seconds += row.wall_ms / 1e3;
    }
    out->best_gaps.push_back(best_gap(
        outcome.rows, [](const PlanResultRow& r) { return r.optimality_gap; }));
  }

  std::uint64_t seed_;
  BatchItem item_;
  std::vector<Cell> initial_;  ///< the grid in session sensor order
  std::optional<Prototile> prototile_;
  std::string label_;
  std::unique_ptr<serve::PlanServer> server_;
  std::array<Client, 2> clients_;
  std::size_t replayed_ = 0;
};

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the CPU it runs on.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) CPU_SET(cpu, &set);
  if (cpu < 0 || sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("cannot pin the run to one CPU");
  }
}

std::unique_ptr<Workload> make_workload(const RunOptions& options) {
  if (options.workload == "grid-250k") return std::make_unique<GridWorkload>();
  if (options.workload == "registry-sweep") {
    return std::make_unique<RegistryWorkload>(options.seed);
  }
  if (options.workload == "session-serve") {
    // Every thread of this run (client, server, connections, pool) shares
    // one CPU, so the run starts no thread before this.  With one op in
    // flight the pool gains little here (service.concurrency ~0.45 of 2),
    // while each of an op's thread hand-offs across CPUs waits for a
    // wake-up whose delay follows the host's load; on a shared VM that
    // delay set most of the run-to-run spread (see NOTES.md).
    pin_to_current_cpu();
    // Per-thread malloc arenas spare threads on different CPUs a shared
    // lock, which threads on one CPU do not need.  With them, peak RSS of
    // one seed moved between 12.4 and 14.3 MiB from run to run, with how
    // the set-ups' server threads happened to spread over arenas.
    if (mallopt(M_ARENA_MAX, 1) != 1) {
      throw std::runtime_error("cannot limit malloc to one arena");
    }
    return std::make_unique<SessionWorkload>(options.seed);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// Host-noise diagnostics of one run (not metrics).
class NoiseProbe {
 public:
  NoiseProbe()
      : cpu_(read_cpu_times()), switches_(involuntary_switches()) {}
  std::string line() const {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "noise steal_share=%.4f nivcsw=%llu nproc=%zu cpus=%zu "
                  "pool=%zu",
                  steal_share(cpu_, read_cpu_times()),
                  static_cast<unsigned long long>(involuntary_switches() -
                                                  switches_),
                  online_cpus(), allowed_cpus(),
                  latticesched::parallel_threads());
    return buf;
  }

 private:
  CpuTimes cpu_;
  std::uint64_t switches_;
};

std::string metric_line(const Metric& m, const std::string& extra = "") {
  char buf[160];
  std::snprintf(buf, sizeof buf, "metric %s %.6g %s", m.name.c_str(), m.value,
                m.unit.c_str());
  return buf + extra;
}

RunReport timed_run(Workload& workload, const RunOptions& options,
                    const NoiseProbe& noise) {
  RunReport report;
  std::vector<double> setup_seconds;
  const Clock::time_point setups_start = Clock::now();
  for (int k = 0; k < kMaxSetups; ++k) {
    if (k >= kMinSetups && seconds_since(setups_start) >= kSetupSeconds) break;
    if (k > 0) workload.teardown();
    const Clock::time_point t0 = Clock::now();
    const std::string error = workload.setup();
    setup_seconds.push_back(seconds_since(t0));
    if (!error.empty()) {
      report.correct = false;
      report.lines.push_back("failure: warm-up op: " + error);
    }
  }
  const LoopStats stats = workload.loop(options.seconds);
  std::vector<std::string> failures;
  workload.final_check(&failures);
  const double peak_mib =
      static_cast<double>(latticesched::peak_rss_bytes()) / (1024.0 * 1024.0);
  workload.teardown();

  report.attempted = stats.attempted;
  report.failed = std::min<std::uint64_t>(stats.attempted,
                                          stats.failed + failures.size());
  if (!stats.first_error.empty()) {
    report.lines.push_back("failure: " + stats.first_error);
  }
  for (const std::string& f : failures) report.lines.push_back("failure: " + f);
  if (report.failed > 0) report.correct = false;

  const std::size_t n = stats.latency_ms.size();
  report.metrics = {
      {"setup_s", percentile(setup_seconds, 50), "s"},
      {"ops_per_s", static_cast<double>(stats.attempted) / stats.wall_seconds,
       "1/s"},
      {"op_ms_p50", percentile(stats.latency_ms, 50), "ms"},
      {"peak_rss_mib", peak_mib, "MiB"},
      {"ok_op_ratio",
       static_cast<double>(report.attempted - report.failed) /
           static_cast<double>(report.attempted),
       "ratio"},
      {"best_gap_mean", stats.best_gaps.mean(), "ratio"},
  };
  std::string setups = "setup_s samples:";
  for (double s : setup_seconds) setups += format(" %.4f", s);
  report.lines.push_back(setups);
  for (const Metric& m : report.metrics) {
    report.lines.push_back(metric_line(
        m, m.name == "op_ms_p50" ? " samples=" + std::to_string(n) : ""));
  }
  if (tail_supported(n, 90)) {
    report.lines.push_back(
        metric_line({"op_ms_p90", percentile(stats.latency_ms, 90), "ms"},
                    " samples=" + std::to_string(n)));
  } else {
    report.lines.push_back("op_ms_p90 not reported: " + std::to_string(n) +
                           " samples leave fewer than " +
                           std::to_string(kTailSamples) + " beyond it");
  }
  report.lines.push_back(noise.line());
  return report;
}

struct LayerMetricSpec {
  const char* name;
  const char* unit;
};

/// The per-layer metrics, in BENCHMARK.json order.  "<layer>.share" is
/// the layer's self time over the traced op time; "*_ms" is the median
/// per op of the span's summed duration; counts are means per op.
constexpr LayerMetricSpec kLayerMetrics[] = {
    {"scenario.build_ms", "ms"},
    {"scenario.index_ms", "ms"},
    {"scenario.sensors", "count"},
    {"tiling.search_ms", "ms"},
    {"tiling.searches", "count"},
    {"tiling.search_nodes", "count"},
    {"graph.build_ms", "ms"},
    {"graph.edges", "count"},
    {"planner.tiling_ms", "ms"},
    {"planner.greedy_ms", "ms"},
    {"planner.welsh-powell_ms", "ms"},
    {"planner.dsatur_ms", "ms"},
    {"planner.annealing_ms", "ms"},
    {"planner.region-greedy_ms", "ms"},
    {"planner.tdma_ms", "ms"},
    {"planner.mobile_ms", "ms"},
    {"region.seam_sensors", "count"},
    {"region.stitch_recolored", "count"},
    {"collision.verify_ms", "ms"},
    {"collision.checks", "count"},
    {"session.apply_ms", "ms"},
    {"session.replan_ms", "ms"},
    {"session.patch_ratio", "ratio"},
    {"session.warm_ratio", "ratio"},
    {"service.concurrency", "ratio"},
    {"service.items", "count"},
    {"report.emit_ms", "ms"},
    {"report.parse_ms", "ms"},
    {"report.bytes", "bytes"},
    {"serve.delta_ms", "ms"},
    {"serve.replan_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.bytes", "bytes"},
    {"serve.reconnects", "count"},
    {"trace.op_ms", "ms"},
    {"trace.untraced_op_ms", "ms"},
    {"scenario.share", "ratio"},
    {"tiling.share", "ratio"},
    {"graph.share", "ratio"},
    {"planner.share", "ratio"},
    {"collision.share", "ratio"},
    {"session.share", "ratio"},
    {"service.share", "ratio"},
    {"report.share", "ratio"},
    {"serve.share", "ratio"},
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

double value_or_zero(const std::map<std::string, double>& m,
                     const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double layer_metric(const std::string& name,
                    const std::vector<OpProfile>& ops,
                    const LoopStats& untraced) {
  if (ops.empty()) return 0.0;
  const auto median_of = [&](auto value_of) {
    std::vector<double> xs;
    for (const OpProfile& op : ops) xs.push_back(value_of(op));
    return percentile(xs, 50);
  };
  const auto total = [&](auto value_of) {
    double sum = 0.0;
    for (const OpProfile& op : ops) sum += value_of(op);
    return sum;
  };
  const auto counter_total = [&](const std::string& key) {
    return total([&](const OpProfile& op) {
      return value_or_zero(op.counters, key);
    });
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  if (name == "trace.op_ms") {
    return median_of([](const OpProfile& op) { return op.op_ms; });
  }
  if (name == "trace.untraced_op_ms") {
    return untraced.latency_ms.empty() ? 0.0
                                       : percentile(untraced.latency_ms, 50);
  }
  if (name == "service.concurrency") return untraced.concurrency.mean();
  if (name == "session.patch_ratio") {
    const double patches = counter_total("session.graph_patches");
    return ratio(patches, patches + counter_total("session.graph_builds"));
  }
  if (name == "session.warm_ratio") {
    return ratio(counter_total("session.warm_greedy"),
                 counter_total("session.replans"));
  }
  if (name == "serve.overhead_ms") {
    // The remote op minus the replica's apply, replan (which verifies,
    // like the server's), emit and parse: the wire's share.
    return median_of([](const OpProfile& op) {
      const auto span = [&](const char* s) {
        return value_or_zero(op.span_ms, s);
      };
      if (span("serve.delta") == 0.0) return 0.0;
      return span("serve.delta") + span("serve.replan") -
             (span("session.apply") + span("session.replan") +
              span("report.emit") + span("report.parse"));
    });
  }
  if (ends_with(name, ".share")) {
    const std::string layer = name.substr(0, name.size() - 6);
    return ratio(total([&](const OpProfile& op) {
                   return value_or_zero(op.layer_self_ms, layer);
                 }),
                 total([](const OpProfile& op) { return op.op_ms; }));
  }
  if (ends_with(name, "_ms")) {
    const std::string span = name.substr(0, name.size() - 3);
    return median_of([&](const OpProfile& op) {
      return value_or_zero(op.span_ms, span);
    });
  }
  return counter_total(name) / static_cast<double>(ops.size());
}

RunReport traced_run(Workload& workload, const RunOptions& options,
                     const NoiseProbe& noise) {
  RunReport report;
  const std::string setup_error = workload.setup();
  if (!setup_error.empty()) {
    report.correct = false;
    report.lines.push_back("failure: warm-up op: " + setup_error);
  }
  const LoopStats untraced = workload.loop(options.seconds * kUntracedShare);
  workload.begin_replay();
  Tracer tracer;
  std::uint64_t replays = 0;
  std::uint64_t replay_failed = 0;
  const Clock::time_point start = Clock::now();
  const double budget = options.seconds * (1.0 - kUntracedShare);
  do {
    ++replays;
    const std::string error = workload.replay_op(tracer);
    if (!error.empty()) {
      if (replay_failed++ == 0) report.lines.push_back("failure: " + error);
    }
  } while (seconds_since(start) < budget || replays < 2);
  std::vector<std::string> failures;
  workload.final_check(&failures);
  workload.teardown();

  report.attempted = untraced.attempted + replays;
  report.failed = std::min<std::uint64_t>(
      report.attempted, untraced.failed + replay_failed + failures.size());
  if (!untraced.first_error.empty()) {
    report.lines.push_back("failure: " + untraced.first_error);
  }
  for (const std::string& f : failures) report.lines.push_back("failure: " + f);
  if (report.failed > 0) report.correct = false;

  const std::vector<OpProfile> ops =
      profile_ops(tracer.spans(), tracer.counters());
  for (const LayerMetricSpec& spec : kLayerMetrics) {
    report.metrics.push_back(
        {spec.name, layer_metric(spec.name, ops, untraced), spec.unit});
  }

  // The per-layer table: each layer's self-time share, then its metrics.
  const auto metric = [&](const std::string& name) {
    for (const Metric& m : report.metrics) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  report.lines.push_back("per-layer self time per op (" +
                         std::to_string(ops.size()) + " replayed ops):");
  for (const char* layer : {"scenario", "tiling", "graph", "planner", "region",
                            "collision", "session", "service", "report",
                            "serve"}) {
    std::string line = std::string("  ") + layer;
    line.resize(14, ' ');
    if (std::string(layer) == "region") {
      line += "(inside planner.region-greedy and session.replan)";
    } else {
      double self_ms = 0.0;
      for (const OpProfile& op : ops) {
        self_ms += value_or_zero(op.layer_self_ms, layer);
      }
      line += format("self %9.3f ms/op", self_ms / static_cast<double>(
                                                       std::max<std::size_t>(
                                                           ops.size(), 1))) +
              format("  share %6.2f%% ",
                     100.0 * metric(std::string(layer) + ".share"));
    }
    for (const Metric& m : report.metrics) {
      if (layer_of(m.name) != layer || ends_with(m.name, ".share")) continue;
      line += " " + m.name + "=" + format("%.6g", m.value);
    }
    report.lines.push_back(line);
  }
  const double traced_ms = metric("trace.op_ms");
  const double untraced_ms = metric("trace.untraced_op_ms");
  report.lines.push_back(
      "trace: traced op " + format("%.3f", traced_ms) + " ms (median of " +
      std::to_string(ops.size()) + ") vs untraced op_ms_p50 " +
      format("%.3f", untraced_ms) + " ms (" +
      std::to_string(untraced.latency_ms.size()) + " ops): overhead " +
      format("%+.1f%%", 100.0 * (traced_ms / untraced_ms - 1.0)) +
      " (tracing + serial replay)");
  for (const Metric& m : report.metrics) report.lines.push_back(metric_line(m));
  report.lines.push_back(noise.line());

  if (!options.spans_path.empty()) {
    std::ofstream out(options.spans_path);
    out << tracer.to_json();
    if (!out) {
      throw std::runtime_error("cannot write spans to " + options.spans_path);
    }
    report.lines.push_back("spans written to " + options.spans_path);
  }
  return report;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"grid-250k", "registry-sweep",
                                                 "session-serve"};
  return names;
}

RunReport run_workload(const RunOptions& options) {
  latticesched::set_parallel_threads(kPoolThreads);
  const NoiseProbe noise;
  const std::unique_ptr<Workload> workload = make_workload(options);
  return options.trace ? traced_run(*workload, options, noise)
                       : timed_run(*workload, options, noise);
}

}  // namespace perfbench
