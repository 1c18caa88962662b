// latticesched — the batch planning driver.
//
// Scenarios come from the scenario library (core/scenario.hpp) and run
// through the batch planning service (core/plan_service.hpp): every
// (scenario, backend-set) pair is planned over the shared pool, torus
// searches are memoized in the service's TilingCache, and the report
// surfaces the cache hit/miss counters along with each backend's
// verified plan.
//
//   $ latticesched --list-scenarios
//   $ latticesched --list-backends
//   $ latticesched --scenario grid --n 16 --radius 1
//   $ latticesched --scenario all --format json --out report.json
//   $ latticesched --scenario grid,hex --radius 1,2,3      # sweep batch
//   $ latticesched --scenario multichannel --channels 4
//   $ latticesched --scenario cube3d --backends tiling,dsatur,tdma
//   $ latticesched --scenario all --workers 4 --cache-dir /var/cache/ls
//   $ latticesched --scenario grid-failures --steps 5      # dynamic trace
//   $ latticesched --scenario grid --script churn.txt      # scripted deltas
//
// Dynamic scenarios (grid-failures, mobile-churn, radius-degradation,
// staged-rollout) carry a mutation trace that is replayed through a
// PlanSession: step 0 plans the initial fleet, each further step
// applies the delta and replans incrementally; report rows gain a
// `step` column.  --script drives ANY scenario with a custom delta
// script (parse_mutation_script format); --steps bounds generated
// traces.  --cache-max-mb N prunes --cache-dir to N MiB after the run.
//
// Comma lists in --scenario / --n / --radius / --density expand to the
// cross-product batch, so a whole sweep is one invocation (and, thanks
// to the cache, one torus search per distinct neighborhood).
//
// --workers N (N >= 2) runs the batch through the distributed shard
// coordinator (src/dist): N `latticesched --worker` child processes,
// shards streamed over socketpairs, reports merged back into the same
// BatchReport a serial run produces.  --cache-dir persists the tiling
// cache on disk — shared by all workers and across invocations.
// --worker is the internal worker-process entry point: it serves the
// coordinator's socketpair with the planning server's connection loop.
//
// --serve runs the TCP planning server (src/serve): long-lived sessions
// over the wire protocol (dist/wire.hpp, v9), many clients multiplexed
// over one shared pool and TilingCache, stopped gracefully by
// SIGTERM/SIGINT.  --listen is the same listener worn as a remote
// worker (its ASSIGN verb serves coordinator-style batches).
// --connect host:port points this driver at such a server: every
// scenario/backend/steps flag works unchanged, the batch runs through
// server sessions, and --cache-stats reports the per-session counters
// the server sent back.
#include <csignal>
#include <cstdio>
#include <cerrno>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/plan_service.hpp"
#include "core/plan_session.hpp"
#include "core/planner.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "dist/coordinator.hpp"
#include "dist/faults.hpp"
#include "dist/process.hpp"
#include "dist/wire.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "tune/knob_space.hpp"
#include "tune/tune_cache.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace latticesched {
namespace {

std::vector<std::int64_t> int_list(const std::string& csv) {
  std::vector<std::int64_t> out;
  for (const std::string& t : split_csv_list(csv)) out.push_back(std::stoll(t));
  if (out.empty()) {
    throw std::invalid_argument("expected at least one value in '" + csv +
                                "'");
  }
  return out;
}

std::vector<double> double_list(const std::string& csv) {
  std::vector<double> out;
  for (const std::string& t : split_csv_list(csv)) out.push_back(std::stod(t));
  if (out.empty()) {
    throw std::invalid_argument("expected at least one value in '" + csv +
                                "'");
  }
  return out;
}

void result_cells(Table& t, const PlanResult& r) {
  t.cell(r.backend);
  if (r.ok) {
    t.cell(r.effective_period());
    t.cell(r.optimality_gap, 2);
    // "-" = the checker was skipped (--no-verify), not a clean bill.
    t.cell(!r.verified ? "-" : r.collision_free ? "yes" : "NO");
    t.cell(r.slot_balance, 3);
    t.cell(r.duty_cycle, 4);
    t.cell(r.wall_seconds * 1e3, 2);
    t.cell("ok");
  } else {
    t.cell(static_cast<std::int64_t>(0));
    t.cell(0.0, 2);
    t.cell("-");
    t.cell(0.0, 3);
    t.cell(0.0, 4);
    t.cell(r.wall_seconds * 1e3, 2);
    t.cell("FAILED: " + r.error);
  }
}

void print_item_table(const BatchItemReport& item) {
  if (!item.built) {
    std::printf("scenario %s: FAILED to build: %s\n\n",
                item.scenario.c_str(), item.error.c_str());
    return;
  }
  std::printf("scenario %s: %zu sensors", item.label.c_str(), item.sensors);
  if (item.channels > 1) std::printf(", %u channels", item.channels);
  if (!item.steps.empty()) {
    std::printf(", %zu step(s)", item.steps.size());
  }
  if (!item.results.empty()) {
    std::printf(", lower bound %u slots", item.results.front().lower_bound);
  }
  std::printf("\n\n");
  if (!item.steps.empty()) {
    // Dynamic item: one table over all steps, rows tagged by step and
    // the fleet size the step planned.
    Table t({"step", "sensors", "backend", "period", "gap",
             "collision-free", "balance", "duty cycle", "wall ms",
             "status"});
    for (const BatchStepReport& step : item.steps) {
      for (const PlanResult& r : step.results) {
        t.begin_row();
        t.cell(static_cast<std::int64_t>(step.step));
        t.cell(static_cast<std::int64_t>(step.sensors));
        result_cells(t, r);
      }
    }
    t.print(std::cout);
    std::printf("\n");
    return;
  }
  Table t({"backend", "period", "gap", "collision-free", "balance",
           "duty cycle", "wall ms", "status"});
  for (const PlanResult& r : item.results) {
    t.begin_row();
    result_cells(t, r);
  }
  t.print(std::cout);
  std::printf("\n");
}

// Self-pipe for SIGTERM/SIGINT: the handler writes one byte, the serve
// loop blocks on the read end — async-signal-safe graceful shutdown.
int g_stop_pipe[2] = {-1, -1};

void stop_signal_handler(int) {
  const char byte = 'x';
  (void)!::write(g_stop_pipe[1], &byte, 1);
}

/// `latticesched --serve` / `--listen`: run a PlanServer until a stop
/// signal, then shut down gracefully and report what was served.
int run_serve(const CliParser& cli) {
  serve::ServerConfig config;
  config.host = cli.get_string("host");
  config.port = static_cast<std::uint16_t>(cli.get_int("port"));
  config.cache_dir = cli.get_string("cache-dir");
  config.fault_spec = cli.get_string("fault-plan");
  serve::PlanServer server(config);

  if (::pipe(g_stop_pipe) != 0) {
    std::perror("pipe");
    return 2;
  }
  struct sigaction action {};
  action.sa_handler = stop_signal_handler;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  server.start();
  std::printf("serve: listening on %s:%u (wire protocol v%d)\n",
              config.host.c_str(), server.port(), dist::kProtocolVersion);
  std::fflush(stdout);

  char byte = 0;
  while (::read(g_stop_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  server.stop();

  const serve::PlanServer::Stats stats = server.stats();
  std::printf(
      "serve: shutdown: %llu connection(s) accepted (%llu dropped by "
      "faults), %llu session(s) opened, %llu closed, %zu still open, "
      "%llu event(s) pushed, %llu assign batch(es)\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.connections_dropped),
      static_cast<unsigned long long>(stats.sessions_opened),
      static_cast<unsigned long long>(stats.sessions_closed),
      stats.open_sessions,
      static_cast<unsigned long long>(stats.events_pushed),
      static_cast<unsigned long long>(stats.assigns_served));
  if (const std::int64_t cap_mb = cli.get_int("cache-max-mb");
      cap_mb > 0 && !config.cache_dir.empty()) {
    const TilingCache::SweepStats swept = TilingCache::sweep_persist_dir(
        config.cache_dir, static_cast<std::uint64_t>(cap_mb) << 20);
    std::printf("serve: cache-gc: %zu file(s) scanned, %zu removed\n",
                swept.scanned, swept.removed);
  }
  std::fflush(stdout);
  return 0;
}

int run(int argc, char** argv) {
  CliParser cli(
      "Run deployment scenarios through the batch planning service and "
      "report verified, diagnosed plans.");
  cli.add_flag("scenario", "grid",
               "scenario name, comma list, or 'all' (see --list-scenarios)");
  cli.add_flag("list-scenarios", "false",
               "print the scenario registry with parameter docs and exit");
  cli.add_flag("n", "12", "window size (side length / diameter); comma "
               "list sweeps");
  cli.add_flag("radius", "1",
               "interference radius where applicable; comma list sweeps");
  cli.add_flag("density", "0.35",
               "occupied-cell fraction of random scatters; comma list "
               "sweeps");
  cli.add_flag("backends", "all",
               "comma-separated backend names, or 'all'");
  cli.add_int_flag("regions", 1, 1,
                   "spatial shard count for the region-greedy backend "
                   "(1 = unsharded)");
  cli.add_flag("list-backends", "false",
               "print the registered planner backends and exit");
  cli.add_int_flag("steps", 0, 0,
                   "mutation steps of dynamic scenarios (0 = scenario "
                   "default)");
  cli.add_flag("script", "",
               "drive the scenario through a PlanSession with the "
               "mutation script in this file (see docs/API.md)");
  cli.add_flag("threads", "0",
               "worker threads for the parallel layer (0 = auto)");
  cli.add_flag("format", "table", "table | csv | json");
  cli.add_flag("out", "", "also write the csv/json report to this file");
  cli.add_flag("seed", "1", "seed for randomized scenarios");
  cli.add_flag("channels", "2", "channels for the multichannel scenario");
  cli.add_flag("sa-iters", "60000", "annealing iteration budget");
  cli.add_int_flag("tune-trials", 8, 0,
                   "trial budget per tuning search of the 'auto' backend "
                   "(0 = defaults only)");
  cli.add_int_flag("tune-budget-ms", 0, 0,
                   "wall-clock budget per tuning search of the 'auto' "
                   "backend (0 = unbounded; bounded runs are not "
                   "deterministic)");
  cli.add_flag("no-verify", "false", "skip the collision checker");
  cli.add_int_flag("workers", 1, 1,
                   "worker processes for the batch (1 = in-process; >= 2 "
                   "spawns the distributed shard coordinator)");
  cli.add_flag("shard", "block",
               "shard partition strategy for --workers >= 2: block | "
               "weighted");
  cli.add_flag("cache-dir", "",
               "persist the tiling cache in this directory (shared by "
               "workers and across invocations)");
  cli.add_int_flag("cache-max-mb", 0, 0,
                   "size-capped LRU sweep of --cache-dir after the run "
                   "(0 = unbounded)");
  cli.add_flag("cache-stats", "false",
               "print the batch counter footer, also per worker "
               "(--workers) or per session (--connect)");
  cli.add_flag("worker", "false",
               "internal: run as a distributed worker process over "
               "--worker-fd");
  cli.add_int_flag("worker-fd", dist::kWorkerChannelFd, 0,
                   "internal: fd of the coordinator channel (--worker)");
  cli.add_int_flag("worker-timeout-ms", 30000, 0,
                   "per-frame deadline on every worker read/write "
                   "(--workers >= 2); a silent worker is probed, then "
                   "killed and its shards reassigned (0 = wait forever)");
  cli.add_int_flag("retries", 2, 0,
                   "respawns per worker slot before it is exhausted; when "
                   "every slot is exhausted the sweep degrades to "
                   "in-process serial execution");
  cli.add_flag("fault-plan", "",
               "internal: deterministic fault-injection spec (see "
               "docs/API.md) forwarded to workers for chaos testing");
  cli.add_flag("serve", "false",
               "run the TCP planning server on --host/--port (session "
               "verbs and worker ASSIGN; SIGTERM/SIGINT stop it "
               "gracefully)");
  cli.add_flag("listen", "false",
               "alias of --serve for remote-worker mode: the same "
               "listener serves ASSIGN batches a coordinator-style "
               "client can drive");
  cli.add_flag("host", "127.0.0.1",
               "bind address for --serve (0.0.0.0 = any interface)");
  cli.add_int_flag("port", 0, 0, 65535,
                   "TCP port for --serve (0 = ephemeral; the bound port "
                   "is printed on startup)");
  cli.add_flag("connect", "",
               "host:port of a running `latticesched --serve`; the "
               "batch runs remotely through server sessions "
               "(incompatible with --workers >= 2)");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), cli.help_text().c_str());
    return 2;
  }
  if (cli.help_requested()) {
    std::printf("%s", cli.help_text().c_str());
    return 0;
  }
  if (cli.get_bool("list-scenarios")) {
    std::printf("%s", ScenarioRegistry::global().describe().c_str());
    return 0;
  }
  if (cli.get_bool("list-backends")) {
    // One line per backend, then its tunable knobs (the same registry
    // the auto backend searches) with defaults and ranges.
    const auto print_knobs = [](const std::vector<tune::KnobSpec>& knobs) {
      for (const tune::KnobSpec& k : knobs) {
        std::printf("    %-32s default %-12g range [%g, %g]  %s\n",
                    k.name.c_str(), k.def, k.min, k.max, k.doc.c_str());
      }
    };
    for (const std::string& name : PlannerRegistry::global().names()) {
      std::printf("%s\n", name.c_str());
      print_knobs(tune::KnobSpace::global().knobs_for(name));
    }
    const std::vector<tune::KnobSpec> session_knobs =
        tune::KnobSpace::global().knobs_for("");
    if (!session_knobs.empty()) {
      std::printf("(session-level)\n");
      print_knobs(session_knobs);
    }
    return 0;
  }

  const std::int64_t threads = cli.get_int("threads");
  if (threads > 0) {
    set_parallel_threads(static_cast<std::size_t>(threads));
  }

  if (cli.get_bool("worker")) {
    // Distributed worker process: one planning server connection on the
    // coordinator's socketpair (--worker-fd), served until SHUTDOWN or
    // EOF.  A bad --cache-dir or --fault-plan is reported to the
    // coordinator in an ERROR frame.
    const int fd = static_cast<int>(cli.get_int("worker-fd"));
    serve::ServerConfig config;
    config.cache_dir = cli.get_string("cache-dir");
    config.fault_spec = cli.get_string("fault-plan");
    std::optional<serve::PlanServer> server;
    try {
      server.emplace(std::move(config));
    } catch (const std::exception& e) {
      (void)dist::write_frame(fd, {"ERROR", e.what()});
      return 1;
    }
    server->serve_fd(fd);
    return 0;
  }

  if (cli.get_bool("serve") || cli.get_bool("listen")) {
    if (!cli.get_string("connect").empty()) {
      std::fprintf(stderr, "--serve and --connect are mutually exclusive\n");
      return 2;
    }
    try {
      return run_serve(cli);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "latticesched: serve: %s\n", e.what());
      return 2;
    }
  }

  // Scenario selection (a name, a comma list, or the whole registry),
  // crossed with the swept numeric flags into one batch.
  std::vector<std::string> scenario_names;
  if (const std::string s = cli.get_string("scenario"); s == "all") {
    scenario_names = ScenarioRegistry::global().names();
  } else {
    scenario_names = split_csv_list(s);
  }
  if (scenario_names.empty()) {
    std::fprintf(stderr,
                 "--scenario names no scenario; --list-scenarios shows "
                 "the registry\n");
    return 2;
  }
  for (const std::string& name : scenario_names) {
    if (ScenarioRegistry::global().find(name) == nullptr) {
      const std::string hint =
          suggest_nearest(name, ScenarioRegistry::global().names());
      std::fprintf(stderr,
                   "unknown scenario '%s'%s%s%s; --list-scenarios shows "
                   "the registry\n",
                   name.c_str(), hint.empty() ? "" : " (did you mean '",
                   hint.c_str(), hint.empty() ? "" : "'?)");
      return 2;
    }
  }

  std::vector<BatchItem> items;
  const std::vector<std::string> backends =
      parse_backend_list(cli.get_string("backends"));
  for (const std::string& name : backends) {
    if (PlannerRegistry::global().find(name) == nullptr) {
      const std::string hint =
          suggest_nearest(name, PlannerRegistry::global().names());
      std::fprintf(stderr,
                   "unknown backend '%s'%s%s%s; --list-backends shows "
                   "the registry\n",
                   name.c_str(), hint.empty() ? "" : " (did you mean '",
                   hint.c_str(), hint.empty() ? "" : "'?)");
      return 2;
    }
  }

  // --script: read and validate the mutation script up front so a typo
  // fails before any planning starts.
  std::string trace_script;
  if (const std::string script = cli.get_string("script");
      !script.empty()) {
    std::ifstream is(script);
    if (!is) {
      std::fprintf(stderr, "cannot read --script %s\n", script.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << is.rdbuf();
    trace_script = buffer.str();
    try {
      (void)parse_mutation_script(trace_script);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--script %s: %s\n", script.c_str(), e.what());
      return 2;
    }
  }

  try {
    const std::vector<std::int64_t> all_n = int_list(cli.get_string("n"));
    const std::vector<std::int64_t> all_radii =
        int_list(cli.get_string("radius"));
    const std::vector<double> all_densities =
        double_list(cli.get_string("density"));
    for (const std::string& name : scenario_names) {
      // Sweep only the parameters this scenario declares it reads —
      // sweeping a parameter a generator ignores would plan the
      // identical instance several times over.
      const ScenarioSpec& spec = *ScenarioRegistry::global().find(name);
      const auto uses = [&spec](const char* param) {
        for (const ScenarioParamDoc& doc : spec.params) {
          if (doc.name == param) return true;
        }
        return false;
      };
      const std::vector<std::int64_t> radii =
          uses("radius") ? all_radii
                         : std::vector<std::int64_t>{all_radii.front()};
      const std::vector<double> densities =
          uses("density") ? all_densities
                          : std::vector<double>{all_densities.front()};
      for (std::int64_t n : all_n) {
        for (std::int64_t radius : radii) {
          for (double density : densities) {
            BatchItem item;
            item.query.scenario = name;
            item.query.params.n = n;
            item.query.params.radius = radius;
            item.query.params.density = density;
            item.query.params.seed =
                static_cast<std::uint64_t>(cli.get_int("seed"));
            item.query.params.channels =
                static_cast<std::uint32_t>(cli.get_int("channels"));
            item.query.params.steps = cli.get_int("steps");
            item.trace_script = trace_script;
            item.backends = backends;
            item.regions = static_cast<std::size_t>(cli.get_int("regions"));
            item.sa.max_iters =
                static_cast<std::uint64_t>(cli.get_int("sa-iters"));
            item.tune_trials =
                static_cast<std::size_t>(cli.get_int("tune-trials"));
            item.tune_budget_ms =
                static_cast<std::uint64_t>(cli.get_int("tune-budget-ms"));
            item.verify = !cli.get_bool("no-verify");
            items.push_back(std::move(item));
          }
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  const std::int64_t workers = cli.get_int("workers");
  const std::string cache_dir = cli.get_string("cache-dir");
  const std::string connect_spec = cli.get_string("connect");
  if (!connect_spec.empty() && workers >= 2) {
    std::fprintf(stderr,
                 "--connect and --workers >= 2 are mutually exclusive "
                 "(the server owns its own fan-out)\n");
    return 2;
  }
  PlanService service;
  std::optional<dist::ShardCoordinator> coordinator;
  std::optional<serve::PlanClient> client;
  BatchReport report;
  try {
    if (!connect_spec.empty()) {
      // Remote run: every item becomes a server session; the report
      // comes back with the same structure a local run produces.
      const serve::HostPort endpoint = serve::parse_host_port(connect_spec);
      serve::ClientConfig config;
      config.host = endpoint.host;
      config.port = endpoint.port;
      if (const std::int64_t ms = cli.get_int("worker-timeout-ms"); ms != 0) {
        config.io_timeout_ms = static_cast<int>(ms);
      } else {
        config.io_timeout_ms = -1;  // 0 = wait forever, like the workers
      }
      client.emplace(config);
      report = client->run_items(items);
    } else if (workers >= 2) {
      dist::CoordinatorConfig config;
      config.workers = static_cast<std::size_t>(workers);
      config.strategy = dist::parse_shard_strategy(cli.get_string("shard"));
      config.cache_dir = cache_dir;
      config.worker_exe = dist::self_exe_path(argv[0]);
      if (threads > 0) {
        config.worker_threads = static_cast<std::size_t>(threads);
      }
      config.worker_timeout_ms =
          static_cast<std::uint64_t>(cli.get_int("worker-timeout-ms"));
      config.retries = static_cast<std::size_t>(cli.get_int("retries"));
      config.backoff_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
      config.fault_plan = cli.get_string("fault-plan");
      coordinator.emplace(std::move(config));
      report = coordinator->run(items);
    } else {
      if (!cache_dir.empty()) {
        service.tiling_cache().set_persist_dir(cache_dir);
        service.tune_cache().set_persist_dir(cache_dir);
      }
      // Chaos testing of the serial path too: cache faults apply to the
      // in-process cache exactly as they do inside a worker.
      if (const std::string spec = cli.get_string("fault-plan");
          !spec.empty()) {
        const dist::FaultPlan plan = dist::FaultPlan::parse(spec);
        if (plan.has_cache_faults()) {
          service.tiling_cache().set_write_corruption_hook(
              dist::cache_corruption_hook(plan));
        }
      }
      report = service.run(items);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "latticesched: %s\n", e.what());
    return 2;
  }

  // --cache-max-mb: bound the persistent cache directory after the run
  // (size-capped LRU over the entry files; corrupt entries go first).
  if (const std::int64_t cap_mb = cli.get_int("cache-max-mb");
      cap_mb > 0 && !cache_dir.empty()) {
    const TilingCache::SweepStats swept = TilingCache::sweep_persist_dir(
        cache_dir, static_cast<std::uint64_t>(cap_mb) << 20);
    std::fprintf(stderr,
                 "cache-gc: %zu file(s) scanned, %zu removed (%zu "
                 "corrupt), %llu -> %llu bytes\n",
                 swept.scanned, swept.removed, swept.corrupt_removed,
                 static_cast<unsigned long long>(swept.bytes_before),
                 static_cast<unsigned long long>(swept.bytes_after));
  }

  const std::string format = cli.get_string("format");
  std::string serialized;
  if (format == "csv") {
    serialized = batch_report_to_csv(report);
  } else if (format == "json") {
    serialized = batch_report_to_json(report);
  } else if (format != "table") {
    std::fprintf(stderr, "unknown --format %s\n", format.c_str());
    return 2;
  }

  // --cache-stats: the batch counters through one printer, after each
  // mode's own facts — per-session replans (remote), per-worker fleet
  // state and counters (distributed), or the in-process caches' disk
  // hits and sizes.
  const auto print_cache_stats = [&](std::FILE* out) {
    if (client.has_value()) {
      for (const auto& [label, s] : client->session_stats()) {
        const std::string scope = "session " + label;
        std::fprintf(
            out,
            "cache-stats: %s: %llu replan(s), %llu delta(s), %llu "
            "region(s) replanned\n",
            scope.c_str(), static_cast<unsigned long long>(s.session.replans),
            static_cast<unsigned long long>(s.session.deltas),
            static_cast<unsigned long long>(s.session.regions_replanned));
        std::fputs(counters_to_text(s.counters, scope).c_str(), out);
      }
      std::fprintf(out, "cache-stats: server %s: %zu session(s)\n",
                   connect_spec.c_str(), client->session_stats().size());
    } else if (coordinator.has_value()) {
      for (std::size_t w = 0; w < coordinator->worker_stats().size(); ++w) {
        const dist::WorkerCacheStats& s = coordinator->worker_stats()[w];
        const std::string scope = "worker " + std::to_string(w);
        std::string notes;
        if (s.respawns > 0) {
          notes += ", " + std::to_string(s.respawns) + " respawn(s)";
        }
        if (s.failed) notes += " [FAILED]";
        if (s.timed_out) notes += " [TIMED OUT]";
        std::fprintf(out, "cache-stats: %s (pid %lld): %zu shard(s)%s\n",
                     scope.c_str(), static_cast<long long>(s.pid),
                     s.shards_completed, notes.c_str());
        std::fputs(counters_to_text(s.counters, scope).c_str(), out);
      }
      std::fprintf(out,
                   "cache-stats: fleet: %llu worker failure(s), %llu "
                   "timeout(s)%s\n",
                   static_cast<unsigned long long>(report.worker_failures),
                   static_cast<unsigned long long>(report.worker_timeouts),
                   report.degraded ? " [DEGRADED]" : "");
    } else {
      const TilingCache::Stats s = service.tiling_cache().stats();
      const tune::TuneCache::Stats t = service.tune_cache().stats();
      std::fprintf(out,
                   "cache-stats: in-process: %zu tiling entrie(s) (%llu "
                   "disk hit(s)), %llu tune entrie(s) (%llu disk hit(s))\n",
                   s.entries, static_cast<unsigned long long>(s.disk_hits),
                   static_cast<unsigned long long>(t.entries),
                   static_cast<unsigned long long>(t.disk_hits));
    }
    std::fputs(counters_to_text(report.counters).c_str(), out);
    if (const std::uint64_t rss = peak_rss_bytes(); rss > 0) {
      std::fprintf(out, "peak-rss: %.1f MiB\n",
                   static_cast<double>(rss) / (1024.0 * 1024.0));
    }
  };

  if (format == "table") {
    for (const BatchItemReport& item : report.items) print_item_table(item);
    std::printf(
        "batch: %zu scenario(s) in %.1f ms; tiling cache: %llu hit(s), "
        "%llu miss(es)\n",
        report.items.size(), report.wall_seconds * 1e3,
        static_cast<unsigned long long>(report.counters.cache_hits),
        static_cast<unsigned long long>(report.counters.cache_misses));
    if (report.worker_failures > 0) {
      std::printf("WARNING: %llu worker failure(s); shards were "
                  "reassigned\n",
                  static_cast<unsigned long long>(report.worker_failures));
    }
    if (report.worker_timeouts > 0) {
      std::printf("WARNING: %llu worker timeout(s); hung workers were "
                  "killed and their shards reassigned\n",
                  static_cast<unsigned long long>(report.worker_timeouts));
    }
    if (report.degraded) {
      std::printf("WARNING: worker fleet exhausted; remaining items "
                  "completed in-process (degraded)\n");
    }
    if (!report.quarantined_items.empty()) {
      std::printf("WARNING: %zu item(s) quarantined after repeatedly "
                  "crashing workers\n",
                  report.quarantined_items.size());
    }
    if (cli.get_bool("cache-stats")) print_cache_stats(stdout);
  } else {
    std::printf("%s", serialized.c_str());
    // Keep the machine-readable stream clean; counters also live inside
    // the JSON form.
    std::fprintf(stderr, "tiling cache: %llu hit(s), %llu miss(es)\n",
                 static_cast<unsigned long long>(report.counters.cache_hits),
                 static_cast<unsigned long long>(report.counters.cache_misses));
    if (cli.get_bool("cache-stats")) print_cache_stats(stderr);
  }
  if (const std::string out = cli.get_string("out"); !out.empty()) {
    const std::string payload =
        !serialized.empty() ? serialized : batch_report_to_csv(report);
    std::ofstream os(out);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 2;
    }
    os << payload;
    std::fprintf(stderr, "report written to %s\n", out.c_str());
  }

  return report.all_ok() ? 0 : 1;
}

}  // namespace
}  // namespace latticesched

int main(int argc, char** argv) {
  try {
    return latticesched::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "latticesched: %s\n", e.what());
    return 2;
  }
}
