// The TCP planning server (src/serve), end to end and in-process:
// endpoint/flag parsing, the serve fault-plan grammar, and — the
// acceptance bar of the subsystem — N concurrent client sessions whose
// replan results are byte-identical to serial local PlanSession runs,
// including under a drop-connection fault plan with zero sessions lost
// server-side.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/plan_service.hpp"
#include "core/plan_session.hpp"
#include "core/report.hpp"
#include "dist/faults.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/tcp.hpp"
#include "util/cli.hpp"

namespace latticesched {
namespace {

using serve::ClientConfig;
using serve::PlanClient;
using serve::PlanServer;
using serve::ServerConfig;

// --- endpoint / flag parsing ----------------------------------------------

TEST(ParseHostPort, AcceptsHostPortForms) {
  const serve::HostPort a = serve::parse_host_port("example.com:9000");
  EXPECT_EQ(a.host, "example.com");
  EXPECT_EQ(a.port, 9000);
  const serve::HostPort b = serve::parse_host_port("10.1.2.3:65535");
  EXPECT_EQ(b.host, "10.1.2.3");
  EXPECT_EQ(b.port, 65535);
  // Empty host = loopback, so ":9000" works.
  const serve::HostPort c = serve::parse_host_port(":9000");
  EXPECT_EQ(c.host, "127.0.0.1");
  EXPECT_EQ(c.port, 9000);
}

TEST(ParseHostPort, RejectsMalformedSpecs) {
  EXPECT_THROW((void)serve::parse_host_port("no-colon"),
               std::invalid_argument);
  EXPECT_THROW((void)serve::parse_host_port("host:"), std::invalid_argument);
  EXPECT_THROW((void)serve::parse_host_port("host:nine"),
               std::invalid_argument);
  EXPECT_THROW((void)serve::parse_host_port("host:0"), std::invalid_argument);
  EXPECT_THROW((void)serve::parse_host_port("host:65536"),
               std::invalid_argument);
  EXPECT_THROW((void)serve::parse_host_port("host:-1"),
               std::invalid_argument);
}

TEST(ServeFlags, PortRangeAndTypoHintsJoinTheFlagError) {
  CliParser cli("test");
  cli.add_int_flag("port", 0, 0, 65535, "tcp port");
  cli.add_flag("connect", "", "host:port");
  {
    // Out-of-range --port and an unknown flag surface in ONE message,
    // with a typo hint for the near-miss.
    const char* argv[] = {"prog", "--port", "70000", "--conect", "x:1"};
    try {
      cli.parse(5, argv);
      FAIL() << "expected a joined flag error";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--conect"), std::string::npos) << what;
      EXPECT_NE(what.find("did you mean --connect?"), std::string::npos)
          << what;
      EXPECT_NE(what.find("--port: must be <= 65535"), std::string::npos)
          << what;
    }
  }
  {
    CliParser cli2("test");
    cli2.add_int_flag("port", 0, 0, 65535, "tcp port");
    const char* argv[] = {"prog", "--port", "-1"};
    EXPECT_THROW(cli2.parse(3, argv), std::invalid_argument);
  }
}

// --- serve fault-plan grammar ---------------------------------------------

TEST(ServeFaults, GrammarParsesScopesAndRoundTrips) {
  const dist::FaultPlan plan = dist::FaultPlan::parse(
      "serve:drop-connection:after-frames=2:gens=3;"
      "serve:delay-accept-ms=40:gens=1;worker=0:crash:after-frames=1");
  EXPECT_TRUE(plan.has_serve_faults());
  // Round-trip through the spec text.
  const dist::FaultPlan again = dist::FaultPlan::parse(plan.to_spec());
  EXPECT_EQ(again.to_spec(), plan.to_spec());

  // for_worker must NEVER forward serve kinds to worker processes.
  const dist::FaultPlan w0 = plan.for_worker(0, 0);
  EXPECT_FALSE(w0.has_serve_faults());
  EXPECT_FALSE(w0.actions.empty());  // the crash action survives

  // for_connection scopes by accept order: gens=3 covers connections
  // 0..2, and the delay-accept action only connection 0.
  EXPECT_EQ(plan.for_connection(0).actions.size(), 2u);
  EXPECT_EQ(plan.for_connection(2).actions.size(), 1u);
  EXPECT_EQ(plan.for_connection(3).actions.size(), 0u);
}

// --- live server: correctness under concurrency and faults ----------------

std::string normalize_wall(std::string json) {
  for (const std::string needle : {"\"wall_ms\": ", "\"wall_seconds\": "}) {
    std::size_t pos = 0;
    while ((pos = json.find(needle, pos)) != std::string::npos) {
      pos += needle.size();
      std::size_t end = pos;
      while (end < json.size() && json[end] != ',' && json[end] != '}' &&
             json[end] != '\n') {
        ++end;
      }
      json.replace(pos, end - pos, "0");
      ++pos;
    }
  }
  return json;
}

/// Cache/search counters depend on warmth and sharing (the server's one
/// cache serves every client), not on the answer; blank them too.
std::string normalize_volatile(std::string json) {
  json = normalize_wall(std::move(json));
  for (const std::string needle : {"\"cache\": {", "\"search\": {"}) {
    const std::size_t pos = json.find(needle);
    if (pos != std::string::npos) {
      const std::size_t end = json.find('}', pos);
      json.replace(pos, end - pos + 1, needle + "0}");
    }
  }
  return json;
}

std::vector<BatchItem> items_for_client(std::size_t client) {
  // Distinct work per client: a dynamic grid-failures trace (seed and
  // size vary) plus a static item, all on the deterministic backends.
  std::vector<BatchItem> items;
  BatchItem dynamic;
  dynamic.query.scenario = "grid-failures";
  dynamic.query.params.n = 6 + static_cast<std::int64_t>(client % 3);
  dynamic.query.params.seed = 11 + client;
  dynamic.query.params.steps = 2 + static_cast<std::int64_t>(client % 2);
  dynamic.backends = {"greedy", "dsatur"};
  items.push_back(dynamic);
  BatchItem fixed;
  fixed.query.scenario = client % 2 == 0 ? "grid" : "hex";
  fixed.query.params.n = 7;
  fixed.backends = {"greedy", "tdma"};
  items.push_back(fixed);
  return items;
}

TEST(PlanServe, ConcurrentSessionsMatchSerialRunsByteForByte) {
  PlanServer server{ServerConfig{}};
  server.start();
  constexpr std::size_t kClients = 8;
  std::vector<std::string> remote(kClients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientConfig config;
      config.port = server.port();
      PlanClient client(config);
      remote[c] = batch_report_to_json(client.run_items(items_for_client(c)));
    });
  }
  for (std::thread& t : threads) t.join();
  server.stop();

  for (std::size_t c = 0; c < kClients; ++c) {
    // A fresh service per comparison: result bytes must not depend on
    // cache warmth, local or remote.
    PlanService service;
    const std::string local =
        batch_report_to_json(service.run(items_for_client(c)));
    EXPECT_EQ(normalize_volatile(remote[c]), normalize_volatile(local))
        << "client " << c;
  }
  const PlanServer::Stats stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, kClients * 2);
  EXPECT_EQ(stats.sessions_closed, kClients * 2);
  EXPECT_EQ(stats.open_sessions, 0u);
}

TEST(PlanServe, RemoteAutoItemReportsTheLocalTuningCounters) {
  // One client on a fresh server tunes and searches exactly what a
  // fresh local service does, and the CLOSE stats carry the counters
  // back.  figure5 searches its tiling while the scenario builds (at
  // OPEN, server side).  Not part of the concurrent test above: clients
  // sharing one tune cache split its counters by who ran first.
  BatchItem item;
  item.query.scenario = "grid";
  item.query.params.n = 8;
  item.backends = {"auto"};
  item.tune_trials = 4;
  BatchItem figure5 = item;
  figure5.query.scenario = "figure5";
  const std::vector<BatchItem> items = {item, figure5};

  PlanServer server{ServerConfig{}};
  server.start();
  ClientConfig config;
  config.port = server.port();
  PlanClient client(config);
  const BatchReport remote = client.run_items(items);
  server.stop();

  PlanService service;
  const BatchReport local = service.run(items);
  ASSERT_TRUE(local.all_ok());
  ASSERT_TRUE(remote.all_ok());
  EXPECT_EQ(local.counters.tune_searches, 2u);
  EXPECT_EQ(local.counters.tune_trials_run, 8u);
  EXPECT_EQ(remote.counters.tune_hits, local.counters.tune_hits);
  EXPECT_EQ(remote.counters.tune_misses, local.counters.tune_misses);
  EXPECT_EQ(remote.counters.tune_searches, local.counters.tune_searches);
  EXPECT_EQ(remote.counters.tune_trials_run, local.counters.tune_trials_run);
  EXPECT_EQ(remote.counters.cache_hits, local.counters.cache_hits);
  EXPECT_EQ(remote.counters.cache_misses, local.counters.cache_misses);
}

TEST(PlanServe, CloseBodyRoundTripsSessionStatsAndCounters) {
  serve::SessionWireStats stats;
  stats.session.replans = 1;
  stats.session.deltas = 2;
  stats.session.graph_builds = 3;
  stats.session.warm_greedy = 5;
  stats.session.stitch_recolored = 6;
  stats.counters.cache_misses = 7;
  stats.counters.tune_trials_run = 9;
  const std::string body = serve::session_stats_to_json(stats);
  // The batch-report footer's groups, then the session's own stats:
  // exactly these five, the repair count under the wire key "recolored".
  EXPECT_NE(body.find("  \"cache\": {\"hits\": 0, \"misses\": 7},\n"),
            std::string::npos);
  EXPECT_NE(body.find("  \"session\": {\"replans\": 1, \"deltas\": 2, "
                      "\"graph_builds\": 3, \"warm_greedy\": 5, "
                      "\"recolored\": 6}\n"),
            std::string::npos)
      << body;
  const serve::SessionWireStats parsed =
      serve::session_stats_from_json(body);
  EXPECT_EQ(parsed.session.replans, 1u);
  EXPECT_EQ(parsed.session.deltas, 2u);
  EXPECT_EQ(parsed.session.graph_builds, 3u);
  EXPECT_EQ(parsed.session.warm_greedy, 5u);
  EXPECT_EQ(parsed.session.stitch_recolored, 6u);
  EXPECT_EQ(counters_to_json(parsed.counters),
            counters_to_json(stats.counters));
  EXPECT_THROW((void)serve::session_stats_from_json("{}"),
               std::invalid_argument);
}

TEST(PlanServe, SurvivesDropConnectionFaultsWithZeroLostSessions) {
  // The first four accepted connections each get hard-dropped before
  // their third outbound frame — mid-session, response eaten.  The
  // client reconnects and retries; idempotent OPEN/DELTA replay means
  // the final report is still byte-identical to the serial run.
  ServerConfig config;
  config.fault_spec = "serve:drop-connection:after-frames=2:gens=4";
  PlanServer server{config};
  server.start();
  ClientConfig cc;
  cc.port = server.port();
  cc.max_reconnects = 8;
  PlanClient client(cc);
  const std::vector<BatchItem> items = items_for_client(1);
  const BatchReport report = client.run_items(items);
  server.stop();

  EXPECT_TRUE(report.all_ok());
  PlanService service;
  EXPECT_EQ(normalize_volatile(batch_report_to_json(report)),
            normalize_volatile(batch_report_to_json(service.run(items))));

  const PlanServer::Stats stats = server.stats();
  EXPECT_GE(stats.connections_dropped, 1u);
  // Zero lost sessions: every session opened was cleanly closed even
  // though connections died under it.
  EXPECT_EQ(stats.sessions_opened, stats.sessions_closed);
  EXPECT_EQ(stats.open_sessions, 0u);
}

TEST(PlanServe, DeltaScriptSessionMatchesLocalPlanSession) {
  PlanServer server{ServerConfig{}};
  server.start();
  ClientConfig cc;
  cc.port = server.port();
  PlanClient client(cc);

  BatchItem item;
  item.query.scenario = "grid";
  item.query.params.n = 6;
  item.backends = {"greedy", "dsatur"};
  const serve::OpenInfo info = client.open(item);
  EXPECT_EQ(info.pending, 0u);
  const std::string script = "step 1\nremove 0 0\nadd 7 7 r 2\n";
  const serve::DeltaInfo delta = client.delta_script(info.session, script);
  EXPECT_EQ(delta.step, 1u);
  const serve::ReplanOutcome remote = client.replan(info.session);
  const serve::SessionWireStats stats = client.close_session(info.session);
  EXPECT_EQ(stats.session.replans, 1u);
  EXPECT_EQ(stats.session.deltas, 1u);
  server.stop();

  // The same deployment driven through a local PlanSession.
  ScenarioInstance instance =
      ScenarioRegistry::global().build("grid", item.query.params);
  SessionConfig sc;
  sc.backends = item.backends;
  PlanSession session(std::move(instance.deployment), sc);
  const MutationTrace trace = parse_mutation_script(script);
  for (const MutationStep& step : trace.steps) session.apply(step.delta);
  const std::vector<PlanResult> local = session.replan();

  std::vector<PlanResult> remote_results;
  for (const PlanResultRow& row : remote.rows) {
    remote_results.push_back(result_from_row(row));
  }
  EXPECT_EQ(normalize_wall(plan_results_to_json(remote_results,
                                                instance.label, 1)),
            normalize_wall(plan_results_to_json(local, instance.label, 1)));
}

TEST(PlanServe, SubscribersReceiveReplanEvents) {
  PlanServer server{ServerConfig{}};
  server.start();
  ClientConfig cc;
  cc.port = server.port();
  PlanClient watcher(cc);
  PlanClient driver(cc);

  BatchItem item;
  item.query.scenario = "grid";
  item.query.params.n = 5;
  item.backends = {"greedy"};
  const serve::OpenInfo info = driver.open(item);
  watcher.subscribe(info.session);
  const serve::ReplanOutcome direct = driver.replan(info.session);

  serve::ReplanOutcome event;
  ASSERT_TRUE(watcher.next_event(&event, 10000));
  EXPECT_EQ(event.session, info.session);
  EXPECT_EQ(event.step, direct.step);
  ASSERT_EQ(event.rows.size(), direct.rows.size());
  for (std::size_t i = 0; i < event.rows.size(); ++i) {
    EXPECT_EQ(event.rows[i].backend, direct.rows[i].backend);
    EXPECT_EQ(event.rows[i].period, direct.rows[i].period);
    EXPECT_EQ(event.rows[i].collision_free, direct.rows[i].collision_free);
  }
  (void)driver.close_session(info.session);
  server.stop();
  EXPECT_GE(server.stats().events_pushed, 1u);
}

TEST(PlanServe, DuplicateDeltaSeqReplaysInsteadOfDoubleApplying) {
  PlanServer server{ServerConfig{}};
  server.start();
  ClientConfig cc;
  cc.port = server.port();
  PlanClient client(cc);

  BatchItem item;
  item.query.scenario = "grid";
  item.query.params.n = 5;
  item.backends = {"greedy"};
  const serve::OpenInfo info = client.open(item);
  const std::string delta_body =
      std::to_string(info.session) + " 0\nstep 1\nremove 0 0\n";
  const dist::WireMessage first = client.request({"DELTA", delta_body});
  ASSERT_EQ(first.verb, "OK");
  // The retry a reconnecting client would send: same seq, same script.
  const dist::WireMessage replay = client.request({"DELTA", delta_body});
  ASSERT_EQ(replay.verb, "OK");
  EXPECT_EQ(replay.body, first.body);
  // A stale/yet-unseen seq is refused outright.
  const dist::WireMessage bad = client.request(
      {"DELTA", std::to_string(info.session) + " 5\nstep 9\nremove 1 0\n"});
  EXPECT_EQ(bad.verb, "ERROR");

  // One remove happened, not two: 5x5 grid minus one sensor.
  const serve::ReplanOutcome result = client.replan(info.session);
  EXPECT_EQ(result.sensors, 24u);
  (void)client.close_session(info.session);
  server.stop();
}

TEST(PlanServe, AssignVerbServesCoordinatorStyleBatches) {
  // The --listen worker mode: the same listener answers the distributed
  // ASSIGN verb, so a coordinator-style client can drive this server as
  // a remote worker over TCP.
  PlanServer server{ServerConfig{}};
  server.start();
  ClientConfig cc;
  cc.port = server.port();
  PlanClient client(cc);
  const std::vector<BatchItem> items = items_for_client(3);
  const dist::WireMessage reply = client.request(
      {"ASSIGN", "42\n" + batch_items_to_json(items)});
  ASSERT_EQ(reply.verb, "RESULT");
  ASSERT_EQ(reply.body.substr(0, 3), "42\n");
  const BatchReport remote = parse_batch_report_json(reply.body.substr(3));
  server.stop();
  EXPECT_EQ(server.stats().assigns_served, 1u);

  PlanService service;
  EXPECT_EQ(normalize_volatile(batch_report_to_json(remote)),
            normalize_volatile(batch_report_to_json(service.run(items))));
}

/// A raw TCP connection to `server` with its HELLO already read.
int connect_raw(const PlanServer& server) {
  const int fd = serve::tcp_connect("127.0.0.1", server.port(), 2000);
  dist::WireMessage hello;
  EXPECT_EQ(dist::read_frame_deadline(fd, &hello, 5000),
            dist::WireIoStatus::kOk);
  EXPECT_EQ(hello.verb, "HELLO");
  return fd;
}

TEST(PlanServe, FrameSlowerThanAReadSliceIsAnswered) {
  // A PING whose bytes straddle a 300 ms pause: the reader waits without
  // a deadline, so a slow peer delays a frame but never tears it.
  PlanServer server{ServerConfig{}};
  server.start();
  const int fd = connect_raw(server);
  const char ping[] = {5, 0, 0, 0, 'P', 'I', 'N', 'G', '\n'};
  ASSERT_EQ(::send(fd, ping, 6, MSG_NOSIGNAL), 6);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_EQ(::send(fd, ping + 6, 3, MSG_NOSIGNAL), 3);
  dist::WireMessage reply;
  ASSERT_EQ(dist::read_frame_deadline(fd, &reply, 2000),
            dist::WireIoStatus::kOk);
  EXPECT_EQ(reply.verb, "PONG");
  ::close(fd);
  server.stop();
}

TEST(PlanServe, PingIsAnsweredWhileAnAssignPlans) {
  // The liveness contract a fleet worker's coordinator relies on: the
  // reader thread answers PING at once while the connection plans.
  PlanServer server{ServerConfig{}};
  server.start();
  const int fd = connect_raw(server);
  BatchItem item;
  // DSATUR's 6 slots here are above the greedy clique's 5, so annealing
  // searches for 5 (on a grid DSATUR meets the clique and annealing
  // returns at once).
  item.query.scenario = "random-subset";
  item.query.params.n = 12;
  item.backends = {"annealing"};
  item.sa.max_iters = 10'000'000;  // plans for a few hundred ms
  ASSERT_EQ(dist::write_frame_deadline(
                fd, {"ASSIGN", "5\n" + batch_items_to_json({item})}, 2000),
            dist::WireIoStatus::kOk);
  ASSERT_EQ(dist::write_frame_deadline(fd, {"PING", ""}, 2000),
            dist::WireIoStatus::kOk);
  dist::WireMessage reply;
  ASSERT_EQ(dist::read_frame_deadline(fd, &reply, 60000),
            dist::WireIoStatus::kOk);
  EXPECT_EQ(reply.verb, "PONG");
  ASSERT_EQ(dist::read_frame_deadline(fd, &reply, 60000),
            dist::WireIoStatus::kOk);
  EXPECT_EQ(reply.verb, "RESULT");
  ::close(fd);
  server.stop();
}

std::size_t open_fd_count() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(PlanServe, FinishedConnectionsReleaseTheirFds) {
  // A connection's fd closes when its loop ends, not at stop(): a
  // long-lived server must not run out of descriptors.
  PlanServer server{ServerConfig{}};
  server.start();
  const std::size_t baseline = open_fd_count();
  for (int i = 0; i < 50; ++i) ::close(connect_raw(server));
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (open_fd_count() > baseline + 2 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(open_fd_count(), baseline + 2);
  server.stop();
}

TEST(PlanServe, StopIsGracefulAndIdempotent) {
  PlanServer server{ServerConfig{}};
  server.start();
  ClientConfig cc;
  cc.port = server.port();
  PlanClient client(cc);
  BatchItem item;
  item.query.scenario = "grid";
  item.query.params.n = 4;
  item.backends = {"greedy"};
  const serve::OpenInfo info = client.open(item);
  server.stop();
  server.stop();  // idempotent
  // The un-closed session is still accounted for — preserved, not lost.
  const PlanServer::Stats stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.sessions_closed, 0u);
  EXPECT_EQ(stats.open_sessions, 1u);
  EXPECT_GT(info.session, 0u);
}

}  // namespace
}  // namespace latticesched
