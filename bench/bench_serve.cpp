// Planning-server latency benchmarks — the BENCH_serve.json
// trajectory.
//
// The report section measures the REPLAN round-trip on warm server
// sessions (session open, first replan done, every later replan
// preceded by one delta so the work is real, not a memo hit) at 1, 8
// and 64 concurrent sessions, against the in-process floor: a local
// PlanSession driven through the identical delta/replan cycle with no
// wire in the way.  Records land in machine-readable BENCH_serve.json
// (path override: LATTICESCHED_BENCH_SERVE_JSON; CI artifact):
//
//   inprocess baseline   PlanSession::replan() after apply() — the
//                        compute floor a remote session cannot beat
//   serve 1 session      one client, one warm session: wire + framing
//                        overhead over the floor
//   serve 8 sessions     the acceptance-bar concurrency: 8 clients
//                        replanning simultaneously over the shared
//                        fork-join pool and TilingCache
//   serve 64 sessions    oversubscribed: more sessions than cores,
//                        queueing shows up in the p99
//
// Latencies are client-observed wall times per replan; p50/p99 come
// from SampleSet (exact nearest-rank over every sample).
#include "bench_common.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/plan_service.hpp"
#include "core/plan_session.hpp"
#include "core/scenario.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace latticesched {
namespace {

/// Delta/replan cycles measured per session (after the warming replan).
constexpr int kCyclesPerSession = 25;

struct ServeRecord {
  std::string name;
  std::uint64_t sessions = 0;
  std::uint64_t replans = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
};

std::vector<ServeRecord>& records() {
  static std::vector<ServeRecord> r;
  return r;
}

void write_bench_json() {
  const char* env = std::getenv("LATTICESCHED_BENCH_SERVE_JSON");
  const std::string path = env != nullptr ? env : "BENCH_serve.json";
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  os << "{\n  \"benchmarks\": [\n";
  const auto& rs = records();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"sessions\": %llu, "
                  "\"replans\": %llu, \"p50_ms\": %.4f, \"p99_ms\": "
                  "%.4f, \"mean_ms\": %.4f}%s\n",
                  rs[i].name.c_str(),
                  static_cast<unsigned long long>(rs[i].sessions),
                  static_cast<unsigned long long>(rs[i].replans),
                  rs[i].p50_ms, rs[i].p99_ms, rs[i].mean_ms,
                  i + 1 < rs.size() ? "," : "");
    os << buf;
  }
  os << "  ]\n}\n";
  std::printf("\nwrote %zu benchmark records to %s\n", rs.size(),
              path.c_str());
}

/// The session workload: a static grid, greedy backend, verification
/// off — small enough that the wire overhead is visible next to the
/// planning work instead of drowned by it.
BatchItem warm_item() {
  BatchItem item;
  item.query.scenario = "grid";
  item.query.params.n = 12;
  item.backends = {"greedy"};
  item.verify = false;
  return item;
}

/// Cycle `i`'s mutation: sensor (0, 0) oscillates out of and back into
/// the fleet, so every replan follows a real greedy-table repair (the
/// greedy-only session holds no conflict graph).  The server shifts
/// `step 1` past the session's last step, so the same script works every
/// cycle.
std::string cycle_script(int i) {
  return i % 2 == 0 ? std::string("step 1\nremove 0 0\n")
                    : std::string("step 1\nadd 0 0 r 1\n");
}

ServeRecord summarize(const std::string& name, std::uint64_t sessions,
                      const SampleSet& lat) {
  ServeRecord rec;
  rec.name = name;
  rec.sessions = sessions;
  rec.replans = lat.count();
  rec.p50_ms = lat.percentile(50.0);
  rec.p99_ms = lat.percentile(99.0);
  rec.mean_ms = lat.mean();
  std::printf("%-22s %4llu replan(s): p50 %8.3fms  p99 %8.3fms  mean "
              "%8.3fms\n",
              name.c_str(), static_cast<unsigned long long>(rec.replans),
              rec.p50_ms, rec.p99_ms, rec.mean_ms);
  return rec;
}

/// The in-process floor: the same grid, the same oscillating delta,
/// PlanSession::replan() timed directly.
ServeRecord inprocess_baseline() {
  const BatchItem item = warm_item();
  const ScenarioInstance inst = ScenarioRegistry::global().build(
      item.query.scenario, item.query.params);
  SessionConfig config;
  config.backends = item.backends;
  config.verify = item.verify;
  config.channels = inst.channels;
  PlanSession session(inst.deployment, config);
  (void)session.replan();  // warm, like the remote sessions
  SampleSet lat;
  for (int i = 0; i < kCyclesPerSession; ++i) {
    const MutationTrace trace = parse_mutation_script(cycle_script(i));
    session.apply(trace.steps.front().delta);
    const auto t0 = std::chrono::steady_clock::now();
    (void)session.replan();
    lat.add(std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count());
  }
  return summarize("inprocess_baseline", 1, lat);
}

/// `sessions` clients, one warm session each, replanning concurrently
/// against one PlanServer.  Latency is the client-observed REPLAN
/// round-trip.
ServeRecord serve_level(serve::PlanServer& server, std::uint64_t sessions) {
  SampleSet lat;
  std::mutex mu;
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (std::uint64_t c = 0; c < sessions; ++c) {
    threads.emplace_back([&server, &lat, &mu] {
      serve::ClientConfig config;
      config.port = server.port();
      serve::PlanClient client(config);
      const serve::OpenInfo info = client.open(warm_item());
      (void)client.replan(info.session);  // warm
      std::vector<double> samples;
      samples.reserve(kCyclesPerSession);
      for (int i = 0; i < kCyclesPerSession; ++i) {
        (void)client.delta_script(info.session, cycle_script(i));
        const auto t0 = std::chrono::steady_clock::now();
        (void)client.replan(info.session);
        samples.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
      }
      (void)client.close_session(info.session);
      std::lock_guard<std::mutex> lock(mu);
      for (double s : samples) lat.add(s);
    });
  }
  for (std::thread& t : threads) t.join();
  return records().emplace_back(summarize(
      "serve_" + std::to_string(sessions) + "_sessions", sessions, lat));
}

void report() {
  bench::section(
      "Planning server: warm-session REPLAN latency, 1/8/64 concurrent "
      "sessions vs the in-process floor");

  records().push_back(inprocess_baseline());

  serve::PlanServer server{serve::ServerConfig{}};
  server.start();
  for (const std::uint64_t sessions :
       {std::uint64_t{1}, std::uint64_t{8}, std::uint64_t{64}}) {
    (void)serve_level(server, sessions);
  }
  const serve::PlanServer::Stats stats = server.stats();
  std::printf("server totals: %llu session(s) opened, %llu closed, %llu "
              "still open\n",
              static_cast<unsigned long long>(stats.sessions_opened),
              static_cast<unsigned long long>(stats.sessions_closed),
              static_cast<unsigned long long>(stats.open_sessions));
  server.stop();

  write_bench_json();
}

void BM_ServeReplanRoundtrip(benchmark::State& state) {
  // One warm session over loopback; each iteration is one delta + one
  // replan round-trip, the steady-state unit of a long-lived client.
  static serve::PlanServer* server = [] {
    auto* s = new serve::PlanServer{serve::ServerConfig{}};
    s->start();
    return s;
  }();
  serve::ClientConfig config;
  config.port = server->port();
  serve::PlanClient client(config);
  const serve::OpenInfo info = client.open(warm_item());
  (void)client.replan(info.session);
  int i = 0;
  for (auto _ : state) {
    (void)client.delta_script(info.session, cycle_script(i++));
    benchmark::DoNotOptimize(client.replan(info.session));
  }
  (void)client.close_session(info.session);
}
BENCHMARK(BM_ServeReplanRoundtrip);

}  // namespace
}  // namespace latticesched

REPRODUCTION_MAIN(latticesched::report)
