// The TCP planning server: long-lived PlanSessions as the wire currency.
//
// `latticesched --serve` runs a PlanServer — many concurrent client
// connections multiplexed over the shared fork-join pool and ONE
// persistent TilingCache, so every tenant's torus searches warm every
// other tenant's.  Sessions are server-side state DECOUPLED from
// connections: a dropped connection (network fault, client crash,
// scripted serve:drop-connection) loses nothing — the client
// reconnects and keeps driving the same session id.  Replans are
// result-identical to a local PlanSession over the same deltas (the
// session IS a PlanSession; pinned by tests/test_serve.cpp).
//
// Frame schemas (wire protocol v10; every body is text, frames are the
// length-prefixed format of src/dist/wire.hpp).  On accept the server
// sends HELLO `{"protocol": <dist::kProtocolVersion>, "role":
// "server"}`; a client verifies the version before its first request.
// Client -> server verbs:
//
//   OPEN       "<token>\n" + batch_items_to_json (exactly one item).
//              Builds the scenario, opens a PlanSession on it, queues
//              the item's mutation trace (scenario-generated or
//              trace_script override) as pending steps.  A non-empty
//              token makes the OPEN idempotent: re-OPENing a token the
//              server has seen replays the original OK (a client
//              retrying after a dropped connection does not leak a
//              second session).
//              -> OK "<id>\n{"session": id, "scenario": s, "label": l,
//                 "sensors": n, "channels": c, "pending": k}"
//   DELTA      "<id> <seq>\n" + ("next" | mutation script text).
//              "next" applies the next pending trace step; a script
//              body (parse_mutation_script) applies its steps to the
//              session, timestamps shifted past the session's current
//              step.  `seq` starts at 0 per session and increments per
//              applied DELTA; repeating the PREVIOUS seq replays the
//              stored OK instead of double-applying (reconnect retry).
//              -> OK "<id>\n{"session": id, "seq": q, "step": t,
//                 "sensors": n, "pending": k}"
//   REPLAN     "<id>".  Replans the session's current deployment.
//              -> RESULT "<id>\n{"session": id, "step": t, "sensors":
//                 n}\n" + plan_results_to_json(results, label, t) —
//                 the same rows a local run serializes, and the same
//                 body is pushed as an EVENT frame to every subscriber
//                 of the session (the session-event stream).
//   SUBSCRIBE  "<id>".  Registers this connection for the session's
//              EVENT stream.  -> OK "<id>\n{"session": id,
//              "subscribed": true}"
//   CLOSE      "<id>".  Ends the session and returns its stats.
//              -> OK "<id>\n" + session_stats_to_json: the batch
//                 counters' groups, as in the batch-report footer, then
//                 "session": {"replans": r, "deltas": d, "graph_builds":
//                 g, "warm_greedy": w, "recolored": c}
//   ASSIGN     "<shard>\n" + batch_items_to_json (any item count) —
//              how every fleet worker is driven: `latticesched --worker`
//              serves its coordinator socketpair through serve_fd, and
//              a `--serve` process answers it over TCP too.
//              -> RESULT "<shard>\n" + batch_report_to_json
//   PING       -> PONG, sent at once by the connection's reader thread,
//              even while a request plans (liveness; not counted by the
//              fault injector)
//   SHUTDOWN   closes this connection (sessions survive)
//
// Any other verb answers ERROR "<message>" and LEAVES THE CONNECTION
// OPEN (a fat-fingered verb should not kill a session stream); a
// malformed frame (bad length prefix, empty verb) closes the
// connection, because a byte stream that lost framing has no resync
// point.  Per-request failures (unknown scenario, bad delta, unknown
// session id) answer ERROR with the exception text.
//
// Faults (dist/faults.hpp): every connection's counted frames pass a
// dist::WireFaultInjector.  An accepted TCP connection gets the serve
// actions scoped to it (FaultPlan::for_connection) — `drop-connection`
// hard-closes it right before a chosen outbound frame and
// `delay-accept-ms` stalls its HELLO; the `--worker` fd gets the worker
// actions the coordinator already filtered for it (crash, hang, drop,
// truncate, delay).  Dropped connections keep their sessions: zero
// sessions are lost server-side (the acceptance bar of this subsystem).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/counters.hpp"
#include "core/plan_service.hpp"
#include "core/plan_session.hpp"
#include "dist/faults.hpp"
#include "serve/tcp.hpp"

namespace latticesched::serve {

/// Per-session accounting returned by CLOSE: the PlanSession's own
/// stats plus this session's share of the batch counters.  The cache
/// and tuning share is a before/after snapshot of the shared caches
/// around the session's scenario build and each of its replans — exact
/// for a lone client, approximate (attribution may smear between
/// sessions, totals stay exact) when sessions plan concurrently.
struct SessionWireStats {
  /// A parsed value leaves the fields the CLOSE body does not carry
  /// (graph_patches, seam_sensors) at 0.
  PlanSession::Stats session;
  Counters counters;
};

/// The CLOSE body: the counters_to_json groups plus a "session" object
/// (and its parser; the client feeds the parse into --cache-stats).
std::string session_stats_to_json(const SessionWireStats& stats);
SessionWireStats session_stats_from_json(const std::string& json);

struct ServerConfig {
  std::string host = "127.0.0.1";  ///< bind address ("0.0.0.0" = any)
  std::uint16_t port = 0;          ///< 0 = ephemeral; see PlanServer::port
  std::string cache_dir;           ///< persistent TilingCache directory
  std::string fault_spec;          ///< dist::FaultPlan grammar
  /// Per-frame deadline on connection writes.  Reads wait without one;
  /// stop() wakes them by shutting each connection down.
  int io_timeout_ms = 30000;
};

class PlanServer {
 public:
  /// Validates the fault spec and cache dir eagerly (throws
  /// std::invalid_argument / std::runtime_error); the socket is not
  /// bound until start().
  explicit PlanServer(ServerConfig config);
  ~PlanServer();

  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  /// Binds the listener and launches the accept loop.  Throws
  /// std::runtime_error when the port cannot be bound.
  void start();

  /// Serves one already-connected fd (the `--worker` socketpair) on the
  /// calling thread with the same loop as an accepted connection, until
  /// SHUTDOWN, EOF or stop().  Takes ownership: the fd is closed on
  /// return.  The whole fault plan applies to it.  Needs no start().
  void serve_fd(int fd);

  /// The bound port (valid after start(); the ephemeral pick when
  /// ServerConfig::port was 0).
  std::uint16_t port() const;

  /// Graceful shutdown: stops accepting, half-closes every live
  /// connection (serve_fd's too), joins every handler thread.  Open
  /// sessions are preserved until destruction and reported via stats()
  /// — a clean client fleet closes its sessions first, so
  /// open_sessions == 0 at a clean SIGTERM.  Idempotent.
  void stop();

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_dropped = 0;  ///< by drop-connection faults
    std::uint64_t sessions_opened = 0;
    std::uint64_t sessions_closed = 0;
    std::uint64_t events_pushed = 0;   ///< EVENT frames sent to subscribers
    std::uint64_t assigns_served = 0;  ///< worker-verb batches run
    std::size_t open_sessions = 0;
  };
  Stats stats() const;

  /// The shared batch service (one TilingCache for every session and
  /// ASSIGN batch).
  PlanService& service() { return service_; }

 private:
  struct Connection;
  struct WireSession;

  void accept_loop();
  void handle_connection(std::shared_ptr<Connection> conn);
  bool handle_message(Connection& conn, const dist::WireMessage& message);

  void handle_open(Connection& conn, const std::string& body);
  void handle_delta(Connection& conn, const std::string& body);
  void handle_replan(Connection& conn, const std::string& body);
  void handle_subscribe(Connection& conn, const std::string& body);
  void handle_close(Connection& conn, const std::string& body);
  void handle_assign(Connection& conn, const std::string& body);

  std::shared_ptr<WireSession> find_session(const std::string& id_text,
                                            std::uint64_t* id);
  bool send(Connection& conn, const dist::WireMessage& message);

  ServerConfig config_;
  dist::FaultPlan fault_plan_;
  PlanService service_;

  std::unique_ptr<TcpListener> listener_;
  std::thread accept_thread_;
  std::atomic<bool> stop_{false};

  /// Live connections and their threads.  A finished connection leaves
  /// conns_ and moves its thread to finished_, which the accept loop
  /// (or stop()) joins.
  mutable std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> threads_;
  std::vector<std::thread> finished_;

  mutable std::mutex sessions_mu_;
  std::map<std::uint64_t, std::shared_ptr<WireSession>> sessions_;
  std::map<std::string, std::uint64_t> open_tokens_;
  std::uint64_t next_session_id_ = 1;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_dropped_{0};
  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint64_t> sessions_closed_{0};
  std::atomic<std::uint64_t> events_pushed_{0};
  std::atomic<std::uint64_t> assigns_served_{0};
};

}  // namespace latticesched::serve
