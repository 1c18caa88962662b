#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "dist/wire.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace latticesched::serve {

using dist::FaultAction;
using dist::FaultKind;
using dist::WireIoStatus;
using dist::WireMessage;

namespace {

/// How often the accept loop wakes to join finished connection threads
/// (stop() wakes it at once).
constexpr int kAcceptSliceMs = 200;

/// The PlanSession::Stats fields the CLOSE "session" object carries
/// (the region fields ride in the counters groups).
constexpr std::pair<const char*, std::uint64_t PlanSession::Stats::*>
    kSessionFields[] = {
        {"replans", &PlanSession::Stats::replans},
        {"deltas", &PlanSession::Stats::deltas},
        {"graph_builds", &PlanSession::Stats::graph_builds},
        {"graph_patches", &PlanSession::Stats::graph_patches},
        {"warm_greedy", &PlanSession::Stats::warm_greedy},
        {"regions_replanned", &PlanSession::Stats::regions_replanned},
};

}  // namespace

std::string session_stats_to_json(const SessionWireStats& stats) {
  std::ostringstream os;
  os << "{\n" << counters_to_json(stats.counters) << "  \"session\": {";
  const char* separator = "";
  for (const auto& [key, field] : kSessionFields) {
    os << separator << '"' << key << "\": " << stats.session.*field;
    separator = ", ";
  }
  os << "}\n}\n";
  return os.str();
}

SessionWireStats session_stats_from_json(const std::string& json) {
  SessionWireStats stats;
  stats.counters = parse_counters_json(json);
  const std::string session = json_field(json, "session");
  for (const auto& [key, field] : kSessionFields) {
    stats.session.*field = json_u64(session, key);
  }
  return stats;
}

/// One connection: the channel, and the fault gate its counted frames
/// pass.  The send lock serializes this connection's replies, its
/// reader's PONGs and other connections' EVENT pushes.
struct PlanServer::Connection
    : std::enable_shared_from_this<PlanServer::Connection> {
  Connection(int fd, dist::FaultPlan plan)
      : channel(fd), faults(std::move(plan)) {}

  TcpChannel channel;
  std::mutex send_mu;
  dist::WireFaultInjector faults;  ///< under send_mu
  bool dropped = false;            ///< drop-connection fired; under send_mu
};

/// Server-side session state.  Lives in the session map, NOT in any
/// connection: connections come and go (including by scripted
/// drop-connection faults), the session persists until CLOSE.
struct PlanServer::WireSession {
  explicit WireSession(ScenarioInstance built) : instance(std::move(built)) {}

  std::mutex mu;

  /// The built scenario: its label, and the geometry the PlanSession
  /// borrows pointers into (so it lives exactly as long as the session).
  /// Its deployment moved into the session.
  ScenarioInstance instance;

  std::unique_ptr<PlanSession> session;

  /// The item's mutation trace, applied one step per DELTA "next".
  std::vector<MutationStep> pending;
  std::size_t next_pending = 0;
  std::uint64_t last_step = 0;  ///< step tag of the latest applied delta

  /// DELTA idempotency: seq of the next fresh DELTA, plus the stored
  /// OK of the previous one (replayed when a reconnecting client
  /// retries a request whose response a dropped connection ate).
  std::uint64_t next_delta_seq = 0;
  WireMessage last_delta_ok;
  WireMessage open_ok;  ///< replayed on an idempotent re-OPEN

  /// This session's share of the shared caches' counters (before/after
  /// snapshots around its scenario build and its replans; approximate
  /// under concurrency).
  Counters counters;

  /// EVENT-stream subscribers (pruned lazily as connections die).
  std::vector<std::weak_ptr<Connection>> subscribers;
};

PlanServer::PlanServer(ServerConfig config) : config_(std::move(config)) {
  if (!config_.fault_spec.empty()) {
    fault_plan_ = dist::FaultPlan::parse(config_.fault_spec);
  }
  if (!config_.cache_dir.empty()) {
    service_.tiling_cache().set_persist_dir(config_.cache_dir);
    service_.tune_cache().set_persist_dir(config_.cache_dir);
  }
  if (fault_plan_.has_cache_faults()) {
    service_.tiling_cache().set_write_corruption_hook(
        dist::cache_corruption_hook(fault_plan_));
  }
}

PlanServer::~PlanServer() { stop(); }

void PlanServer::start() {
  listener_ = std::make_unique<TcpListener>(config_.host, config_.port);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void PlanServer::serve_fd(int fd) {
  // Nonblocking, or the write deadline (io_timeout_ms) could never fire.
  (void)dist::set_nonblocking(fd);
  // The plan as given: the coordinator already filtered it for_worker.
  auto conn = std::make_shared<Connection>(fd, fault_plan_);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
  }
  handle_connection(std::move(conn));
}

std::uint16_t PlanServer::port() const {
  return listener_ != nullptr ? listener_->port() : config_.port;
}

void PlanServer::stop() {
  stop_.store(true, std::memory_order_release);
  if (listener_ != nullptr) {
    listener_->shutdown();
    if (accept_thread_.joinable()) accept_thread_.join();
  }
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns = conns_;
    threads.swap(threads_);
    for (std::thread& t : finished_) threads.push_back(std::move(t));
    finished_.clear();
  }
  for (const auto& conn : conns) conn->channel.shutdown();
  for (std::thread& t : threads) t.join();
}

PlanServer::Stats PlanServer::stats() const {
  Stats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_dropped =
      connections_dropped_.load(std::memory_order_relaxed);
  stats.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  stats.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  stats.events_pushed = events_pushed_.load(std::memory_order_relaxed);
  stats.assigns_served = assigns_served_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    stats.open_sessions = sessions_.size();
  }
  return stats;
}

void PlanServer::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      finished.swap(finished_);
    }
    for (std::thread& t : finished) t.join();
    const int fd = listener_->accept_connection(kAcceptSliceMs);
    if (fd < 0) continue;  // timeout or shutdown; the loop rechecks stop_
    const std::uint64_t cid =
        connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn =
        std::make_shared<Connection>(fd, fault_plan_.for_connection(cid));
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    threads_.emplace_back([this, conn] { handle_connection(conn); });
  }
}

bool PlanServer::send(Connection& conn, const WireMessage& message) {
  using Decision = dist::WireFaultInjector::Decision;
  std::lock_guard<std::mutex> lock(conn.send_mu);
  if (conn.dropped) return false;
  switch (conn.faults.on_frame()) {  // may sleep or _Exit under the lock
    case Decision::kSend:
      break;
    case Decision::kDrop:
      return true;  // pretend success; the frame vanishes
    case Decision::kTruncate:
      // Half a frame, then wedge: the peer's deadline read stalls
      // mid-frame and the coordinator kills this process.
      dist::write_torn_frame(conn.channel.fd(), message);
      std::this_thread::sleep_for(std::chrono::hours(1));
      return false;
    case Decision::kClose:
      // Hard-close right before this frame goes out: the client sees a
      // torn connection, the session map does not.
      conn.dropped = true;
      conn.channel.shutdown();
      connections_dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
  }
  return conn.channel.write(message, config_.io_timeout_ms) ==
         WireIoStatus::kOk;
}

void PlanServer::handle_connection(std::shared_ptr<Connection> conn) {
  // delay-accept faults stall servicing of this connection (the TCP
  // accept already happened; the client waits on the HELLO).
  for (const FaultAction& action : conn->faults.plan().actions) {
    if (action.kind == FaultKind::kDelayAcceptMs) {
      std::this_thread::sleep_for(std::chrono::milliseconds(action.ms));
    }
  }
  // The reader answers PING at once, even while this thread plans, and
  // queues every other frame for this thread to answer in order.  It
  // reads without a deadline: the shutdown below, or stop()'s, wakes it.
  std::mutex inbox_mu;
  std::condition_variable inbox_cv;
  std::deque<WireMessage> inbox;
  bool reader_done = false;
  std::thread reader;
  if (send(*conn,
           {"HELLO",
            "{\"protocol\": " + std::to_string(dist::kProtocolVersion) +
                ", \"role\": \"server\"}"})) {
    reader = std::thread([&] {
      WireMessage message;
      while (conn->channel.read(&message, -1) == WireIoStatus::kOk) {
        if (message.verb == "PING") {
          // Uncounted (probe timing must not shift the deterministic
          // fault triggers), but under the send lock: a hang fault
          // sleeping there silences the PONG too.
          std::lock_guard<std::mutex> lock(conn->send_mu);
          if (conn->dropped ||
              conn->channel.write({"PONG", ""}, config_.io_timeout_ms) !=
                  WireIoStatus::kOk) {
            break;
          }
          continue;
        }
        {
          std::lock_guard<std::mutex> lock(inbox_mu);
          inbox.push_back(std::move(message));
        }
        inbox_cv.notify_one();
      }
      {
        std::lock_guard<std::mutex> lock(inbox_mu);
        reader_done = true;  // EOF, lost framing or a shutdown
      }
      inbox_cv.notify_one();
    });
    for (;;) {
      std::unique_lock<std::mutex> lock(inbox_mu);
      inbox_cv.wait(lock, [&] { return reader_done || !inbox.empty(); });
      if (inbox.empty() || stop_.load(std::memory_order_acquire)) break;
      const WireMessage message = std::move(inbox.front());
      inbox.pop_front();
      lock.unlock();
      if (!handle_message(*conn, message)) break;
    }
  }
  // Half-close so the peer sees EOF immediately and the reader wakes.
  // The fd closes with the last reference to the Connection (an EVENT
  // pusher may still hold one; its sends fail cleanly).
  conn->channel.shutdown();
  if (reader.joinable()) reader.join();
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::erase(conns_, conn);
  // An accepted connection's thread hands its own handle to the accept
  // loop, which joins it.
  const auto self = std::find_if(
      threads_.begin(), threads_.end(), [](const std::thread& t) {
        return t.get_id() == std::this_thread::get_id();
      });
  if (self != threads_.end()) {
    finished_.push_back(std::move(*self));
    threads_.erase(self);
  }
}

bool PlanServer::handle_message(Connection& conn,
                                const WireMessage& message) {
  if (message.verb == "SHUTDOWN") return false;  // sessions survive
  try {
    if (message.verb == "OPEN") {
      handle_open(conn, message.body);
    } else if (message.verb == "DELTA") {
      handle_delta(conn, message.body);
    } else if (message.verb == "REPLAN") {
      handle_replan(conn, message.body);
    } else if (message.verb == "SUBSCRIBE") {
      handle_subscribe(conn, message.body);
    } else if (message.verb == "CLOSE") {
      handle_close(conn, message.body);
    } else if (message.verb == "ASSIGN") {
      handle_assign(conn, message.body);
    } else {
      // Unknown verbs answer ERROR and leave the connection (and its
      // sessions) alone — a typo'd client verb is not a protocol loss.
      return send(conn,
                  {"ERROR", "unknown verb '" + message.verb + "'"});
    }
  } catch (const std::exception& e) {
    return send(conn, {"ERROR", e.what()});
  }
  return true;
}

std::shared_ptr<PlanServer::WireSession> PlanServer::find_session(
    const std::string& id_text, std::uint64_t* id) {
  *id = parse_u64(id_text, "session id");
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const auto it = sessions_.find(*id);
  if (it == sessions_.end()) {
    throw std::invalid_argument("unknown session " + id_text);
  }
  return it->second;
}

void PlanServer::handle_open(Connection& conn, const std::string& body) {
  std::string token, items_json;
  dist::split_body(body, &token, &items_json);
  if (!token.empty()) {
    // Idempotent re-OPEN: a reconnecting client retrying an OPEN whose
    // OK a dropped connection ate must not leak a second session.
    std::shared_ptr<WireSession> existing;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      const auto it = open_tokens_.find(token);
      if (it != open_tokens_.end()) existing = sessions_.at(it->second);
    }
    if (existing != nullptr) {
      std::lock_guard<std::mutex> lock(existing->mu);
      (void)send(conn, existing->open_ok);
      return;
    }
  }

  const std::vector<BatchItem> items = parse_batch_items_json(items_json);
  if (items.size() != 1) {
    throw std::invalid_argument("OPEN expects exactly one batch item, got " +
                                std::to_string(items.size()));
  }
  const BatchItem& item = items.front();
  for (const std::string& name : item.backends) {
    if (PlannerRegistry::global().find(name) == nullptr) {
      throw std::invalid_argument("unknown backend '" + name + "'");
    }
  }

  // The PlanService item path (core/plan_service.cpp), with the trace
  // queued instead of replayed — the client drives each step through
  // DELTA, which is what keeps remote and local runs result-identical
  // step for step.
  const CacheStats before =
      cache_stats(service_.tiling_cache(), service_.tune_cache());
  auto ws = std::make_shared<WireSession>(ScenarioRegistry::global().build(
      item.query.scenario, item.query.params, &service_.tiling_cache()));
  ws->counters = counters_between(
      before, cache_stats(service_.tiling_cache(), service_.tune_cache()));
  MutationTrace trace = std::move(ws->instance.trace);
  if (!item.trace_script.empty()) {
    trace = parse_mutation_script(item.trace_script);
  }
  ws->pending = std::move(trace.steps);
  const std::size_t sensors = ws->instance.deployment.size();
  const SessionConfig config =
      session_config(item, ws->instance, &service_.tiling_cache(),
                     &service_.tune_cache(), &PlannerRegistry::global());
  ws->session = std::make_unique<PlanSession>(
      std::move(ws->instance.deployment), config);

  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    id = next_session_id_++;
    sessions_[id] = ws;
    if (!token.empty()) open_tokens_[token] = id;
  }
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);

  std::ostringstream os;
  os << id << "\n{\"session\": " << id << ", \"scenario\": \""
     << json_escape(item.query.scenario) << "\", \"label\": \""
     << json_escape(ws->instance.label) << "\", \"sensors\": " << sensors
     << ", \"channels\": " << ws->instance.channels
     << ", \"pending\": " << ws->pending.size() << "}";
  ws->open_ok = {"OK", os.str()};
  std::lock_guard<std::mutex> lock(ws->mu);
  (void)send(conn, ws->open_ok);
}

void PlanServer::handle_delta(Connection& conn, const std::string& body) {
  std::string first, payload;
  dist::split_body(body, &first, &payload);
  const std::size_t space = first.find(' ');
  if (space == std::string::npos) {
    throw std::invalid_argument("DELTA expects '<session> <seq>'");
  }
  std::uint64_t id = 0;
  const std::shared_ptr<WireSession> ws =
      find_session(first.substr(0, space), &id);
  const std::uint64_t seq =
      parse_u64(first.substr(space + 1), "delta seq");

  std::lock_guard<std::mutex> lock(ws->mu);
  if (seq + 1 == ws->next_delta_seq) {
    // The previous DELTA, retried: its response was lost with a dropped
    // connection.  Replay the stored OK instead of double-applying.
    (void)send(conn, ws->last_delta_ok);
    return;
  }
  if (seq != ws->next_delta_seq) {
    throw std::invalid_argument(
        "delta seq out of order: expected " +
        std::to_string(ws->next_delta_seq) + ", got " + std::to_string(seq));
  }
  if (payload == "next") {
    if (ws->next_pending >= ws->pending.size()) {
      throw std::invalid_argument("no pending trace steps");
    }
    const MutationStep& step = ws->pending[ws->next_pending];
    ws->session->apply(step.delta);
    ws->last_step = step.at;
    ++ws->next_pending;
  } else {
    // Inline script: timestamps are relative to the session's current
    // step, so scripts compose with a partially replayed trace.
    const MutationTrace trace = parse_mutation_script(payload);
    const std::uint64_t base = ws->last_step;
    for (const MutationStep& step : trace.steps) {
      ws->session->apply(step.delta);
      ws->last_step = base + step.at;
    }
  }
  std::ostringstream os;
  os << id << "\n{\"session\": " << id << ", \"seq\": " << seq
     << ", \"step\": " << ws->last_step
     << ", \"sensors\": " << ws->session->deployment().size()
     << ", \"pending\": " << (ws->pending.size() - ws->next_pending) << "}";
  ws->last_delta_ok = {"OK", os.str()};
  ++ws->next_delta_seq;
  (void)send(conn, ws->last_delta_ok);
}

void PlanServer::handle_replan(Connection& conn, const std::string& body) {
  std::string first, rest;
  dist::split_body(body, &first, &rest);
  std::uint64_t id = 0;
  const std::shared_ptr<WireSession> ws = find_session(first, &id);

  std::lock_guard<std::mutex> lock(ws->mu);
  const CacheStats before =
      cache_stats(service_.tiling_cache(), service_.tune_cache());
  const std::vector<PlanResult> results = ws->session->replan();
  ws->counters.merge(counters_between(
      before, cache_stats(service_.tiling_cache(), service_.tune_cache())));

  std::ostringstream os;
  os << id << "\n{\"session\": " << id << ", \"step\": " << ws->last_step
     << ", \"sensors\": " << ws->session->deployment().size() << "}\n"
     << plan_results_to_json(results, ws->instance.label, ws->last_step);
  const WireMessage result{"RESULT", os.str()};
  (void)send(conn, result);

  // The session-event stream: the same body, pushed to every live
  // subscriber.  Sent under ws->mu so two replans of one session can
  // never interleave their events out of order.
  const WireMessage event{"EVENT", result.body};
  std::size_t kept = 0;
  for (std::weak_ptr<Connection>& weak : ws->subscribers) {
    const std::shared_ptr<Connection> sub = weak.lock();
    if (sub == nullptr) continue;  // connection gone; prune
    if (send(*sub, event)) {
      events_pushed_.fetch_add(1, std::memory_order_relaxed);
    }
    ws->subscribers[kept++] = weak;
  }
  ws->subscribers.resize(kept);
}

void PlanServer::handle_subscribe(Connection& conn,
                                  const std::string& body) {
  std::string first, rest;
  dist::split_body(body, &first, &rest);
  std::uint64_t id = 0;
  const std::shared_ptr<WireSession> ws = find_session(first, &id);
  std::lock_guard<std::mutex> lock(ws->mu);
  ws->subscribers.push_back(conn.weak_from_this());
  std::ostringstream os;
  os << id << "\n{\"session\": " << id << ", \"subscribed\": true}";
  (void)send(conn, {"OK", os.str()});
}

void PlanServer::handle_close(Connection& conn, const std::string& body) {
  std::string first, rest;
  dist::split_body(body, &first, &rest);
  const std::uint64_t id = parse_u64(first, "session id");
  std::shared_ptr<WireSession> ws;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      throw std::invalid_argument("unknown session " + first);
    }
    ws = it->second;
    sessions_.erase(it);
    for (auto token_it = open_tokens_.begin();
         token_it != open_tokens_.end();) {
      token_it = token_it->second == id ? open_tokens_.erase(token_it)
                                        : std::next(token_it);
    }
  }
  sessions_closed_.fetch_add(1, std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(ws->mu);
  SessionWireStats stats{ws->session->stats(), ws->counters};
  stats.counters.merge(counters_from_session(stats.session));
  (void)send(conn,
             {"OK", first + "\n" + session_stats_to_json(stats)});
}

void PlanServer::handle_assign(Connection& conn, const std::string& body) {
  std::string shard_id, items_json;
  dist::split_body(body, &shard_id, &items_json);
  const std::vector<BatchItem> items = parse_batch_items_json(items_json);
  const BatchReport report = service_.run(items);
  assigns_served_.fetch_add(1, std::memory_order_relaxed);
  (void)send(conn,
             {"RESULT", shard_id + "\n" + batch_report_to_json(report)});
}

}  // namespace latticesched::serve
