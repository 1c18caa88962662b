#include "serve/client.hpp"

#include <unistd.h>

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace latticesched::serve {

using dist::WireIoStatus;
using dist::WireMessage;

namespace {

/// Transport loss inside a request attempt; caught by the retry loop,
/// never escapes PlanClient.
struct TransportLost {};

/// Parses a REPLAN RESULT / EVENT body:
/// "<id>\n{header}\n" + plan_results_to_json rows.
ReplanOutcome parse_replan_body(const std::string& body) {
  std::string id_line, rest;
  dist::split_body(body, &id_line, &rest);
  std::string header, rows_json;
  dist::split_body(rest, &header, &rows_json);
  ReplanOutcome out;
  out.session = json_u64(header, "session");
  out.step = json_u64(header, "step");
  out.sensors = static_cast<std::size_t>(json_u64(header, "sensors"));
  out.rows = parse_plan_results_json(rows_json);
  return out;
}

std::vector<PlanResult> rows_to_results(
    const std::vector<PlanResultRow>& rows) {
  std::vector<PlanResult> results;
  results.reserve(rows.size());
  for (const PlanResultRow& row : rows) results.push_back(result_from_row(row));
  return results;
}

}  // namespace

PlanClient::PlanClient(ClientConfig config) : config_(std::move(config)) {
  // OPEN tokens must be unique across every client that ever talks to
  // this server instance; pid + object address + counter is enough
  // without dragging in a clock or RNG.
  std::ostringstream os;
  os << "c" << ::getpid() << "-" << static_cast<const void*>(this) << "-";
  token_prefix_ = os.str();
  connect();
}

PlanClient::~PlanClient() = default;

void PlanClient::connect() {
  const int fd =
      tcp_connect(config_.host, config_.port, config_.connect_timeout_ms);
  channel_ = std::make_unique<TcpChannel>(fd);
  WireMessage hello;
  if (channel_->read(&hello, config_.io_timeout_ms) != WireIoStatus::kOk ||
      hello.verb != "HELLO") {
    channel_.reset();
    throw std::runtime_error("serve client: no HELLO from " + config_.host +
                             ":" + std::to_string(config_.port));
  }
  const std::uint64_t protocol = json_u64(hello.body, "protocol");
  if (protocol != static_cast<std::uint64_t>(dist::kProtocolVersion)) {
    channel_.reset();
    throw std::runtime_error(
        "serve client: protocol mismatch: server speaks v" +
        std::to_string(protocol) + ", this client v" +
        std::to_string(dist::kProtocolVersion));
  }
}

WireMessage PlanClient::request(const WireMessage& message) {
  reconnected_ = false;
  for (int attempt = 0;; ++attempt) {
    try {
      if (channel_ == nullptr) connect();
      if (channel_->write(message, config_.io_timeout_ms) !=
          WireIoStatus::kOk) {
        throw TransportLost{};
      }
      for (;;) {
        WireMessage reply;
        if (channel_->read(&reply, config_.io_timeout_ms) !=
            WireIoStatus::kOk) {
          throw TransportLost{};
        }
        if (reply.verb == "EVENT") {
          // Someone's replan pushed onto a stream we subscribed to —
          // stash it; it is not the response to `message`.
          events_.push_back(parse_replan_body(reply.body));
          continue;
        }
        return reply;
      }
    } catch (const TransportLost&) {
      channel_.reset();
      if (attempt >= config_.max_reconnects) {
        throw std::runtime_error(
            "serve client: connection to " + config_.host + ":" +
            std::to_string(config_.port) + " lost (after " +
            std::to_string(attempt + 1) + " attempts)");
      }
      reconnected_ = true;
    }
  }
}

WireMessage PlanClient::request_checked(const std::string& verb,
                                        const std::string& body) {
  WireMessage reply = request({verb, body});
  if (reply.verb == "ERROR") throw ServerError(reply.body);
  return reply;
}

OpenInfo PlanClient::open(const BatchItem& item) {
  const std::string token = token_prefix_ + std::to_string(next_open_token_++);
  const WireMessage reply = request_checked(
      "OPEN", token + "\n" + batch_items_to_json({item}));
  std::string id_line, header;
  dist::split_body(reply.body, &id_line, &header);
  OpenInfo info;
  info.session = json_u64(header, "session");
  info.scenario = json_field(header, "scenario");
  info.label = json_field(header, "label");
  info.sensors = static_cast<std::size_t>(json_u64(header, "sensors"));
  info.channels = static_cast<std::uint32_t>(json_u64(header, "channels"));
  info.pending = static_cast<std::size_t>(json_u64(header, "pending"));
  next_seq_[info.session] = 0;
  return info;
}

DeltaInfo PlanClient::delta_next(std::uint64_t session) {
  return delta_script(session, "next");
}

DeltaInfo PlanClient::delta_script(std::uint64_t session,
                                   const std::string& script) {
  const std::uint64_t seq = next_seq_[session];
  const WireMessage reply = request_checked(
      "DELTA", std::to_string(session) + " " + std::to_string(seq) + "\n" +
                   script);
  std::string id_line, header;
  dist::split_body(reply.body, &id_line, &header);
  DeltaInfo info;
  info.session = json_u64(header, "session");
  info.seq = json_u64(header, "seq");
  info.step = json_u64(header, "step");
  info.sensors = static_cast<std::size_t>(json_u64(header, "sensors"));
  info.pending = static_cast<std::size_t>(json_u64(header, "pending"));
  next_seq_[session] = seq + 1;
  return info;
}

ReplanOutcome PlanClient::replan(std::uint64_t session) {
  const WireMessage reply =
      request_checked("REPLAN", std::to_string(session));
  return parse_replan_body(reply.body);
}

void PlanClient::subscribe(std::uint64_t session) {
  (void)request_checked("SUBSCRIBE", std::to_string(session));
}

SessionWireStats PlanClient::close_session(std::uint64_t session) {
  WireMessage reply = request({"CLOSE", std::to_string(session)});
  next_seq_.erase(session);
  if (reply.verb == "ERROR") {
    if (reconnected_ &&
        reply.body.rfind("unknown session", 0) == 0) {
      // The first CLOSE landed but its OK died with the connection; the
      // retry found the session gone.  Closed is closed — only the
      // stats are lost.
      return SessionWireStats{};
    }
    throw ServerError(reply.body);
  }
  std::string id_line, stats_json;
  dist::split_body(reply.body, &id_line, &stats_json);
  return session_stats_from_json(stats_json);
}

bool PlanClient::next_event(ReplanOutcome* out, int timeout_ms) {
  if (!events_.empty()) {
    *out = std::move(events_.front());
    events_.pop_front();
    return true;
  }
  if (channel_ == nullptr) return false;
  WireMessage message;
  if (channel_->read(&message, timeout_ms) != WireIoStatus::kOk) {
    return false;
  }
  if (message.verb != "EVENT") return false;  // stray frame; drop
  *out = parse_replan_body(message.body);
  return true;
}

BatchReport PlanClient::run_items(const std::vector<BatchItem>& items) {
  const auto t0 = std::chrono::steady_clock::now();
  BatchReport report;
  report.items.resize(items.size());
  session_stats_.clear();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const BatchItem& item = items[i];
    BatchItemReport& out = report.items[i];
    out.scenario = item.query.scenario;
    std::uint64_t session = 0;
    bool opened = false;
    try {
      const OpenInfo info = open(item);
      session = info.session;
      opened = true;
      out.label = info.label;
      out.sensors = info.sensors;
      out.channels = info.channels;
      out.built = true;

      // Mirror of the PlanService item loop: step 0 replans the initial
      // deployment, then each pending trace step is applied (server
      // side, via DELTA "next") and replanned.
      const ReplanOutcome first = replan(session);
      if (info.pending == 0) {
        out.results = rows_to_results(first.rows);
      } else {
        out.steps.push_back(
            BatchStepReport{0, first.sensors, rows_to_results(first.rows)});
        for (std::size_t k = 0; k < info.pending; ++k) {
          const DeltaInfo delta = delta_next(session);
          const ReplanOutcome stepped = replan(session);
          out.steps.push_back(BatchStepReport{
              delta.step, delta.sensors, rows_to_results(stepped.rows)});
        }
        out.results = out.steps.back().results;
      }

      const SessionWireStats stats = close_session(session);
      session_stats_.emplace_back(out.label, stats);
      report.counters.merge(stats.counters);
    } catch (const ServerError& e) {
      // Same surface as the local run's per-item catch: the item
      // reports its failure, the batch carries on.
      out.built = false;
      out.error = e.what();
      out.results.clear();
      out.steps.clear();
      if (opened) {
        try {
          (void)close_session(session);
        } catch (const std::exception&) {
          // Best-effort; the session will be swept with the server.
        }
      }
    }
  }
  report.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  return report;
}

}  // namespace latticesched::serve
