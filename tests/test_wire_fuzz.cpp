// Wire-protocol hardening: truncated frames, oversized length
// prefixes, unknown verbs and garbage bodies must surface as clean
// errors — read_frame returning false, the worker answering ERROR —
// never a crash or an unbounded allocation.  Runs under the ASan job
// like the rest of the suite.
//
// The TCP section drives the same frame layer over real AF_INET
// loopback sockets (via src/serve): throttled drip reads, partial
// writes through a full send buffer, pre-handshake garbage, truncated
// v6 frames, and unknown session verbs against a live PlanServer.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "dist/wire.hpp"
#include "serve/server.hpp"
#include "serve/tcp.hpp"
#include "util/rng.hpp"

namespace latticesched {
namespace {

using dist::WireMessage;

struct Socketpair {
  int a = -1, b = -1;
  Socketpair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
      a = fds[0];
      b = fds[1];
    }
  }
  ~Socketpair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  void close_a() {
    if (a >= 0) ::close(a);
    a = -1;
  }
};

void write_raw(int fd, const void* data, std::size_t len) {
  ASSERT_EQ(::write(fd, data, len), static_cast<ssize_t>(len));
}

void write_prefix(int fd, std::uint32_t len) {
  const unsigned char prefix[4] = {
      static_cast<unsigned char>(len & 0xff),
      static_cast<unsigned char>((len >> 8) & 0xff),
      static_cast<unsigned char>((len >> 16) & 0xff),
      static_cast<unsigned char>((len >> 24) & 0xff)};
  write_raw(fd, prefix, sizeof prefix);
}

TEST(WireFuzz, TruncatedPrefixIsCleanEof) {
  Socketpair pair;
  ASSERT_GE(pair.a, 0);
  write_raw(pair.a, "\x05\x00", 2);  // half a length prefix
  pair.close_a();
  WireMessage message;
  EXPECT_FALSE(dist::read_frame(pair.b, &message));
}

TEST(WireFuzz, TruncatedPayloadIsCleanEof) {
  Socketpair pair;
  ASSERT_GE(pair.a, 0);
  write_prefix(pair.a, 64);
  write_raw(pair.a, "HELLO\nonly-part-of-the-body", 27);
  pair.close_a();
  WireMessage message;
  EXPECT_FALSE(dist::read_frame(pair.b, &message));
}

TEST(WireFuzz, OversizedLengthPrefixIsRejectedNotAllocated) {
  for (const std::uint32_t len :
       {dist::kMaxFrameBytes + 1, 0xffffffffu, 0x80000000u}) {
    Socketpair pair;
    ASSERT_GE(pair.a, 0);
    write_prefix(pair.a, len);
    // No payload follows — a reader that trusted the prefix would try
    // to allocate and block on gigabytes.
    pair.close_a();
    WireMessage message;
    EXPECT_FALSE(dist::read_frame(pair.b, &message)) << len;
  }
}

TEST(WireFuzz, ZeroLengthAndEmptyVerbFramesAreRejected) {
  {
    Socketpair pair;
    write_prefix(pair.a, 0);
    pair.close_a();
    WireMessage message;
    EXPECT_FALSE(dist::read_frame(pair.b, &message));
  }
  {
    // "\nbody": newline first => empty verb.
    Socketpair pair;
    write_prefix(pair.a, 5);
    write_raw(pair.a, "\nbody", 5);
    pair.close_a();
    WireMessage message;
    EXPECT_FALSE(dist::read_frame(pair.b, &message));
  }
}

TEST(WireFuzz, FrameWithoutNewlineIsVerbOnly) {
  Socketpair pair;
  write_prefix(pair.a, 8);
  write_raw(pair.a, "SHUTDOWN", 8);
  WireMessage message;
  ASSERT_TRUE(dist::read_frame(pair.b, &message));
  EXPECT_EQ(message.verb, "SHUTDOWN");
  EXPECT_TRUE(message.body.empty());
}

TEST(WireFuzz, RandomGarbageStreamsNeverCrashTheReader) {
  Rng rng(1234);
  for (int round = 0; round < 32; ++round) {
    Socketpair pair;
    ASSERT_GE(pair.a, 0);
    std::string garbage(1 + rng.next_below(512), '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.next_below(256));
    }
    write_raw(pair.a, garbage.data(), garbage.size());
    pair.close_a();
    // Drain until EOF/error; each frame either parses or cleanly fails.
    WireMessage message;
    int frames = 0;
    while (dist::read_frame(pair.b, &message) && frames < 64) ++frames;
  }
}

/// Drives the REAL worker loop (PlanServer::serve_fd, as
/// `latticesched --worker` runs it) in-process over a socketpair and
/// returns the exit code the driver reports once serve_fd returns.
/// serve_fd owns fd `b` and closes it on return, so the reader below
/// sees EOF after draining the worker's replies.
int run_worker_with(const std::vector<std::string>& raw_frames,
                    std::vector<WireMessage>* responses) {
  Socketpair pair;
  if (pair.a < 0) return -1;
  serve::PlanServer server{serve::ServerConfig{}};
  int exit_code = -1;
  std::thread worker([&server, &exit_code, fd = std::exchange(pair.b, -1)] {
    server.serve_fd(fd);
    exit_code = 0;
  });
  WireMessage hello;
  EXPECT_TRUE(dist::read_frame(pair.a, &hello));
  EXPECT_EQ(hello.verb, "HELLO");
  for (const std::string& payload : raw_frames) {
    // MSG_NOSIGNAL: a worker that already exited must surface as a
    // failed send, not SIGPIPE in the test binary.
    const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
    const unsigned char prefix[4] = {
        static_cast<unsigned char>(len & 0xff),
        static_cast<unsigned char>((len >> 8) & 0xff),
        static_cast<unsigned char>((len >> 16) & 0xff),
        static_cast<unsigned char>((len >> 24) & 0xff)};
    if (::send(pair.a, prefix, sizeof prefix, MSG_NOSIGNAL) != 4 ||
        ::send(pair.a, payload.data(), payload.size(), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(payload.size())) {
      break;
    }
  }
  // A worker answers an unknown verb or a bad ASSIGN with ERROR and
  // keeps reading; EOF on its input is what ends the loop.
  ::shutdown(pair.a, SHUT_WR);
  WireMessage reply;
  while (dist::read_frame(pair.a, &reply)) {
    responses->push_back(reply);
  }
  pair.close_a();
  worker.join();
  return exit_code;
}

TEST(WireFuzz, WorkerAnswersUnknownVerbWithErrorAndExits) {
  std::vector<WireMessage> responses;
  const int code = run_worker_with({"FROBNICATE\nstuff"}, &responses);
  EXPECT_EQ(code, 0);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].verb, "ERROR");
  EXPECT_NE(responses[0].body.find("FROBNICATE"), std::string::npos);
}

TEST(WireFuzz, WorkerAnswersGarbageAssignBodyWithErrorNotCrash) {
  // A scenario line with unparseable numbers: parse_batch_items_json
  // throws and the worker reports ERROR (the coordinator treats any
  // ERROR as fatal and reaps its fleet).
  const std::string garbage_items =
      "[\n  {\"scenario\": \"grid\", \"n\": twelve}\n]\n";
  std::vector<WireMessage> responses;
  const int code =
      run_worker_with({"ASSIGN\n0\n" + garbage_items}, &responses);
  EXPECT_EQ(code, 0);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].verb, "ERROR");
}

TEST(WireFuzz, WorkerSurvivesEmptyAssignmentAndShutsDownCleanly) {
  std::vector<WireMessage> responses;
  const int code =
      run_worker_with({"ASSIGN\n7\n[\n]\n", "SHUTDOWN"}, &responses);
  EXPECT_EQ(code, 0);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].verb, "RESULT");
  EXPECT_EQ(responses[0].body.substr(0, 2), "7\n");
}

// ---------------------------------------------------------------------------
// TCP transport: the frame layer over real AF_INET loopback sockets.
// ---------------------------------------------------------------------------

/// A connected loopback pair: `client` from tcp_connect, `server` from
/// the listener's accept.  Both nonblocking, as the serve stack uses.
struct TcpPair {
  serve::TcpListener listener{"127.0.0.1", 0};
  int client = -1;
  int server = -1;
  TcpPair() {
    client = serve::tcp_connect("127.0.0.1", listener.port(), 2000);
    server = listener.accept_connection(2000);
  }
  ~TcpPair() {
    if (client >= 0) ::close(client);
    if (server >= 0) ::close(server);
  }
};

TEST(WireFuzzTcp, DrippedFrameAssemblesUnderDeadline) {
  // Throttled loopback: the frame arrives a few bytes at a time with
  // real gaps, so read_frame_deadline must poll through many short
  // reads (EAGAIN on a nonblocking TCP fd) without losing bytes.
  TcpPair pair;
  ASSERT_GE(pair.client, 0);
  ASSERT_GE(pair.server, 0);
  const std::string payload = "ASSIGN\n" + std::string(257, 'x');
  std::string raw;
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    raw.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  raw += payload;
  std::thread dripper([&] {
    for (std::size_t at = 0; at < raw.size(); at += 7) {
      const std::size_t n = std::min<std::size_t>(7, raw.size() - at);
      ASSERT_EQ(::send(pair.client, raw.data() + at, n, MSG_NOSIGNAL),
                static_cast<ssize_t>(n));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  WireMessage message;
  EXPECT_EQ(dist::read_frame_deadline(pair.server, &message, 10000),
            dist::WireIoStatus::kOk);
  EXPECT_EQ(message.verb, "ASSIGN");
  EXPECT_EQ(message.body.size(), 257u);
  dripper.join();
}

TEST(WireFuzzTcp, LargeFrameSurvivesPartialWritesBothDirections) {
  // A multi-megabyte body cannot fit the socket send buffer, so the
  // writer hits partial writes + EAGAIN and must poll; the reader
  // drains concurrently.  Blocking-form write_frame/read_frame must
  // also cope, since serve fds are permanently O_NONBLOCK.
  TcpPair pair;
  ASSERT_GE(pair.client, 0);
  ASSERT_GE(pair.server, 0);
  WireMessage big{"RESULT", std::string(8u << 20, 'r')};
  big.body[1234567] = 'Q';
  std::thread writer([&] {
    EXPECT_EQ(dist::write_frame_deadline(pair.client, big, 20000),
              dist::WireIoStatus::kOk);
    WireMessage echo;
    EXPECT_TRUE(dist::read_frame(pair.client, &echo));
    EXPECT_EQ(echo.body, big.body);
  });
  WireMessage received;
  EXPECT_EQ(dist::read_frame_deadline(pair.server, &received, 20000),
            dist::WireIoStatus::kOk);
  EXPECT_EQ(received.verb, "RESULT");
  EXPECT_EQ(received.body.size(), big.body.size());
  EXPECT_EQ(received.body[1234567], 'Q');
  EXPECT_TRUE(dist::write_frame(pair.server, received));
  writer.join();
}

TEST(WireFuzzTcp, DeadlineExpiresOnStalledPeer) {
  TcpPair pair;
  ASSERT_GE(pair.server, 0);
  // Nothing ever arrives: the read must time out, not spin or hang.
  WireMessage message;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(dist::read_frame_deadline(pair.server, &message, 100),
            dist::WireIoStatus::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::seconds(5));
}

/// A server running for the duration of one test.
struct ServeFixture {
  serve::PlanServer server{serve::ServerConfig{}};
  ServeFixture() { server.start(); }
  ~ServeFixture() { server.stop(); }
  int connect() {
    return serve::tcp_connect("127.0.0.1", server.port(), 2000);
  }
  /// Reads the server HELLO off a fresh fd.
  void handshake(int fd) {
    WireMessage hello;
    ASSERT_EQ(dist::read_frame_deadline(fd, &hello, 5000),
              dist::WireIoStatus::kOk);
    ASSERT_EQ(hello.verb, "HELLO");
    ASSERT_NE(hello.body.find("\"role\": \"server\""), std::string::npos);
  }
};

TEST(WireFuzzTcp, GarbagePreHandshakeClosesConnectionNotServer) {
  ServeFixture fx;
  Rng rng(99);
  for (int round = 0; round < 8; ++round) {
    const int fd = fx.connect();
    ASSERT_GE(fd, 0);
    fx.handshake(fd);
    std::string garbage(1 + rng.next_below(256), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.next_below(256));
    (void)::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL);
    // The server either answers ERROR (the garbage parsed as a frame
    // with an unknown verb) or drops the connection (lost framing);
    // either way it must never crash.
    ::close(fd);
  }
  // Still alive: a clean client gets a clean HELLO and a PONG.
  const int fd = fx.connect();
  ASSERT_GE(fd, 0);
  fx.handshake(fd);
  ASSERT_EQ(dist::write_frame_deadline(fd, {"PING", ""}, 2000),
            dist::WireIoStatus::kOk);
  WireMessage pong;
  ASSERT_EQ(dist::read_frame_deadline(fd, &pong, 5000),
            dist::WireIoStatus::kOk);
  EXPECT_EQ(pong.verb, "PONG");
  ::close(fd);
}

TEST(WireFuzzTcp, TruncatedSessionFrameClosesConnectionCleanly) {
  ServeFixture fx;
  const int fd = fx.connect();
  ASSERT_GE(fd, 0);
  fx.handshake(fd);
  // A v6 frame that promises 64 bytes and delivers 11: framing is lost,
  // so the server must close rather than stall or misparse.
  const unsigned char prefix[4] = {64, 0, 0, 0};
  ASSERT_EQ(::send(fd, prefix, 4, MSG_NOSIGNAL), 4);
  ASSERT_EQ(::send(fd, "OPEN\ntoken\n", 11, MSG_NOSIGNAL), 11);
  ::shutdown(fd, SHUT_WR);
  WireMessage reply;
  EXPECT_EQ(dist::read_frame_deadline(fd, &reply, 5000),
            dist::WireIoStatus::kClosed);
  ::close(fd);
  // The listener still accepts.
  const int fd2 = fx.connect();
  ASSERT_GE(fd2, 0);
  fx.handshake(fd2);
  ::close(fd2);
}

TEST(WireFuzzTcp, UnknownSessionVerbAnswersErrorAndKeepsConnection) {
  ServeFixture fx;
  const int fd = fx.connect();
  ASSERT_GE(fd, 0);
  fx.handshake(fd);
  ASSERT_EQ(dist::write_frame_deadline(fd, {"FROBNICATE", "v6?"}, 2000),
            dist::WireIoStatus::kOk);
  WireMessage reply;
  ASSERT_EQ(dist::read_frame_deadline(fd, &reply, 5000),
            dist::WireIoStatus::kOk);
  EXPECT_EQ(reply.verb, "ERROR");
  EXPECT_NE(reply.body.find("FROBNICATE"), std::string::npos);
  // Same connection keeps working — a typo must not kill a session
  // stream.
  ASSERT_EQ(dist::write_frame_deadline(fd, {"PING", ""}, 2000),
            dist::WireIoStatus::kOk);
  ASSERT_EQ(dist::read_frame_deadline(fd, &reply, 5000),
            dist::WireIoStatus::kOk);
  EXPECT_EQ(reply.verb, "PONG");
  ::close(fd);
}

TEST(WireFuzzTcp, MalformedSessionBodiesAnswerErrorNotCrash) {
  ServeFixture fx;
  const int fd = fx.connect();
  ASSERT_GE(fd, 0);
  fx.handshake(fd);
  const std::vector<WireMessage> bad = {
      {"OPEN", "tok\n[\n  {\"scenario\": \"no-such-scenario\"}\n]\n"},
      {"DELTA", "not-a-number 0\nnext"},
      {"DELTA", "77"},  // missing seq
      {"REPLAN", "123456"},
      {"SUBSCRIBE", "garbage"},
      {"CLOSE", "99"},
  };
  for (const WireMessage& message : bad) {
    ASSERT_EQ(dist::write_frame_deadline(fd, message, 2000),
              dist::WireIoStatus::kOk)
        << message.verb;
    WireMessage reply;
    ASSERT_EQ(dist::read_frame_deadline(fd, &reply, 10000),
              dist::WireIoStatus::kOk)
        << message.verb;
    EXPECT_EQ(reply.verb, "ERROR") << message.verb;
  }
  ::close(fd);
}

TEST(WireFuzz, BatchItemParsersRejectGarbageWithCleanErrors) {
  // Lines that LOOK like items but carry malformed values must throw,
  // not crash or silently mis-parse.
  EXPECT_THROW(
      (void)parse_batch_items_json("{\"scenario\": \"grid\", \"n\": }\n"),
      std::exception);
  EXPECT_THROW((void)parse_batch_items_json(
                   "{\"scenario\": \"grid\", \"n\": 99999999999999999999, "
                   "\"radius\": 1}\n"),
               std::exception);
  // Garbage without a scenario key parses to an empty batch.
  EXPECT_TRUE(parse_batch_items_json("hello\nworld\n").empty());
  // Numbers parse as whole tokens and in range: a sign, trailing junk
  // or a value past uint32_t must throw, not wrap or truncate.
  const auto with = [](std::string text, const std::string& from,
                       const std::string& to) {
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? text : text.replace(at, from.size(), to);
  };
  PlanResult result;
  result.backend = "greedy";
  result.ok = true;
  result.slots.period = 4;
  result.slots.slot.assign(3, 0);
  const std::string row = plan_results_to_json({result}, "grid");
  EXPECT_EQ(parse_plan_results_json(row).size(), 1u);
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"period\": 4", "\"period\": -1"},
           {"\"period\": 4", "\"period\": 12abc"},
           {"\"optimality_gap\": 0", "\"optimality_gap\": 1x"},
           {"\"channels\": 1", "\"channels\": 4294967297"}}) {
    EXPECT_THROW((void)parse_plan_results_json(with(row, from, to)),
                 std::invalid_argument)
        << to;
  }
  const std::string items = batch_items_to_json({BatchItem{}});
  EXPECT_EQ(parse_batch_items_json(items).size(), 1u);
  EXPECT_THROW(
      (void)parse_batch_items_json(with(items, "\"n\": 12", "\"n\": 12x")),
      std::invalid_argument);
  // Batch reports: truncated/garbage inputs throw.
  EXPECT_THROW((void)parse_batch_report_json(""), std::invalid_argument);
  EXPECT_THROW((void)parse_batch_report_json("{\"items\": [\n"),
               std::invalid_argument);
}

}  // namespace
}  // namespace latticesched
