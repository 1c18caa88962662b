// Wire protocol of the distributed planning service.
//
// Coordinator and workers exchange length-prefixed frames over a
// socketpair or TCP connection: a 4-byte little-endian payload length,
// then the payload — a verb line ("HELLO", "ASSIGN", "RESULT", "ERROR",
// "SHUTDOWN", "PING", "PONG", and the v6 session verbs "OPEN", "DELTA",
// "REPLAN", "SUBSCRIBE", "CLOSE", "EVENT", "OK") followed by a body
// whose content is the existing report JSON (core/report.hpp): ASSIGN
// bodies are a shard id line plus batch_items_to_json, RESULT bodies a
// shard id line plus batch_report_to_json.  PING/PONG are empty-bodied
// liveness probes: the coordinator PINGs a worker that missed a frame
// deadline.  A worker is a planning server connection on a socketpair
// (serve::PlanServer::serve_fd), and every such connection answers PONG
// from its reader thread even while it plans — only a truly wedged
// process stays silent.
// The session verbs carry a session-id first line (see
// src/serve/server.hpp for the frame schemas).  Text-over-frames keeps
// the protocol debuggable (dump any frame and read it) while the length
// prefix makes framing unambiguous regardless of payload content.
#pragma once

#include <cstdint>
#include <string>

namespace latticesched::dist {

/// Protocol version carried in the HELLO frame; a coordinator refuses a
/// worker speaking any other version (mixed-build deployments fail fast
/// instead of mis-parsing each other).
/// v2: batch items gained "steps"/"trace_script", report rows a "step"
/// column and item headers a "steps" count (dynamic scenarios) — a v1
/// worker would silently plan dynamic items as static.
/// v3: PING/PONG liveness verbs; batch reports gained the
/// "worker_timeouts"/"degraded"/"quarantined_items" footer fields — a
/// v2 coordinator would reject a v3 worker's RESULT bodies.
/// v4: batch reports gained the "search" footer line (work-stealing
/// subtree_tasks/steals counters and the dispatched mask kernel) — a v3
/// coordinator would drop a v4 worker's search counters silently.
/// v5: batch items gained "regions"/"region_halo" (spatial region
/// sharding knobs) and batch reports the "regions" footer line
/// (partition / seam / stitch counters) — a v4 worker would throw on a
/// v5 ASSIGN body's unknown keys.
/// v6: session verbs (OPEN/DELTA/REPLAN/SUBSCRIBE/CLOSE and the
/// server-pushed EVENT/OK replies) for the TCP planning server
/// (src/serve); the server's HELLO also carries a "role" field.  A v5
/// peer would treat every session verb as an unexpected frame, so both
/// sides refuse a mismatched HELLO up front.
/// v7: batch items gained "tune_trials"/"tune_budget_ms" (auto-backend
/// tuning budgets), report rows "tuned"/"tuned_config" provenance
/// columns and batch reports the "tuning" footer line (tune-cache
/// hit/miss/search/trial counters) — a v6 coordinator would silently
/// drop a v7 worker's tuning counters from the merged report.
/// v8: the CLOSE body moved to the batch-report footer's form — the
/// counters_to_json groups ("cache", "search", "regions", "tuning")
/// plus a "session" object — so a session now reports its tuning
/// counters; a v7 client cannot parse a v8 CLOSE body.
/// v9: the batch-report footer and the CLOSE body lost the "search"
/// group (the work-stealing search and the AVX2 kernels it counted are
/// gone) — a v8 peer would reject a v9 body for the missing group.
inline constexpr int kProtocolVersion = 9;

/// Frames larger than this are a protocol error, not an allocation —
/// guards the reader against garbage length prefixes.
inline constexpr std::uint32_t kMaxFrameBytes = 256u << 20;

struct WireMessage {
  /// HELLO | ASSIGN | RESULT | ERROR | SHUTDOWN | PING | PONG, plus the
  /// v6 session verbs OPEN | DELTA | REPLAN | SUBSCRIBE | CLOSE | EVENT
  /// | OK (src/serve).
  std::string verb;
  std::string body;  ///< verb-specific payload (may be empty)
};

/// Outcome of the frame I/O below.  kClosed covers EOF, EPIPE and
/// malformed frames alike — every case where the peer is unusable
/// rather than merely slow.
enum class WireIoStatus { kOk, kTimeout, kClosed };

/// Puts `fd` into O_NONBLOCK (required for a deadline to bound a read
/// or write); returns false when fcntl fails.
bool set_nonblocking(int fd);

/// Frame I/O.  `timeout_ms` < 0 waits forever and works on blocking
/// and O_NONBLOCK fds alike (a full send buffer or an empty receive
/// buffer polls and resumes, so a partial transfer never tears the
/// frame); a deadline needs a nonblocking fd.  The budget covers the
/// WHOLE frame, so a peer trickling bytes cannot stretch one frame
/// past one deadline.  A kTimeout may leave the stream mid-frame — the
/// protocol has no resync point, so the caller must treat the peer as
/// lost, not retry the call.  Writes never raise SIGPIPE.
WireIoStatus read_frame_deadline(int fd, WireMessage* out, int timeout_ms);
WireIoStatus write_frame_deadline(int fd, const WireMessage& message,
                                  int timeout_ms);

/// The no-deadline forms: true when a whole frame moved.
inline bool read_frame(int fd, WireMessage* out) {
  return read_frame_deadline(fd, out, -1) == WireIoStatus::kOk;
}
inline bool write_frame(int fd, const WireMessage& message) {
  return write_frame_deadline(fd, message, -1) == WireIoStatus::kOk;
}

/// The truncate-frame fault (dist/faults.hpp): an honest length prefix
/// followed by only half the payload, written best-effort.
void write_torn_frame(int fd, const WireMessage& message);

/// Splits "<first line>\n<rest>" — the shape of ASSIGN/RESULT bodies.
/// Missing newline leaves `rest` empty.
void split_body(const std::string& body, std::string* first_line,
                std::string* rest);

}  // namespace latticesched::dist
