// Deterministic fault injection for the distributed runtime.
//
// A FaultPlan is a seeded list of scripted failures — worker crashes,
// hangs, dropped or truncated frames, slow I/O, corrupted cache writes
// — parsed from a compact spec string so one flag (`--fault-plan`,
// internal) can reproduce any chaos scenario bit-for-bit.  The
// coordinator filters the plan per (worker slot, respawn generation)
// and forwards each worker its share on the command line.  Every
// planning server connection — the `--worker` fd as much as an accepted
// TCP client — gates its outbound frames through a WireFaultInjector,
// and the server installs a cache-write corruption hook when asked.
// Worker actions reach the `--worker` fd; serve actions reach accepted
// TCP connections (FaultPlan::for_connection).  Replaces the old ad-hoc
// `kill_worker_after_assign` test hook: every failure path the
// chaos-hardening layer handles is drivable from here, in-process and
// in CI alike.
//
// Spec grammar (semicolon-separated actions, order irrelevant):
//
//   spec    := [ "seed=" N ";" ] action ( ";" action )*
//   action  := target ":" kind ( ":" param )*
//   target  := "worker=" ( INDEX | "*" ) | "cache" | "serve"
//   kind    := "crash" | "hang-ms=" N | "drop-frame" | "truncate-frame"
//            | "delay-io-ms=" N | "corrupt-write"
//            | "drop-connection" | "delay-accept-ms=" N   (serve only)
//   param   := "after-frames=" N | "gens=" ( N | "all" ) | "nth=" N
//            | "worker=" ( INDEX | "*" )          (cache actions only)
//
// `after-frames=N` triggers when the worker is about to send its
// (N+1)-th counted frame — HELLO is frame 0, so `after-frames=1` fires
// on the first RESULT/ERROR.  PONG replies are NOT counted (their
// timing depends on when the coordinator probes, which would make the
// trigger nondeterministic).  `gens=K` applies the action to the first
// K spawn generations of the slot (default 1: the fault happens once
// and the respawned worker is healthy); `gens=all` keeps faulting every
// respawn.  `nth=K` picks which cache-entry write a `corrupt-write`
// flips a byte of (1-based, default 1).
//
// The `serve` target scripts TCP-side failures for the planning server
// (src/serve): `drop-connection` hard-closes a client connection right
// before its (after-frames+1)-th outbound frame — the session itself
// survives server-side and the client reconnects and resumes — and
// `delay-accept-ms=N` sleeps N ms before the server services a freshly
// accepted connection (a slow-accept backlog).  For serve actions,
// `gens=K` scopes the fault to the first K accepted connections
// (`gens=all` keeps faulting every connection); `after-frames` is
// per-connection.  FaultPlan::for_worker never forwards serve actions —
// they apply to the server's accepted TCP connections, not to workers.
//
// Examples:
//   worker=1:crash:after-frames=1        crash before the first RESULT
//   worker=0:hang-ms=60000:after-frames=1  wedge (PONGs blocked too)
//   worker=*:crash:after-frames=0:gens=all  every spawn dies pre-HELLO
//   cache:corrupt-write:nth=1            flip a byte of the 1st entry
//   serve:drop-connection:after-frames=2:gens=3  cut the first 3 conns
//   serve:delay-accept-ms=250:gens=1     stall servicing the 1st accept
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace latticesched::dist {

enum class FaultKind {
  kCrash,          ///< _Exit(137) instead of sending the frame
  kHangMs,         ///< sleep `ms` holding the send lock, then send
  kDropFrame,      ///< pretend the send succeeded, write nothing
  kTruncateFrame,  ///< write a partial frame, then wedge
  kDelayIoMs,      ///< sleep `ms` before this and every later frame
  kCorruptCacheWrite,  ///< flip one byte of the nth persisted entry
  kDropConnection,     ///< serve: hard-close the client connection
  kDelayAcceptMs,      ///< serve: sleep `ms` before servicing an accept
};

struct FaultAction {
  FaultKind kind = FaultKind::kCrash;
  /// Worker slot the action targets; -1 = every slot ("worker=*").
  int worker = -1;
  /// Counted outbound frames before the action fires (see file header).
  std::uint64_t after_frames = 0;
  /// kHangMs / kDelayIoMs duration.
  std::uint64_t ms = 0;
  /// kCorruptCacheWrite: which entry write to corrupt (1-based).
  std::uint64_t nth = 1;
  /// Spawn generations the action covers (0 = all, default 1).
  std::uint64_t gens = 1;
};

struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultAction> actions;

  bool empty() const { return actions.empty(); }
  bool has_cache_faults() const;
  /// Any serve-target action (kDropConnection / kDelayAcceptMs)?
  bool has_serve_faults() const;

  /// Parses the spec grammar above; throws std::invalid_argument with
  /// the offending token on malformed input.  "" parses to an empty
  /// plan.
  static FaultPlan parse(const std::string& spec);

  /// Inverse of parse (parse(to_spec()) reproduces the plan) — how the
  /// coordinator ships a filtered plan to a worker's command line.
  std::string to_spec() const;

  /// The sub-plan the coordinator forwards to spawn generation
  /// `generation` of worker slot `slot`: wire actions matching the slot
  /// and generation, plus matching cache actions.  Generation filtering
  /// happens HERE, coordinator-side — the worker applies everything it
  /// is handed.  Serve-target actions are never forwarded (they script
  /// accepted TCP connections, not the coordinator's socketpair).
  FaultPlan for_worker(std::size_t slot, std::uint64_t generation) const;

  /// The serve-target sub-plan for accepted connection number
  /// `connection` (0-based accept order): serve actions whose gens
  /// window covers the connection, shipped unscoped (gens=0) like
  /// for_worker does for slots.  Everything else is filtered out.
  FaultPlan for_connection(std::uint64_t connection) const;
};

/// A connection's per-frame fault gate.  Consulted (under the
/// connection's send lock) before every counted outbound frame; may
/// sleep (hang / delay) or terminate the process (crash), and tells the
/// caller what to do with the frame otherwise.
class WireFaultInjector {
 public:
  explicit WireFaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  /// kClose: drop-connection fired — hard-close instead of sending.
  enum class Decision { kSend, kDrop, kTruncate, kClose };

  /// Advances the frame counter and applies any action scheduled for
  /// this frame.  Does not return on kCrash.
  Decision on_frame();

  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  std::uint64_t frames_ = 0;
};

/// A TilingCache::set_write_corruption_hook function applying the
/// plan's corrupt-write actions: flips one seed-derived byte of each
/// targeted entry write.  Returns an empty function when the plan has
/// no cache faults.
std::function<void(std::string&)> cache_corruption_hook(
    const FaultPlan& plan);

}  // namespace latticesched::dist
