#include "dist/faults.hpp"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/cli.hpp"

namespace latticesched::dist {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream is(s);
  while (std::getline(is, token, sep)) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

/// "key=value" -> value, throwing with the full token on mismatch.
std::string value_of(const std::string& token, const std::string& key) {
  const std::string prefix = key + "=";
  if (token.rfind(prefix, 0) != 0) {
    throw std::invalid_argument("fault-plan: expected '" + key +
                                "=...' in '" + token + "'");
  }
  return token.substr(prefix.size());
}

int parse_worker_target(const std::string& text) {
  if (text == "*") return -1;
  const std::uint64_t v = parse_u64(text, "fault-plan worker index");
  if (v > 4096) {
    throw std::invalid_argument("fault-plan: worker index out of range '" +
                                text + "'");
  }
  return static_cast<int>(v);
}

FaultAction parse_action(const std::string& text) {
  const std::vector<std::string> fields = split(text, ':');
  if (fields.size() < 2) {
    throw std::invalid_argument("fault-plan: action '" + text +
                                "' needs target:kind");
  }
  FaultAction action;
  std::size_t next = 1;
  const bool cache_target = fields[0] == "cache";
  if (fields[0] == "serve") {
    const std::string& kind = fields[1];
    if (kind == "drop-connection") {
      action.kind = FaultKind::kDropConnection;
    } else if (kind.rfind("delay-accept-ms=", 0) == 0) {
      action.kind = FaultKind::kDelayAcceptMs;
      action.ms =
          parse_u64(kind.substr(16), "fault-plan delay-accept-ms");
    } else {
      throw std::invalid_argument("fault-plan: serve target only supports "
                                  "drop-connection / delay-accept-ms, got '" +
                                  kind + "'");
    }
    for (next = 2; next < fields.size(); ++next) {
      const std::string& param = fields[next];
      if (param.rfind("after-frames=", 0) == 0) {
        action.after_frames =
            parse_u64(param.substr(13), "fault-plan after-frames");
      } else if (param.rfind("gens=", 0) == 0) {
        const std::string v = param.substr(5);
        action.gens = v == "all" ? 0 : parse_u64(v, "fault-plan gens");
      } else {
        throw std::invalid_argument("fault-plan: unknown param '" + param +
                                    "'");
      }
    }
    return action;
  }
  if (cache_target) {
    action.kind = FaultKind::kCorruptCacheWrite;
    if (fields[1] != "corrupt-write") {
      throw std::invalid_argument("fault-plan: cache target only supports "
                                  "corrupt-write, got '" +
                                  fields[1] + "'");
    }
    next = 2;
  } else {
    action.worker = parse_worker_target(value_of(fields[0], "worker"));
    const std::string& kind = fields[1];
    if (kind == "crash") {
      action.kind = FaultKind::kCrash;
    } else if (kind == "drop-frame") {
      action.kind = FaultKind::kDropFrame;
    } else if (kind == "truncate-frame") {
      action.kind = FaultKind::kTruncateFrame;
    } else if (kind.rfind("hang-ms=", 0) == 0) {
      action.kind = FaultKind::kHangMs;
      action.ms = parse_u64(kind.substr(8), "fault-plan hang-ms");
    } else if (kind.rfind("delay-io-ms=", 0) == 0) {
      action.kind = FaultKind::kDelayIoMs;
      action.ms = parse_u64(kind.substr(12), "fault-plan delay-io-ms");
    } else {
      throw std::invalid_argument("fault-plan: unknown kind '" + kind +
                                  "'");
    }
    next = 2;
  }
  for (; next < fields.size(); ++next) {
    const std::string& param = fields[next];
    if (param.rfind("after-frames=", 0) == 0) {
      action.after_frames =
          parse_u64(param.substr(13), "fault-plan after-frames");
    } else if (param.rfind("gens=", 0) == 0) {
      const std::string v = param.substr(5);
      action.gens = v == "all" ? 0 : parse_u64(v, "fault-plan gens");
    } else if (param.rfind("nth=", 0) == 0) {
      if (action.kind != FaultKind::kCorruptCacheWrite) {
        throw std::invalid_argument(
            "fault-plan: nth= only applies to corrupt-write");
      }
      action.nth = parse_u64(param.substr(4), "fault-plan nth");
      if (action.nth == 0) {
        throw std::invalid_argument("fault-plan: nth is 1-based");
      }
    } else if (cache_target && param.rfind("worker=", 0) == 0) {
      action.worker = parse_worker_target(param.substr(7));
    } else {
      throw std::invalid_argument("fault-plan: unknown param '" + param +
                                  "'");
    }
  }
  return action;
}

}  // namespace

namespace {

bool is_serve_kind(FaultKind kind) {
  return kind == FaultKind::kDropConnection ||
         kind == FaultKind::kDelayAcceptMs;
}

}  // namespace

bool FaultPlan::has_cache_faults() const {
  for (const FaultAction& action : actions) {
    if (action.kind == FaultKind::kCorruptCacheWrite) return true;
  }
  return false;
}

bool FaultPlan::has_serve_faults() const {
  for (const FaultAction& action : actions) {
    if (is_serve_kind(action.kind)) return true;
  }
  return false;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& token : split(spec, ';')) {
    if (token.rfind("seed=", 0) == 0) {
      plan.seed = parse_u64(token.substr(5), "fault-plan seed");
      continue;
    }
    plan.actions.push_back(parse_action(token));
  }
  return plan;
}

std::string FaultPlan::to_spec() const {
  std::ostringstream os;
  os << "seed=" << seed;
  for (const FaultAction& action : actions) {
    os << ';';
    if (action.kind == FaultKind::kCorruptCacheWrite) {
      os << "cache:corrupt-write:nth=" << action.nth;
      if (action.worker >= 0) os << ":worker=" << action.worker;
    } else if (is_serve_kind(action.kind)) {
      os << "serve:";
      if (action.kind == FaultKind::kDropConnection) {
        os << "drop-connection";
      } else {
        os << "delay-accept-ms=" << action.ms;
      }
      os << ":after-frames=" << action.after_frames;
    } else {
      os << "worker=";
      if (action.worker < 0) {
        os << '*';
      } else {
        os << action.worker;
      }
      switch (action.kind) {
        case FaultKind::kCrash:
          os << ":crash";
          break;
        case FaultKind::kDropFrame:
          os << ":drop-frame";
          break;
        case FaultKind::kTruncateFrame:
          os << ":truncate-frame";
          break;
        case FaultKind::kHangMs:
          os << ":hang-ms=" << action.ms;
          break;
        case FaultKind::kDelayIoMs:
          os << ":delay-io-ms=" << action.ms;
          break;
        case FaultKind::kCorruptCacheWrite:
        case FaultKind::kDropConnection:
        case FaultKind::kDelayAcceptMs:
          break;  // handled above
      }
      os << ":after-frames=" << action.after_frames;
    }
    if (action.gens != 1) {
      os << ":gens=";
      if (action.gens == 0) {
        os << "all";
      } else {
        os << action.gens;
      }
    }
  }
  return os.str();
}

FaultPlan FaultPlan::for_worker(std::size_t slot,
                                std::uint64_t generation) const {
  FaultPlan sub;
  sub.seed = seed;
  for (const FaultAction& action : actions) {
    if (is_serve_kind(action.kind)) continue;  // server-side only
    if (action.worker >= 0 &&
        static_cast<std::size_t>(action.worker) != slot) {
      continue;
    }
    if (action.gens != 0 && generation >= action.gens) continue;
    FaultAction forwarded = action;
    // The worker applies everything it receives; the slot/generation
    // scoping was just resolved, so ship the action unscoped.
    forwarded.worker = -1;
    forwarded.gens = 0;
    sub.actions.push_back(forwarded);
  }
  return sub;
}

FaultPlan FaultPlan::for_connection(std::uint64_t connection) const {
  FaultPlan sub;
  sub.seed = seed;
  for (const FaultAction& action : actions) {
    if (!is_serve_kind(action.kind)) continue;
    if (action.gens != 0 && connection >= action.gens) continue;
    FaultAction forwarded = action;
    forwarded.gens = 0;
    sub.actions.push_back(forwarded);
  }
  return sub;
}

WireFaultInjector::Decision WireFaultInjector::on_frame() {
  const std::uint64_t frame = frames_++;
  Decision decision = Decision::kSend;
  for (const FaultAction& action : plan_.actions) {
    switch (action.kind) {
      case FaultKind::kCrash:
        if (frame == action.after_frames) {
          // Raw exit, no unwinding — a SIGKILLed process is the model.
          std::_Exit(137);
        }
        break;
      case FaultKind::kHangMs:
        if (frame == action.after_frames) {
          std::this_thread::sleep_for(std::chrono::milliseconds(action.ms));
        }
        break;
      case FaultKind::kDelayIoMs:
        if (frame >= action.after_frames) {
          std::this_thread::sleep_for(std::chrono::milliseconds(action.ms));
        }
        break;
      case FaultKind::kDropFrame:
        if (frame == action.after_frames) decision = Decision::kDrop;
        break;
      case FaultKind::kTruncateFrame:
        if (frame == action.after_frames) decision = Decision::kTruncate;
        break;
      case FaultKind::kCorruptCacheWrite:
      case FaultKind::kDropConnection:
      case FaultKind::kDelayAcceptMs:
        break;  // handled by the cache hook / PlanServer, not the wire
    }
  }
  return decision;
}

std::function<void(std::string&)> cache_corruption_hook(
    const FaultPlan& plan) {
  std::vector<FaultAction> targets;
  for (const FaultAction& action : plan.actions) {
    if (action.kind == FaultKind::kCorruptCacheWrite) {
      targets.push_back(action);
    }
  }
  if (targets.empty()) return {};
  // Shared counter: the hook is copied into the cache but must count
  // writes across copies.
  auto writes = std::make_shared<std::uint64_t>(0);
  const std::uint64_t seed = plan.seed;
  return [targets, writes, seed](std::string& content) {
    const std::uint64_t nth = ++*writes;
    for (const FaultAction& action : targets) {
      if (action.nth != nth || content.empty()) continue;
      // Deterministic single-byte flip somewhere in the body: position
      // from the seed, value XORed so the byte always changes.
      const std::uint64_t pos =
          (seed * 0x9e3779b97f4a7c15ull + nth) % content.size();
      content[pos] = static_cast<char>(content[pos] ^ 0x20);
    }
  };
}

}  // namespace latticesched::dist
