// Spans of the traced replay.
//
// The traced run replays a workload's op as direct calls into the
// library's public functions and wraps each call in a span named
// "<layer>.<call>" (the layer is the text before the first '.').  Spans
// stay in memory, tagged with their op id and parent span, and are
// written out once the run ends; counters are recorded per op at the
// same boundaries.  A layer's self time is its spans' durations minus
// the part of each span its child spans cover.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t op = 0;
  int parent = -1;  ///< index of the enclosing span; -1 for an op's root
  double start_ms = 0.0;
  double end_ms = 0.0;
};

class Tracer {
 public:
  Tracer();

  /// An open span; closing it (destruction) stamps its end.  Scopes must
  /// close innermost first, which block scoping guarantees.
  class Scope {
   public:
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    friend class Tracer;
    explicit Scope(Tracer* tracer) : tracer_(tracer) {}
    Tracer* tracer_;
  };

  /// Starts a new op: later spans and counters belong to it.
  void begin_op();
  std::uint64_t ops() const { return counters_.size(); }

  /// Opens a span as a child of the innermost open span.
  [[nodiscard]] Scope span(std::string name);

  /// Runs `fn` inside a span named `name` and returns its result.
  template <typename Fn>
  decltype(auto) timed(std::string name, Fn&& fn) {
    const Scope scope = span(std::move(name));
    return fn();
  }

  /// Adds `value` to the current op's counter `name`.
  void count(const std::string& name, double value);

  const std::vector<Span>& spans() const { return spans_; }
  /// Counters per op id.
  const std::vector<std::map<std::string, double>>& counters() const {
    return counters_;
  }

  /// Every span (with its self time) and every op's counters as JSON.
  std::string to_json() const;

 private:
  double now_ms() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::vector<std::map<std::string, double>> counters_;
};

/// Layer of a span name: the text before its first '.'.
std::string layer_of(const std::string& name);

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it (overlapping children count once).
std::vector<double> self_times(const std::vector<Span>& spans);

/// One op of the replay, aggregated from its spans.
struct OpProfile {
  double op_ms = 0.0;                           ///< root spans' duration
  std::map<std::string, double> span_ms;        ///< duration per span name
  std::map<std::string, double> layer_self_ms;  ///< self time per layer
  std::map<std::string, double> counters;
};

/// Per-op profiles, indexed by op id.
std::vector<OpProfile> profile_ops(const std::vector<Span>& spans,
                                   const std::vector<std::map<std::string,
                                                              double>>& counters);

}  // namespace perfbench
