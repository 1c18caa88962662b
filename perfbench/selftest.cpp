// Tests of the benchmark's own arithmetic: the percentile and tail rule,
// span self time with nested and overlapping children, and the seeded
// delta generator (validity over many seeds, and its fleet model against
// a real PlanSession).  Run through `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.hpp"
#include "core/plan_session.hpp"
#include "core/scenario.hpp"
#include "deltas.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  using perfbench::percentile;
  expect(near(percentile({3, 1, 2}, 50), 2.0), "median of 3");
  expect(near(percentile({4, 1, 3, 2}, 50), 2.5), "median of 4");
  expect(near(percentile({1, 2, 3, 4, 5}, 0), 1.0), "p0 is the minimum");
  expect(near(percentile({1, 2, 3, 4, 5}, 100), 5.0), "p100 is the maximum");
  expect(near(percentile({0, 10}, 90), 9.0), "p90 interpolates");
  bool threw = false;
  try {
    (void)percentile({}, 50);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "empty sample throws");
}

void test_tail_rule() {
  using perfbench::tail_supported;
  expect(tail_supported(1, 50), "one sample supports the median");
  expect(!tail_supported(0, 50), "no sample supports nothing");
  expect(tail_supported(100, 90), "100 samples support p90");
  expect(!tail_supported(99, 90), "99 samples do not support p90");
  expect(tail_supported(1000, 99), "1000 samples support p99");
  expect(!tail_supported(999, 99), "999 samples do not support p99");
  expect(!tail_supported(40, 90), "a 40-op run has no p90");
}

perfbench::Span span(const char* name, int parent, double start, double end,
                     std::uint64_t op = 0) {
  perfbench::Span s;
  s.name = name;
  s.op = op;
  s.parent = parent;
  s.start_ms = start;
  s.end_ms = end;
  return s;
}

void test_self_time() {
  // op [0, 10] with children a [1, 4] and b [3, 6] (overlapping, so
  // [1, 6] is covered once), a's child c [2, 3], and d [9, 12] running
  // past the parent's end (clipped to [9, 10]).
  const std::vector<perfbench::Span> spans = {
      span("service.op", -1, 0, 10), span("planner.a", 0, 1, 4),
      span("planner.b", 0, 3, 6),    span("collision.c", 1, 2, 3),
      span("report.d", 0, 9, 12),    span("service.op", -1, 20, 25, 1),
  };
  const std::vector<double> self = perfbench::self_times(spans);
  expect(near(self[0], 10 - 5 - 1), "root minus the union of its children");
  expect(near(self[1], 3 - 1), "nested child subtracts its own child");
  expect(near(self[2], 3), "leaf self time is its duration");
  expect(near(self[3], 1), "grandchild leaf");
  expect(near(self[4], 3), "child past its parent keeps its own duration");
  expect(near(self[5], 5), "second op root");

  const std::vector<perfbench::OpProfile> ops =
      perfbench::profile_ops(spans, {{{"x", 1}}, {{"x", 2}}});
  expect(ops.size() == 2, "one profile per op");
  expect(near(ops[0].op_ms, 10) && near(ops[1].op_ms, 5), "op times");
  expect(near(ops[0].layer_self_ms.at("planner"), 5), "planner self time");
  expect(near(ops[0].layer_self_ms.at("service"), 4), "service self time");
  expect(near(ops[0].span_ms.at("planner.a"), 3), "span duration");
  expect(near(ops[1].counters.at("x"), 2), "counters stay per op");
  expect(perfbench::layer_of("planner.welsh-powell") == "planner", "layer");
}

void test_tracer_nesting() {
  perfbench::Tracer tracer;
  tracer.begin_op();
  {
    const perfbench::Tracer::Scope root = tracer.span("service.op");
    tracer.timed("scenario.build", [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    const int v = tracer.timed("planner.x", [&] {
      return tracer.timed("collision.verify", [] { return 7; });
    });
    expect(v == 7, "timed returns the call's value");
    tracer.count("collision.checks", 1);
  }
  const std::vector<perfbench::Span>& s = tracer.spans();
  expect(s.size() == 4, "four spans");
  expect(s[0].parent == -1 && s[1].parent == 0 && s[2].parent == 0 &&
             s[3].parent == 2,
         "parents follow the nesting");
  expect(s[1].end_ms - s[1].start_ms >= 2.0, "span covers the call");
  expect(s[0].end_ms >= s[2].end_ms, "root closes last");
  expect(tracer.counters().front().at("collision.checks") == 1, "counter");
}

std::vector<perfbench::Cell> grid_cells(std::int64_t n) {
  const latticesched::ScenarioInstance inst =
      latticesched::ScenarioRegistry::global().build("grid", {n, 1});
  std::vector<perfbench::Cell> cells;
  for (const latticesched::Point& p : inst.deployment.positions()) {
    cells.emplace_back(p[0], p[1]);
  }
  return cells;
}

void test_delta_validity() {
  const std::vector<perfbench::Cell> initial = grid_cells(48);
  int bad = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    for (std::uint64_t client = 0; client < 2; ++client) {
      perfbench::DeltaGenerator gen(initial, seed, client);
      for (int i = 0; i < 200; ++i) {
        const std::vector<perfbench::Cell> pre = gen.fleet();
        const std::vector<perfbench::Mutation> delta = gen.next();
        const std::string why = perfbench::validate_delta(
            pre, initial, gen.min_size(), delta);
        if (delta.size() != 4 || !why.empty() ||
            gen.fleet() != perfbench::apply_delta(pre, delta)) {
          if (bad++ < 3) {
            std::printf("  seed %llu client %llu delta %d: %s\n",
                        static_cast<unsigned long long>(seed),
                        static_cast<unsigned long long>(client), i,
                        why.empty() ? "size or model mismatch" : why.c_str());
          }
        }
      }
    }
  }
  expect(bad == 0, "every generated delta is valid (100 seeds x 2 clients)");
  expect(initial.size() - initial.size() / 50 ==
             perfbench::DeltaGenerator(initial, 1, 0).min_size(),
         "the band is 2% of the starting fleet");

  perfbench::DeltaGenerator a(initial, 7, 0), b(initial, 7, 0),
      c(initial, 7, 1);
  const std::string sa = perfbench::to_script(a.next());
  expect(sa == perfbench::to_script(b.next()), "same seed, same deltas");
  expect(sa != perfbench::to_script(c.next()), "clients draw apart");

  // A delta that repeats a position, or removes a missing sensor, is
  // rejected by the validator.
  using K = perfbench::Mutation::Kind;
  const std::vector<perfbench::Cell> pre = {{0, 0}, {0, 1}, {1, 0}};
  const std::vector<perfbench::Cell> window = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  expect(!perfbench::validate_delta(
              pre, window, 0,
              {{K::kRemove, {0, 0}, {}}, {K::kRemove, {0, 0}, {}}})
              .empty(),
         "validator rejects a repeated position");
  expect(!perfbench::validate_delta(pre, window, 0,
                                    {{K::kRemove, {1, 1}, {}}})
              .empty(),
         "validator rejects removing an empty cell");
  expect(!perfbench::validate_delta(pre, window, 0, {{K::kAdd, {0, 1}, {}}})
              .empty(),
         "validator rejects adding onto a sensor");
  expect(perfbench::validate_delta(pre, window, 0,
                                   {{K::kMove, {0, 1}, {1, 1}}})
             .empty(),
         "validator accepts a move to a free cell");
}

void test_model_matches_session() {
  // The generator's fleet model must list sensors in the order the
  // session holds them, or the cold plan of the final fleet would color
  // a permuted graph.
  const latticesched::ScenarioInstance inst =
      latticesched::ScenarioRegistry::global().build("grid", {12, 1});
  latticesched::PlanSession session(inst.deployment);
  std::vector<perfbench::Cell> initial;
  for (const latticesched::Point& p : inst.deployment.positions()) {
    initial.emplace_back(p[0], p[1]);
  }
  perfbench::DeltaGenerator gen(initial, 3, 0);
  bool same = true;
  for (int i = 0; i < 60 && same; ++i) {
    const latticesched::MutationTrace trace =
        latticesched::parse_mutation_script(perfbench::to_script(gen.next()));
    session.apply(trace.steps.front().delta);
    const latticesched::PointVec& pos = session.deployment().positions();
    same = pos.size() == gen.fleet().size();
    for (std::size_t j = 0; same && j < pos.size(); ++j) {
      same = pos[j][0] == gen.fleet()[j].first &&
             pos[j][1] == gen.fleet()[j].second;
    }
  }
  expect(same, "fleet model keeps the session's sensor order");
}

}  // namespace

int main() {
  test_percentiles();
  test_tail_rule();
  test_self_time();
  test_tracer_nesting();
  test_delta_validity();
  test_model_matches_session();
  if (g_failures == 0) {
    std::printf("perfbench selftest: all checks passed\n");
    return 0;
  }
  std::printf("perfbench selftest: %d check(s) failed\n", g_failures);
  return 1;
}
