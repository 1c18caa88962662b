// Million-sensor scale benchmarks — the BENCH_scale.json trajectory.
//
// The report section measures the greedy table at deployment sizes
// where the materialized all-pairs conflict graph stops being an
// option:
//
//  1. streamed vs full graph on a 20k-sensor grid: plan_greedy
//     (core/region_shard.hpp; first-fit over conflict rows streamed one
//     at a time, the cold plan of `greedy` and `region-greedy`) against
//     build_conflict_graph + greedy_coloring, the same table.
//  2. the headline: a 1,000,000-sensor grid planned by plan_greedy, with
//     the peak-RSS column recording the memory ceiling the run hit.
//
// Records land in BENCH_scale.json (path override:
// LATTICESCHED_BENCH_SCALE_JSON) and upload as a CI artifact.
// Verification is off throughout: the checker is identical on both
// sides and would only blur the planning cost under measurement.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/region_shard.hpp"
#include "core/scenario.hpp"

namespace latticesched {
namespace {

using Clock = std::chrono::steady_clock;

struct ScaleRecord {
  std::string name;
  std::size_t sensors = 0;
  double wall_ms = 0.0;
  double speedup = 0.0;  // full-graph wall / this wall (0 = no baseline)
  double peak_rss_mb = 0.0;
};

std::vector<ScaleRecord>& records() {
  static std::vector<ScaleRecord> r;
  return r;
}

void write_bench_json() {
  const char* env = std::getenv("LATTICESCHED_BENCH_SCALE_JSON");
  const std::string path = env != nullptr ? env : "BENCH_scale.json";
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
                  "    {\"name\": \"%s\", \"sensors\": %zu, \"wall_ms\": "
                  "%.3f, \"speedup\": %.2f, \"peak_rss_mb\": %.1f}%s\n",
                  rs[i].name.c_str(), rs[i].sensors, rs[i].wall_ms,
                  rs[i].speedup, rs[i].peak_rss_mb,
                  i + 1 < rs.size() ? "," : "");
    os << buf;
  }
  os << "  ]\n}\n";
  std::printf("\nwrote %zu benchmark records to %s\n", rs.size(),
              path.c_str());
}

Deployment large_grid(std::int64_t sensors) {
  ScenarioParams params;
  params.n = sensors;
  return ScenarioRegistry::global().build("grid-large", params).deployment;
}

/// Min wall over `reps` runs of `plan`, which returns a greedy table.
template <typename Plan>
double best_ms(int reps, Plan plan) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    benchmark::DoNotOptimize(plan());
    best = std::min(
        best, std::chrono::duration<double>(Clock::now() - t0).count() * 1e3);
  }
  return best;
}

void add_record(const std::string& name, std::size_t sensors, double ms,
                double speedup) {
  records().push_back(
      ScaleRecord{name, sensors, ms, speedup, bench::peak_rss_mb()});
}

void report() {
  bench::section("streamed greedy vs full-graph greedy (20k sensors)");
  {
    const Deployment d = large_grid(20000);
    const int reps = 5;
    const double full = best_ms(
        reps, [&] { return greedy_coloring(build_conflict_graph(d)); });
    const double streamed = best_ms(reps, [&] { return plan_greedy(d); });
    add_record("full_graph_greedy_20k", d.size(), full, 1.0);
    add_record("streamed_greedy_20k", d.size(), streamed, full / streamed);
    std::printf(
        "%zu sensors: full graph %.2fms, streamed %.2fms (%.2fx)\n",
        d.size(), full, streamed, full / streamed);
  }

  bench::section("million-sensor grid (streamed greedy, bounded memory)");
  {
    const Deployment million = large_grid(1000000);
    const Clock::time_point t0 = Clock::now();
    const Coloring colors = plan_greedy(million);
    const double ms =
        std::chrono::duration<double>(Clock::now() - t0).count() * 1e3;
    add_record("million_sensor_grid", million.size(), ms, 0.0);
    std::printf("1,000,000 sensors: %.0fms, period %u, peak RSS %.1f MiB\n",
                ms, color_count(colors), records().back().peak_rss_mb);
  }

  write_bench_json();
}

void BM_PlanGreedy20k(benchmark::State& state) {
  static const Deployment* d = new Deployment(large_grid(20000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_greedy(*d));
  }
}
BENCHMARK(BM_PlanGreedy20k);

void BM_ConflictRows20k(benchmark::State& state) {
  static const Deployment* d = new Deployment(large_grid(20000));
  const ConflictRows rows(*d);
  std::vector<std::uint32_t> row;
  for (auto _ : state) {
    for (std::uint32_t u = 0; u < d->size(); ++u) {
      rows.build(u, row);
      benchmark::DoNotOptimize(row.data());
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ConflictRows20k);

}  // namespace
}  // namespace latticesched

REPRODUCTION_MAIN(latticesched::report)
