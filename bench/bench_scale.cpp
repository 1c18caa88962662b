// Million-sensor scale benchmarks — the BENCH_scale.json trajectory.
//
// The report section measures what spatial region sharding
// (core/region_shard.hpp) buys at deployment sizes where the
// materialized all-pairs conflict graph stops being an option:
//
//  1. region x thread sweep on a mid-size grid: the region-greedy
//     backend (streaming per-region conflict blocks + seam stitch)
//     against the unsharded greedy backend (full conflict graph), at
//     1 thread and at the pool default.  Acceptance target: >= 2x at
//     >= 4 regions on multicore.  On a 1-vCPU container the region
//     path has no parallelism to exploit and the sweep reads ~1x —
//     expected, and why the records carry a `threads` column.
//  2. stitch-cost sweep: seam sensors and stitch recolors as a function
//     of region count at fixed fleet size (finer partitions = more
//     seam, cheaper blocks).
//  3. the headline: a 1,000,000-sensor grid planned end-to-end by the
//     region path, with the peak-RSS column recording the memory
//     ceiling the run actually hit.
//
// Records land in BENCH_scale.json (path override:
// LATTICESCHED_BENCH_SCALE_JSON) and upload as a CI artifact.
// Verification is off throughout: the checker is identical on both
// sides and would only blur the planning cost under measurement.
#include "bench_common.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/region_shard.hpp"
#include "core/scenario.hpp"
#include "util/parallel.hpp"

namespace latticesched {
namespace {

using Clock = std::chrono::steady_clock;

struct ScaleRecord {
  std::string name;
  std::size_t sensors = 0;
  std::size_t regions = 0;
  std::size_t threads = 0;
  double wall_ms = 0.0;
  double speedup = 0.0;  // unsharded wall / this wall (0 = no baseline)
  std::uint64_t seam_sensors = 0;
  std::uint64_t stitch_recolored = 0;
  double peak_rss_mb = 0.0;
  /// Knob-sweep provenance (tune::KnobSpace names): set on records that
  /// measure one knob setting, so tooling can join sweeps against the
  /// registry without parsing record names.
  std::string knob;
  double value = 0.0;
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
    char buf[640];
    std::string knob_fields;
    if (!rs[i].knob.empty()) {
      char kb[128];
      std::snprintf(kb, sizeof kb, ", \"knob\": \"%s\", \"value\": %g",
                    rs[i].knob.c_str(), rs[i].value);
      knob_fields = kb;
    }
    std::snprintf(
        buf, sizeof buf,
        "    {\"name\": \"%s\", \"sensors\": %zu, \"regions\": %zu, "
        "\"threads\": %zu, \"wall_ms\": %.3f, \"speedup\": %.2f, "
        "\"seam_sensors\": %llu, \"stitch_recolored\": %llu, "
        "\"peak_rss_mb\": %.1f%s}%s\n",
        rs[i].name.c_str(), rs[i].sensors, rs[i].regions, rs[i].threads,
        rs[i].wall_ms, rs[i].speedup,
        static_cast<unsigned long long>(rs[i].seam_sensors),
        static_cast<unsigned long long>(rs[i].stitch_recolored),
        rs[i].peak_rss_mb, knob_fields.c_str(), i + 1 < rs.size() ? "," : "");
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

/// Min wall over `reps` region plans; the last rep's stats stick.
double region_ms(const Deployment& d, std::size_t regions, int reps,
                 RegionShardStats* stats) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    if (stats != nullptr) *stats = RegionShardStats{};
    const Clock::time_point t0 = Clock::now();
    benchmark::DoNotOptimize(plan_regions(d, regions, stats));
    best = std::min(
        best, std::chrono::duration<double>(Clock::now() - t0).count() * 1e3);
  }
  return best;
}

/// Min wall over `reps` unsharded plans (full conflict graph + greedy
/// first-fit) — the baseline the sharded sweep is judged against.
double unsharded_ms(const Deployment& d, int reps) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    const Graph g = build_conflict_graph(d);
    benchmark::DoNotOptimize(greedy_coloring(g));
    best = std::min(
        best, std::chrono::duration<double>(Clock::now() - t0).count() * 1e3);
  }
  return best;
}

void report() {
  bench::section("region sharding vs unsharded greedy (region x threads)");

  const std::size_t pool_threads = parallel_threads();
  const std::int64_t kSweepSensors = 20000;
  const Deployment sweep = large_grid(kSweepSensors);
  const int reps = 3;

  for (const std::size_t threads :
       std::vector<std::size_t>{1, pool_threads}) {
    set_parallel_threads(threads);
    const double baseline = unsharded_ms(sweep, reps);
    ScaleRecord base;
    base.name = "unsharded_greedy_t" + std::to_string(threads);
    base.sensors = sweep.size();
    base.regions = 1;
    base.threads = threads;
    base.wall_ms = baseline;
    base.speedup = 1.0;
    base.peak_rss_mb = bench::peak_rss_mb();
    records().push_back(base);
    std::printf("threads=%zu unsharded (full graph): %.2fms\n", threads,
                baseline);
    for (const std::size_t regions : {1, 4, 16}) {
      RegionShardStats stats;
      const double ms = region_ms(sweep, regions, reps, &stats);
      ScaleRecord rec;
      rec.name = "region_greedy_r" + std::to_string(regions) + "_t" +
                 std::to_string(threads);
      rec.sensors = sweep.size();
      rec.regions = regions;
      rec.threads = threads;
      rec.wall_ms = ms;
      rec.speedup = baseline / ms;
      rec.seam_sensors = stats.seam_sensors;
      rec.stitch_recolored = stats.stitch_recolored;
      rec.peak_rss_mb = bench::peak_rss_mb();
      rec.knob = "regions";
      rec.value = static_cast<double>(regions);
      records().push_back(rec);
      std::printf(
          "threads=%zu regions=%zu: %.2fms (%.2fx vs unsharded), %llu "
          "seam sensor(s), %llu recolor(s)\n",
          threads, regions, ms, rec.speedup,
          static_cast<unsigned long long>(stats.seam_sensors),
          static_cast<unsigned long long>(stats.stitch_recolored));
    }
    if (pool_threads == 1) break;  // both sweep points are the same
  }
  set_parallel_threads(pool_threads);

  bench::section("stitch cost vs region count (fixed fleet)");
  for (const std::size_t regions : {4, 16, 64}) {
    RegionShardStats stats;
    const double ms = region_ms(sweep, regions, 1, &stats);
    std::printf(
        "regions=%zu: %.2fms, seam %llu / %zu sensors (%.1f%%), %llu "
        "stitch recolor(s)\n",
        regions, ms, static_cast<unsigned long long>(stats.seam_sensors),
        sweep.size(),
        100.0 * static_cast<double>(stats.seam_sensors) /
            static_cast<double>(sweep.size()),
        static_cast<unsigned long long>(stats.stitch_recolored));
  }

  bench::section("million-sensor grid (region path, bounded memory)");
  {
    const Deployment million = large_grid(1000000);
    RegionShardStats stats;
    const Clock::time_point t0 = Clock::now();
    const Coloring colors = plan_regions(million, 64, &stats);
    const double ms =
        std::chrono::duration<double>(Clock::now() - t0).count() * 1e3;
    std::uint32_t period = 0;
    for (std::uint32_t c : colors) period = std::max(period, c + 1);
    ScaleRecord rec;
    rec.name = "million_sensor_grid_r64";
    rec.sensors = million.size();
    rec.regions = 64;
    rec.threads = pool_threads;
    rec.wall_ms = ms;
    rec.seam_sensors = stats.seam_sensors;
    rec.stitch_recolored = stats.stitch_recolored;
    rec.peak_rss_mb = bench::peak_rss_mb();
    records().push_back(rec);
    std::printf(
        "1,000,000 sensors, 64 regions: %.0fms, period %u, %llu seam "
        "sensor(s), peak RSS %.1f MiB\n",
        ms, period, static_cast<unsigned long long>(stats.seam_sensors),
        rec.peak_rss_mb);
  }

  write_bench_json();
}

void BM_RegionPlan20k(benchmark::State& state) {
  static const Deployment* d = new Deployment(large_grid(20000));
  const auto regions = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_regions(*d, regions, nullptr));
  }
}
BENCHMARK(BM_RegionPlan20k)->Arg(1)->Arg(4)->Arg(16);

void BM_ConflictBlock(benchmark::State& state) {
  static const Deployment* d = new Deployment(large_grid(20000));
  static const RegionGrid* grid = new RegionGrid(partition_regions(*d, 16));
  for (auto _ : state) {
    for (const auto& members : grid->members) {
      benchmark::DoNotOptimize(build_conflict_block(*d, members));
    }
  }
}
BENCHMARK(BM_ConflictBlock);

}  // namespace
}  // namespace latticesched

REPRODUCTION_MAIN(latticesched::report)
