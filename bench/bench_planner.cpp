// Batch planning service benchmarks — the BENCH_planner.json trajectory.
//
// The report section measures the production workload shape: a batch
// over the FULL scenario registry plus a radius sweep, cold (empty
// TilingCache — every distinct neighborhood pays its torus search) and
// warm (same service, second identical batch — every search hits the
// cache).  Headline numbers: batch throughput (scenarios/s), the
// warm-vs-cold speedup, and the cache hit rate, all recorded in
// machine-readable BENCH_planner.json (path override:
// LATTICESCHED_BENCH_PLANNER_JSON) and uploaded as a CI artifact.
#include "bench_common.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/plan_service.hpp"
#include "core/scenario.hpp"
#include "core/tiling_cache.hpp"
#include "tiling/shapes.hpp"
#include "util/parallel.hpp"

namespace latticesched {
namespace {

using Clock = std::chrono::steady_clock;

struct PlannerRecord {
  std::string name;
  double ms = 0.0;              // wall time of the measured batch
  double items_per_second = 0.0;
  double speedup = 0.0;         // vs the paired cold baseline
  double cache_hit_rate = 0.0;  // hits / (hits + misses) of the run
};

std::vector<PlannerRecord>& records() {
  static std::vector<PlannerRecord> r;
  return r;
}

void write_bench_json() {
  const char* env = std::getenv("LATTICESCHED_BENCH_PLANNER_JSON");
  const std::string path = env != nullptr ? env : "BENCH_planner.json";
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
                  "    {\"name\": \"%s\", \"ms\": %.3f, "
                  "\"items_per_second\": %.1f, \"speedup\": %.2f, "
                  "\"cache_hit_rate\": %.3f}%s\n",
                  rs[i].name.c_str(), rs[i].ms, rs[i].items_per_second,
                  rs[i].speedup, rs[i].cache_hit_rate,
                  i + 1 < rs.size() ? "," : "");
    os << buf;
  }
  os << "  ]\n}\n";
  std::printf("\nwrote %zu benchmark records to %s\n", rs.size(),
              path.c_str());
}

/// The benchmark workload: every registry scenario plus a grid radius
/// sweep — 11 items, 9 distinct torus-search keys.  Verification is off
/// so the cold-vs-warm delta isolates what the cache can save (the
/// collision checker is uncached by design and measured separately by
/// the all-backends batch below).
std::vector<BatchItem> sweep_items(const PlanService& service) {
  ScenarioParams params;
  params.n = 10;
  std::vector<BatchItem> items = service.registry_batch(params, {"tiling"});
  for (const ScenarioQuery& q : radius_sweep("grid", params, {2, 3, 4})) {
    BatchItem item;
    item.query = q;
    item.backends = {"tiling"};
    items.push_back(std::move(item));
  }
  for (BatchItem& item : items) item.verify = false;
  return items;
}

void report() {
  bench::section("Batch planning service: cold vs warm registry sweeps");

  PlanService service;
  const std::vector<BatchItem> items = sweep_items(service);

  const BatchReport cold = service.run(items);
  const double cold_s = cold.wall_seconds;
  const double cold_rate =
      static_cast<double>(cold.counters.cache_hits) /
      std::max<double>(1.0, static_cast<double>(cold.counters.cache_hits +
                                                cold.counters.cache_misses));
  if (!cold.all_ok()) std::printf("  WARNING: cold batch had failures\n");

  // Warm: best of three identical batches against the now-hot cache.
  double warm_s = 1e300;
  BatchReport warm;
  for (int rep = 0; rep < 3; ++rep) {
    warm = service.run(items);
    warm_s = std::min(warm_s, warm.wall_seconds);
  }
  const double warm_rate =
      static_cast<double>(warm.counters.cache_hits) /
      std::max<double>(1.0, static_cast<double>(warm.counters.cache_hits +
                                                warm.counters.cache_misses));

  const double n = static_cast<double>(items.size());
  std::printf(
      "batch of %.0f scenarios (tiling backend, full registry + radius "
      "sweep):\n  cold %.2fms (%.0f scenarios/s, cache hit rate %.2f)\n"
      "  warm %.2fms (%.0f scenarios/s, cache hit rate %.2f)\n"
      "  warm-vs-cold speedup %.1fx (acceptance target >= 5x)\n",
      n, cold_s * 1e3, n / cold_s, cold_rate, warm_s * 1e3, n / warm_s,
      warm_rate, cold_s / warm_s);
  if (warm.counters.cache_misses != 0) {
    std::printf("  WARNING: warm batch missed the cache %llu time(s)\n",
                static_cast<unsigned long long>(warm.counters.cache_misses));
  }
  records().push_back(
      {"batch_registry_cold", cold_s * 1e3, n / cold_s, 0.0, cold_rate});
  records().push_back({"batch_registry_warm", warm_s * 1e3, n / warm_s,
                       cold_s / warm_s, warm_rate});

  // Full-backend batch (the driver's --scenario all): planner fan-out
  // plus verification on every scenario, warm cache.
  {
    ScenarioParams params;
    params.n = 10;
    const std::vector<BatchItem> all = service.registry_batch(params);
    const BatchReport rep = service.run(all);
    const double items_n = static_cast<double>(all.size());
    std::printf(
        "batch of %.0f scenarios (ALL backends + verification, warm "
        "cache): %.1fms (%.0f scenarios/s)\n",
        items_n, rep.wall_seconds * 1e3, items_n / rep.wall_seconds);
    records().push_back({"batch_registry_all_backends",
                         rep.wall_seconds * 1e3,
                         items_n / rep.wall_seconds, 0.0,
                         static_cast<double>(rep.counters.cache_hits) /
                             std::max<double>(
                                 1.0, static_cast<double>(
                                          rep.counters.cache_hits +
                                          rep.counters.cache_misses))});
  }

  write_bench_json();
}

void BM_BatchRegistryCold(benchmark::State& state) {
  for (auto _ : state) {
    PlanService service;  // fresh cache: every search is cold
    benchmark::DoNotOptimize(service.run(sweep_items(service)));
  }
}
BENCHMARK(BM_BatchRegistryCold);

void BM_BatchRegistryWarm(benchmark::State& state) {
  static PlanService* service = new PlanService();
  static const std::vector<BatchItem> items = sweep_items(*service);
  (void)service->run(items);  // prime the cache outside the timing loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(service->run(items));
  }
}
BENCHMARK(BM_BatchRegistryWarm);

void BM_TilingCacheHit(benchmark::State& state) {
  TilingCache cache;
  const std::vector<Prototile> prototiles = {shapes::chebyshev_ball(2, 2)};
  (void)cache.find_or_search(prototiles);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find_or_search(prototiles));
  }
}
BENCHMARK(BM_TilingCacheHit);

}  // namespace
}  // namespace latticesched

REPRODUCTION_MAIN(latticesched::report)
