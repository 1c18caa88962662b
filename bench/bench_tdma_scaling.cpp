// Scaling claim (Introduction / Related Work): plain TDMA assigns every
// sensor its own slot, so its period grows with the network and
// per-sensor throughput collapses; the tiling schedule's period is |N|
// regardless of network size.
//
// Series: n x n deployments of Chebyshev-ball sensors, n in {4..32}:
// slots and saturated per-sensor throughput for TDMA vs the tiling
// schedule; plus a radius sweep showing the tiling period tracking |N|
// only.  Both series run as ONE batch each through the planning service
// (scenario library "grid" + size/radius sweep helpers), so the tiling
// search for the shared neighborhood runs once per distinct radius.
#include <cstdio>

#include "bench_common.hpp"
#include "baseline/tdma.hpp"
#include "core/plan_service.hpp"
#include "core/scenario.hpp"
#include "core/tiling_scheduler.hpp"
#include "sim/simulator.hpp"
#include "tiling/exactness.hpp"
#include "tiling/shapes.hpp"
#include "util/table.hpp"

namespace latticesched {
namespace {

double saturated_throughput(const Deployment& d, const SensorSlots& slots) {
  SimConfig cfg;
  cfg.slots = 2000;
  cfg.saturated = true;
  SlotSimulator sim(d, cfg);
  SlotScheduleMac mac(slots);
  return sim.run(mac).per_sensor_throughput();
}

void report() {
  bench::section("TDMA does not scale; the tiling schedule does");
  PlanService service;
  const std::vector<std::int64_t> sizes = {4, 8, 12, 16, 24, 32};
  const BatchReport batch = service.run(PlanService::items_for(
      size_sweep("grid", ScenarioParams{}, sizes), {"tdma", "tiling"}));

  Table t({"grid", "sensors", "TDMA slots", "tiling slots",
           "TDMA tput/sensor", "tiling tput/sensor", "speedup"});
  for (std::size_t i = 0; i < batch.items.size(); ++i) {
    const BatchItemReport& item = batch.items[i];
    if (!item.all_ok()) {
      std::printf("PLANNER FAILURE on %s\n", item.label.c_str());
      continue;
    }
    const SensorSlots& tdma = item.results[0].slots;
    const SensorSlots& tiling = item.results[1].slots;
    // The simulator needs the deployment itself; rebuild the instance
    // from the registry (deterministic) for the throughput runs.
    ScenarioParams params;
    params.n = sizes[i];
    const ScenarioInstance inst =
        ScenarioRegistry::global().build("grid", params);
    const double tput_tdma = saturated_throughput(inst.deployment, tdma);
    const double tput_tiling = saturated_throughput(inst.deployment, tiling);
    t.begin_row();
    t.cell(std::to_string(sizes[i]) + "x" + std::to_string(sizes[i]));
    t.cell(item.sensors);
    t.cell(tdma.period);
    t.cell(tiling.period);
    t.cell(tput_tdma, 5);
    t.cell(tput_tiling, 5);
    t.cell(tput_tiling / tput_tdma, 1);
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\npaper: \"The obvious disadvantage of TDMA is that it "
              "does not scale\" — the tiling\nschedule's period stays at "
              "|N| = 9 while TDMA's grows with the sensor count,\nso the "
              "speedup factor grows like n²/9.\ntiling cache over the "
              "size sweep: %llu hits, %llu misses (repeat searches are "
              "served from cache)\n",
              static_cast<unsigned long long>(batch.counters.cache_hits),
              static_cast<unsigned long long>(batch.counters.cache_misses));

  bench::section("Tiling slots track |N| only (radius sweep at 24x24)");
  ScenarioParams base;
  base.n = 24;
  const std::vector<std::int64_t> radii = {1, 2, 3};
  std::vector<BatchItem> items = PlanService::items_for(
      radius_sweep("grid", base, radii), {"tiling", "tdma"});
  for (BatchItem& item : items) {
    item.verify = false;  // verified in the scaling table above
  }
  const BatchReport sweep = service.run(items);
  Table r({"radius", "|N|", "tiling slots", "TDMA slots"});
  for (std::size_t i = 0; i < sweep.items.size(); ++i) {
    const BatchItemReport& item = sweep.items[i];
    if (!item.built || item.results.size() < 2 || !item.results[0].ok ||
        !item.results[1].ok) {
      std::printf("PLANNER FAILURE on %s\n", item.label.c_str());
      continue;
    }
    r.begin_row();
    r.cell(radii[i]);
    r.cell(item.results[0].lower_bound);  // |N| = max prototile size
    r.cell(item.results[0].slots.period);
    r.cell(item.results[1].slots.period);
  }
  std::printf("%s", r.to_string().c_str());
}

void bm_tdma_assignment(benchmark::State& state) {
  const Deployment d = Deployment::grid(
      Box::cube(2, 0, state.range(0) - 1), shapes::chebyshev_ball(2, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tdma_slots(d));
  }
}
BENCHMARK(bm_tdma_assignment)->Arg(8)->Arg(16)->Arg(32);

void bm_tiling_assignment(benchmark::State& state) {
  const Prototile ball = shapes::chebyshev_ball(2, 1);
  const TilingSchedule sched(*decide_exactness(ball).tiling);
  const Deployment d =
      Deployment::grid(Box::cube(2, 0, state.range(0) - 1), ball);
  for (auto _ : state) {
    benchmark::DoNotOptimize(assign_slots(sched, d));
  }
}
BENCHMARK(bm_tiling_assignment)->Arg(8)->Arg(16)->Arg(32);

}  // namespace
}  // namespace latticesched

REPRODUCTION_MAIN(latticesched::report)
