// Report serialization tests: CSV/JSON round-trips of PlanResult rows
// (including the multichannel fields), schedule CSV with the channel
// columns, a golden-file pin of the driver's --format json output, and
// the batch counters' table, merge rules, footer and printer.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/counters.hpp"
#include "core/plan_service.hpp"
#include "core/report.hpp"
#include "core/serialization.hpp"
#include "tiling/shapes.hpp"
#include "util/parallel.hpp"

namespace latticesched {
namespace {

std::vector<PlanResult> sample_results(std::uint32_t channels) {
  static const Deployment d =
      Deployment::grid(Box::cube(2, 0, 5), shapes::chebyshev_ball(2, 1));
  PlanRequest request;
  request.deployment = &d;
  request.channels = channels;
  return PlannerRegistry::global().plan_all(request, {"tiling", "tdma"});
}

void expect_rows_match(const PlanResultRow& parsed,
                       const PlanResultRow& expected, bool with_detail) {
  EXPECT_EQ(parsed.scenario, expected.scenario);
  EXPECT_EQ(parsed.backend, expected.backend);
  EXPECT_EQ(parsed.ok, expected.ok);
  EXPECT_EQ(parsed.sensors, expected.sensors);
  EXPECT_EQ(parsed.period, expected.period);
  EXPECT_EQ(parsed.lower_bound, expected.lower_bound);
  EXPECT_NEAR(parsed.optimality_gap, expected.optimality_gap, 1e-5);
  EXPECT_EQ(parsed.collision_free, expected.collision_free);
  EXPECT_EQ(parsed.verified, expected.verified);
  EXPECT_NEAR(parsed.slot_balance, expected.slot_balance, 1e-5);
  EXPECT_NEAR(parsed.duty_cycle, expected.duty_cycle, 1e-5);
  EXPECT_NEAR(parsed.wall_ms, expected.wall_ms,
              1e-5 + expected.wall_ms * 1e-4);
  EXPECT_EQ(parsed.channels, expected.channels);
  EXPECT_EQ(parsed.effective_period, expected.effective_period);
  if (with_detail) EXPECT_EQ(parsed.detail, expected.detail);
  EXPECT_EQ(parsed.error, expected.error);
}

TEST(ReportSerialization, CsvRoundTripWithChannels) {
  const auto results = sample_results(3);
  const std::string csv = plan_results_to_csv(results, "unit");
  const auto rows = parse_plan_results_csv(csv);
  ASSERT_EQ(rows.size(), results.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PlanResultRow expected = to_row(results[i], "unit");
    EXPECT_EQ(expected.channels, 3u);
    EXPECT_EQ(expected.effective_period, (results[i].slots.period + 2) / 3);
    expect_rows_match(rows[i], expected, /*with_detail=*/false);
  }
  EXPECT_THROW(parse_plan_results_csv("bogus\n"), std::invalid_argument);
}

TEST(ReportSerialization, JsonRoundTripWithChannelsAndErrors) {
  // Include a failing backend so the error string round-trips too.
  const Prototile f(PointVec{{0, 0}, {1, 0}, {-1, 1}, {0, 1}, {0, 2}}, "F");
  const Deployment d = Deployment::grid(Box::cube(2, 0, 3), f);
  PlanRequest request;
  request.deployment = &d;
  request.channels = 2;
  request.search.max_period_cells = 40;
  auto results = PlannerRegistry::global().plan_all(request, {"tiling"});
  auto ok_results = sample_results(2);
  results.insert(results.end(), ok_results.begin(), ok_results.end());

  const std::string json = plan_results_to_json(results, "unit");
  const auto rows = parse_plan_results_json(json);
  ASSERT_EQ(rows.size(), results.size());
  EXPECT_FALSE(rows[0].ok);
  EXPECT_FALSE(rows[0].error.empty());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    expect_rows_match(rows[i], to_row(results[i], "unit"),
                      /*with_detail=*/true);
  }
}

TEST(ReportSerialization, BatchReportEmittersCoverEveryItem) {
  PlanService service;
  ScenarioParams params;
  params.n = 6;
  params.channels = 2;
  std::vector<BatchItem> items;
  for (const char* name : {"grid", "multichannel"}) {
    BatchItem item;
    item.query = ScenarioQuery{name, params};
    item.backends = {"tiling", "tdma"};
    items.push_back(std::move(item));
  }
  const BatchReport report = service.run(items);
  ASSERT_TRUE(report.all_ok());

  const std::string csv = batch_report_to_csv(report);
  const auto csv_rows = parse_plan_results_csv(csv);
  EXPECT_EQ(csv_rows.size(), 4u);  // 2 items x 2 backends
  EXPECT_EQ(csv_rows[0].scenario, report.items[0].label);
  EXPECT_EQ(csv_rows[2].scenario, report.items[1].label);
  EXPECT_EQ(csv_rows[2].channels, 2u);

  const std::string json = batch_report_to_json(report);
  EXPECT_NE(json.find("\"cache\": {\"hits\": "), std::string::npos);
  const auto json_rows = parse_plan_results_json(json);
  ASSERT_EQ(json_rows.size(), 4u);
  for (std::size_t i = 0; i < json_rows.size(); ++i) {
    expect_rows_match(json_rows[i], csv_rows[i], /*with_detail=*/false);
  }
}

TEST(ReportSerialization, ScheduleCsvRoundTripWithChannelColumns) {
  const auto results = sample_results(4);
  const PlanResult& tiling = results.front();
  ASSERT_TRUE(tiling.channel_slots.has_value());
  static const Deployment d =
      Deployment::grid(Box::cube(2, 0, 5), shapes::chebyshev_ball(2, 1));

  const std::string csv =
      schedule_to_csv(d, tiling.slots, &*tiling.channel_slots);
  EXPECT_NE(csv.find("type,slot,period,channel,channels"),
            std::string::npos);
  const ParsedSchedule parsed = parse_schedule_csv(csv);
  ASSERT_EQ(parsed.positions.size(), d.size());
  EXPECT_EQ(parsed.positions, d.positions());
  ASSERT_TRUE(parsed.channels.has_value());
  EXPECT_EQ(parsed.channels->channels, 4u);
  EXPECT_EQ(parsed.channels->period, tiling.channel_slots->period);
  EXPECT_EQ(parsed.channels->assignment, tiling.channel_slots->assignment);
  EXPECT_EQ(parsed.slots.period, tiling.channel_slots->period);

  // The single-channel form still round-trips without the new columns.
  const std::string plain = schedule_to_csv(d, tiling.slots);
  EXPECT_EQ(plain.find("channel"), std::string::npos);
  const ParsedSchedule plain_parsed = parse_schedule_csv(plain);
  EXPECT_FALSE(plain_parsed.channels.has_value());
  EXPECT_EQ(plain_parsed.slots.slot, tiling.slots.slot);
}

TEST(ReportSerialization, DynamicItemsRoundTripWithStepColumn) {
  set_parallel_threads(1);
  PlanService service;
  ScenarioParams params;
  params.n = 6;
  params.steps = 2;
  std::vector<BatchItem> items;
  BatchItem dynamic;
  dynamic.query = ScenarioQuery{"grid-failures", params};
  dynamic.backends = {"tiling", "tdma"};
  items.push_back(dynamic);
  BatchItem still;  // a static item in the same batch keeps step 0 rows
  still.query = ScenarioQuery{"grid", params};
  still.backends = {"tdma"};
  items.push_back(still);
  const BatchReport report = service.run(items);
  set_parallel_threads(0);
  ASSERT_TRUE(report.all_ok());
  ASSERT_EQ(report.items[0].steps.size(), 3u);

  // CSV: one row per (step, backend), step column populated.
  const std::string csv = batch_report_to_csv(report);
  const auto csv_rows = parse_plan_results_csv(csv);
  ASSERT_EQ(csv_rows.size(), 3u * 2u + 1u);
  EXPECT_EQ(csv_rows[0].step, 0u);
  EXPECT_EQ(csv_rows[2].step, 1u);
  EXPECT_EQ(csv_rows[4].step, 2u);
  EXPECT_EQ(csv_rows.back().step, 0u);  // the static item
  EXPECT_GT(csv_rows[0].sensors, csv_rows[2].sensors)
      << "per-step rows must carry the shrinking fleet";

  // JSON: emit -> parse -> emit is the identity, steps included (the
  // distributed merge path depends on this).
  const std::string json = batch_report_to_json(report);
  EXPECT_NE(json.find("\"steps\": 3"), std::string::npos);
  const BatchReport parsed = parse_batch_report_json(json);
  ASSERT_EQ(parsed.items.size(), 2u);
  ASSERT_EQ(parsed.items[0].steps.size(), 3u);
  EXPECT_EQ(parsed.items[0].steps[1].step, 1u);
  EXPECT_EQ(parsed.items[0].steps[1].results.size(), 2u);
  EXPECT_TRUE(parsed.items[1].steps.empty());
  ASSERT_EQ(parsed.items[0].results.size(), 2u);  // final step mirror
  EXPECT_EQ(batch_report_to_json(parsed), json);
}

// Golden-file pin of the driver's `--format json` report shape: the
// test rebuilds the exact batch `latticesched --scenario grid --n 6
// --backends tiling,tdma --threads 1 --format json` runs and compares
// the serialized report (wall times zeroed) against the checked-in
// golden file.
TEST(ReportSerialization, GoldenDriverJson) {
  set_parallel_threads(1);
  PlanService service;
  ScenarioParams params;
  params.n = 6;
  BatchItem item;
  item.query = ScenarioQuery{"grid", params};
  item.backends = {"tiling", "tdma"};
  BatchReport report = service.run({item});
  set_parallel_threads(0);
  // Zero the volatile fields so the serialization is reproducible.
  report.wall_seconds = 0.0;
  for (BatchItemReport& it : report.items) {
    for (PlanResult& r : it.results) r.wall_seconds = 0.0;
  }
  const std::string json = batch_report_to_json(report);

  const std::string path = std::string(LATTICESCHED_SOURCE_DIR) +
                           "/tests/golden/driver_grid_json.golden";
  std::ifstream is(path);
  ASSERT_TRUE(is) << "missing golden file " << path;
  std::ostringstream golden;
  golden << is.rdbuf();
  EXPECT_EQ(json, golden.str())
      << "driver JSON schema changed; regenerate " << path;
}

// --- The batch counters (core/counters.hpp) --------------------------------

/// Every counter set to a distinct non-zero value.
Counters distinct_counters() {
  Counters c;
  c.cache_hits = 1;
  c.cache_misses = 2;
  c.regions = 3;
  c.seam_sensors = 4;
  c.stitch_recolored = 5;
  c.tune_hits = 6;
  c.tune_misses = 7;
  c.tune_searches = 8;
  c.tune_trials_run = 9;
  return c;
}

TEST(Counters, EveryFieldHasExactlyOneTableRow) {
  // A row per field, no two rows on one field: value the fields through
  // the table, then read each row back.
  Counters c;
  std::size_t numbers = 0;
  std::uint64_t next = 0;
  for (const CounterGroup& group : kCounterGroups) {
    for (const CounterField& f : group.fields) {
      ASSERT_NE(f.number, nullptr) << f.key;
      c.*f.number = ++next;
      ++numbers;
    }
  }
  next = 0;
  for (const CounterGroup& group : kCounterGroups) {
    for (const CounterField& f : group.fields) {
      EXPECT_EQ(c.*f.number, ++next) << group.key << '.' << f.key;
    }
  }
  // A field added to Counters without a row would never be merged,
  // serialized or printed; it shows up as size the rows do not cover.
  EXPECT_EQ(sizeof(Counters), numbers * sizeof(std::uint64_t))
      << "a Counters field has no kCounterGroups row";
}

TEST(Counters, EveryFieldRoundTripsThroughTheBatchFooter) {
  BatchReport report;
  report.counters = distinct_counters();
  const std::string json = batch_report_to_json(report);
  EXPECT_NE(json.find("  \"cache\": {\"hits\": 1, \"misses\": 2},\n"),
            std::string::npos);
  EXPECT_NE(json.find("  \"regions\": {\"count\": 3, \"seam_sensors\": 4, "
                      "\"stitch_recolored\": 5},\n"),
            std::string::npos);
  EXPECT_NE(json.find("  \"tuning\": {\"hits\": 6, \"misses\": 7, "
                      "\"searches\": 8, \"trials\": 9},\n"),
            std::string::npos);

  const Counters parsed = parse_batch_report_json(json).counters;
  EXPECT_EQ(parsed.cache_hits, 1u);
  EXPECT_EQ(parsed.cache_misses, 2u);
  EXPECT_EQ(parsed.regions, 3u);
  EXPECT_EQ(parsed.seam_sensors, 4u);
  EXPECT_EQ(parsed.stitch_recolored, 5u);
  EXPECT_EQ(parsed.tune_hits, 6u);
  EXPECT_EQ(parsed.tune_misses, 7u);
  EXPECT_EQ(parsed.tune_searches, 8u);
  EXPECT_EQ(parsed.tune_trials_run, 9u);

  // Strict: a missing group or a malformed value is an error.
  const std::size_t tuning = json.find("  \"tuning\"");
  std::string no_tuning = json;
  no_tuning.erase(tuning, json.find('\n', tuning) + 1 - tuning);
  EXPECT_THROW((void)parse_batch_report_json(no_tuning),
               std::invalid_argument);
  const std::string seams = "\"seam_sensors\": 4";
  std::string negative = json;
  negative.replace(negative.find(seams), seams.size(),
                   "\"seam_sensors\": -4");
  EXPECT_THROW((void)parse_batch_report_json(negative),
               std::invalid_argument);
}

TEST(Counters, MergeSumsKeepsTheLargestRegionsAndTheLastKernel) {
  Counters merged = distinct_counters();
  Counters other = distinct_counters();
  other.regions = 1;  // smaller: the max keeps 3
  merged.merge(other);
  EXPECT_EQ(merged.cache_hits, 2u);
  EXPECT_EQ(merged.cache_misses, 4u);
  EXPECT_EQ(merged.regions, 3u);
  EXPECT_EQ(merged.seam_sensors, 8u);
  EXPECT_EQ(merged.stitch_recolored, 10u);
  EXPECT_EQ(merged.tune_hits, 12u);
  EXPECT_EQ(merged.tune_misses, 14u);
  EXPECT_EQ(merged.tune_searches, 16u);
  EXPECT_EQ(merged.tune_trials_run, 18u);

  Counters later;
  later.regions = 9;
  merged.merge(later);
  EXPECT_EQ(merged.regions, 9u);
  EXPECT_EQ(merged.cache_hits, 2u);
}

TEST(Counters, PrinterWritesTheCacheLineAndEveryNonZeroGroup) {
  Counters c;
  c.tune_hits = 3;
  EXPECT_EQ(counters_to_text(c),
            "cache-stats: 0 hit(s), 0 miss(es)\n"
            "tune-stats: 3 hit(s), 0 miss(es), 0 search(es), 0 trial(s)\n");
  EXPECT_EQ(counters_to_text(distinct_counters(), "worker 1"),
            "cache-stats: worker 1: 1 hit(s), 2 miss(es)\n"
            "region-stats: worker 1: 3 region(s), 4 seam sensor(s), "
            "5 stitch recolor(s)\n"
            "tune-stats: worker 1: 6 hit(s), 7 miss(es), 8 search(es), "
            "9 trial(s)\n");
}

}  // namespace
}  // namespace latticesched
