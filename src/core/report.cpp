#include "core/report.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/cli.hpp"
#include "util/json.hpp"

namespace latticesched {

namespace {

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Round-trip-exact double form for the wire (shard assignments must
/// reproduce the coordinator's instances bit-for-bit; %.6g would round
/// a swept density into a different deployment).
std::string format_double_exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

constexpr const char* kCsvHeader =
    "scenario,step,backend,ok,sensors,period,lower_bound,optimality_gap,"
    "collision_free,verified,slot_balance,duty_cycle,wall_ms,channels,"
    "effective_period,tuned,tuned_config,error";

void emit_csv_row(std::ostream& os, const PlanResultRow& row) {
  os << row.scenario << ',' << row.step << ',' << row.backend << ','
     << (row.ok ? 1 : 0) << ','
     << row.sensors << ',' << row.period << ',' << row.lower_bound << ','
     << format_double(row.optimality_gap) << ','
     << (row.collision_free ? 1 : 0) << ',' << (row.verified ? 1 : 0)
     << ',' << format_double(row.slot_balance) << ','
     << format_double(row.duty_cycle) << ','
     << format_double(row.wall_ms) << ',' << row.channels << ','
     << row.effective_period << ',' << row.tuned << ','
     << row.tuned_config << ',' << '"' << row.error << '"' << '\n';
}

void emit_json_object(std::ostream& os, const PlanResultRow& row,
                      const std::string& indent) {
  os << indent << "{\"scenario\": \"" << json_escape(row.scenario)
     << "\", \"step\": " << row.step
     << ", \"backend\": \"" << json_escape(row.backend)
     << "\", \"ok\": " << (row.ok ? "true" : "false")
     << ", \"sensors\": " << row.sensors << ", \"period\": " << row.period
     << ", \"lower_bound\": " << row.lower_bound
     << ", \"optimality_gap\": " << format_double(row.optimality_gap)
     << ", \"collision_free\": " << (row.collision_free ? "true" : "false")
     << ", \"verified\": " << (row.verified ? "true" : "false")
     << ", \"slot_balance\": " << format_double(row.slot_balance)
     << ", \"duty_cycle\": " << format_double(row.duty_cycle)
     << ", \"wall_ms\": " << format_double(row.wall_ms)
     << ", \"channels\": " << row.channels
     << ", \"effective_period\": " << row.effective_period
     << ", \"tuned\": \"" << json_escape(row.tuned)
     << "\", \"tuned_config\": \"" << json_escape(row.tuned_config)
     << "\", \"detail\": \"" << json_escape(row.detail) << "\", \"error\": \""
     << json_escape(row.error) << "\"}";
}

// -- Minimal parsers for the exact formats emitted above ------------------
//
// Every number goes through the strict whole-token parsers of
// util/cli.hpp: a sign, trailing junk or an out-of-range value throws
// instead of wrapping or truncating.

std::uint32_t parse_u32(const std::string& text, const std::string& what) {
  const std::uint64_t value = parse_u64(text, what);
  if (value > 0xFFFFFFFFull) {
    throw std::invalid_argument("bad " + what + " '" + text + "'");
  }
  return static_cast<std::uint32_t>(value);
}

std::uint32_t json_u32(const std::string& text, const std::string& key) {
  return parse_u32(json_field(text, key), key);
}

std::int64_t json_i64(const std::string& text, const std::string& key) {
  return parse_i64(json_field(text, key), key);
}

double json_double(const std::string& text, const std::string& key) {
  return parse_double(json_field(text, key), key);
}

std::vector<std::string> split_line(const std::string& line) {
  // The only quoted field is the trailing `error`, so split the first 17
  // commas and treat the rest as the error payload.
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (int field = 0; field < 17; ++field) {
    const std::size_t comma = line.find(',', pos);
    if (comma == std::string::npos) {
      throw std::invalid_argument("plan-results CSV: short row: " + line);
    }
    out.push_back(line.substr(pos, comma - pos));
    pos = comma + 1;
  }
  std::string error = line.substr(pos);
  if (error.size() >= 2 && error.front() == '"' && error.back() == '"') {
    error = error.substr(1, error.size() - 2);
  }
  out.push_back(error);
  return out;
}

PlanResultRow row_from_json_object(const std::string& obj) {
  PlanResultRow row;
  row.scenario = json_field(obj, "scenario");
  row.step = json_u64(obj, "step");
  row.backend = json_field(obj, "backend");
  row.ok = json_field(obj, "ok") == "true";
  row.sensors = json_u64(obj, "sensors");
  row.period = json_u32(obj, "period");
  row.lower_bound = json_u32(obj, "lower_bound");
  row.optimality_gap = json_double(obj, "optimality_gap");
  row.collision_free = json_field(obj, "collision_free") == "true";
  row.verified = json_field(obj, "verified") == "true";
  row.slot_balance = json_double(obj, "slot_balance");
  row.duty_cycle = json_double(obj, "duty_cycle");
  row.wall_ms = json_double(obj, "wall_ms");
  row.channels = json_u32(obj, "channels");
  row.effective_period = json_u32(obj, "effective_period");
  row.tuned = json_field(obj, "tuned");
  row.tuned_config = json_field(obj, "tuned_config");
  row.detail = json_field(obj, "detail");
  row.error = json_field(obj, "error");
  return row;
}

}  // namespace

PlanResultRow to_row(const PlanResult& result, const std::string& scenario,
                     std::uint64_t step) {
  PlanResultRow row;
  row.scenario = scenario;
  row.step = step;
  row.backend = result.backend;
  row.ok = result.ok;
  row.sensors = result.slots.slot.size();
  row.period = result.slots.period;
  row.lower_bound = result.lower_bound;
  row.optimality_gap = result.optimality_gap;
  row.collision_free = result.collision_free;
  row.verified = result.verified;
  row.slot_balance = result.slot_balance;
  row.duty_cycle = result.duty_cycle;
  row.wall_ms = result.wall_seconds * 1e3;
  row.channels = result.channels;
  row.effective_period = result.effective_period();
  row.tuned = result.tuned;
  row.tuned_config = result.tuned_config;
  row.detail = result.detail;
  row.error = result.error;
  return row;
}

std::string plan_results_to_csv(const std::vector<PlanResult>& results,
                                const std::string& scenario) {
  std::ostringstream os;
  os << kCsvHeader << '\n';
  for (const PlanResult& r : results) emit_csv_row(os, to_row(r, scenario));
  return os.str();
}

std::string plan_results_to_json(const std::vector<PlanResult>& results,
                                 const std::string& scenario) {
  return plan_results_to_json(results, scenario, 0);
}

std::string plan_results_to_json(const std::vector<PlanResult>& results,
                                 const std::string& scenario,
                                 std::uint64_t step) {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    emit_json_object(os, to_row(results[i], scenario, step), "  ");
    os << (i + 1 < results.size() ? "," : "") << '\n';
  }
  os << "]\n";
  return os.str();
}

std::vector<PlanResultRow> parse_plan_results_csv(const std::string& csv) {
  std::istringstream is(csv);
  std::string line;
  if (!std::getline(is, line) || line != kCsvHeader) {
    throw std::invalid_argument("plan-results CSV: bad header");
  }
  std::vector<PlanResultRow> rows;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = split_line(line);
    PlanResultRow row;
    row.scenario = f[0];
    row.step = parse_u64(f[1], "step");
    row.backend = f[2];
    row.ok = f[3] == "1";
    row.sensors = parse_u64(f[4], "sensors");
    row.period = parse_u32(f[5], "period");
    row.lower_bound = parse_u32(f[6], "lower_bound");
    row.optimality_gap = parse_double(f[7], "optimality_gap");
    row.collision_free = f[8] == "1";
    row.verified = f[9] == "1";
    row.slot_balance = parse_double(f[10], "slot_balance");
    row.duty_cycle = parse_double(f[11], "duty_cycle");
    row.wall_ms = parse_double(f[12], "wall_ms");
    row.channels = parse_u32(f[13], "channels");
    row.effective_period = parse_u32(f[14], "effective_period");
    row.tuned = f[15];
    row.tuned_config = f[16];
    row.error = f[17];
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<PlanResultRow> parse_plan_results_json(const std::string& json) {
  // The emitters write one result object per line; batch JSON nests the
  // same per-line objects under "items", so scanning for lines holding a
  // "backend" key parses both forms.
  std::vector<PlanResultRow> rows;
  std::istringstream is(json);
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("\"backend\": ") == std::string::npos) continue;
    rows.push_back(row_from_json_object(line));
  }
  return rows;
}

std::string batch_report_to_csv(const BatchReport& report) {
  std::ostringstream os;
  os << kCsvHeader << '\n';
  for (const BatchItemReport& item : report.items) {
    if (!item.built) {
      PlanResultRow row;
      row.scenario = item.label.empty() ? item.scenario : item.label;
      row.backend = "-";
      row.error = item.error;
      emit_csv_row(os, row);
      continue;
    }
    if (!item.steps.empty()) {
      for (const BatchStepReport& step : item.steps) {
        for (const PlanResult& r : step.results) {
          emit_csv_row(os, to_row(r, item.label, step.step));
        }
      }
      continue;
    }
    for (const PlanResult& r : item.results) {
      emit_csv_row(os, to_row(r, item.label));
    }
  }
  return os.str();
}

std::string batch_report_to_json(const BatchReport& report) {
  std::ostringstream os;
  os << "{\n  \"items\": [\n";
  for (std::size_t i = 0; i < report.items.size(); ++i) {
    const BatchItemReport& item = report.items[i];
    os << "    {\"scenario\": \"" << json_escape(item.scenario)
       << "\", \"label\": \"" << json_escape(item.label)
       << "\", \"sensors\": " << item.sensors
       << ", \"channels\": " << item.channels
       << ", \"steps\": " << item.steps.size()
       << ", \"built\": " << (item.built ? "true" : "false")
       << ", \"error\": \"" << json_escape(item.error)
       << "\", \"results\": [\n";
    if (!item.steps.empty()) {
      // Dynamic item: one row per (step, backend); the step column
      // groups them back on parse (item.results is the final step's
      // results and is NOT emitted separately).
      std::size_t emitted = 0, total = 0;
      for (const BatchStepReport& step : item.steps) {
        total += step.results.size();
      }
      for (const BatchStepReport& step : item.steps) {
        for (const PlanResult& r : step.results) {
          emit_json_object(os, to_row(r, item.label, step.step), "      ");
          os << (++emitted < total ? "," : "") << '\n';
        }
      }
    } else {
      for (std::size_t j = 0; j < item.results.size(); ++j) {
        emit_json_object(os, to_row(item.results[j], item.label), "      ");
        os << (j + 1 < item.results.size() ? "," : "") << '\n';
      }
    }
    os << "    ]}" << (i + 1 < report.items.size() ? "," : "") << '\n';
  }
  os << "  ],\n";
  os << counters_to_json(report.counters);
  os << "  \"worker_failures\": " << report.worker_failures << ",\n";
  os << "  \"worker_timeouts\": " << report.worker_timeouts << ",\n";
  os << "  \"degraded\": " << (report.degraded ? "true" : "false") << ",\n";
  os << "  \"quarantined_items\": [";
  for (std::size_t i = 0; i < report.quarantined_items.size(); ++i) {
    os << (i == 0 ? "" : ", ") << report.quarantined_items[i];
  }
  os << "],\n";
  os << "  \"wall_ms\": " << format_double(report.wall_seconds * 1e3)
     << "\n}\n";
  return os.str();
}

PlanResult result_from_row(const PlanResultRow& row) {
  PlanResult result;
  result.backend = row.backend;
  result.ok = row.ok;
  result.error = row.error;
  result.detail = row.detail;
  result.collision_free = row.collision_free;
  result.verified = row.verified;
  result.lower_bound = row.lower_bound;
  result.optimality_gap = row.optimality_gap;
  result.slot_balance = row.slot_balance;
  result.duty_cycle = row.duty_cycle;
  result.wall_seconds = row.wall_ms / 1e3;
  result.channels = row.channels;
  result.tuned = row.tuned;
  result.tuned_config = row.tuned_config;
  result.slots.period = row.period;
  // The row stores the sensor count as the slot-table size; a
  // placeholder table keeps that invariant without shipping the slots.
  result.slots.slot.assign(row.sensors, 0);
  // A successful multichannel plan carries its folded period through
  // channel_slots (effective_period() reads it); failures record the
  // channel count only, exactly like the live pipeline.
  if (row.channels > 1 && row.ok) {
    MultiChannelSlots folded;
    folded.period = row.effective_period;
    folded.channels = row.channels;
    result.channel_slots = std::move(folded);
  }
  return result;
}

BatchReport parse_batch_report_json(const std::string& json) {
  BatchReport report;
  std::istringstream is(json);
  std::string line;
  bool saw_wall = false;
  std::size_t declared_steps = 0;  // of the item currently being parsed
  while (std::getline(is, line)) {
    if (line.find("\"label\": ") != std::string::npos) {
      BatchItemReport item;
      item.scenario = json_field(line, "scenario");
      item.label = json_field(line, "label");
      item.sensors = json_u64(line, "sensors");
      item.channels = json_u32(line, "channels");
      declared_steps = json_u64(line, "steps");
      item.built = json_field(line, "built") == "true";
      item.error = json_field(line, "error");
      report.items.push_back(std::move(item));
    } else if (line.find("\"backend\": ") != std::string::npos) {
      if (report.items.empty()) {
        throw std::invalid_argument(
            "batch JSON: result row before any item");
      }
      const PlanResultRow row = row_from_json_object(line);
      BatchItemReport& item = report.items.back();
      if (declared_steps > 0) {
        // Dynamic item: the step column groups rows back into
        // BatchStepReports (rows of one step are consecutive).  The
        // fleet size is the max over the step's rows — a FAILED
        // backend's row carries sensors=0 (no slot table) and must not
        // zero the step.
        if (item.steps.empty() || item.steps.back().step != row.step) {
          item.steps.push_back(BatchStepReport{row.step, 0, {}});
        }
        item.steps.back().sensors =
            std::max(item.steps.back().sensors, row.sensors);
        item.steps.back().results.push_back(result_from_row(row));
      } else {
        item.results.push_back(result_from_row(row));
      }
    } else if (line.find("\"worker_failures\": ") != std::string::npos) {
      report.worker_failures = json_u64(line, "worker_failures");
    } else if (line.find("\"worker_timeouts\": ") != std::string::npos) {
      report.worker_timeouts = json_u64(line, "worker_timeouts");
    } else if (line.find("\"degraded\": ") != std::string::npos) {
      report.degraded = json_field(line, "degraded") == "true";
    } else if (line.find("\"quarantined_items\": ") != std::string::npos) {
      // "quarantined_items": [i, j, ...] — split the bracketed list.
      const std::size_t open = line.find('[');
      const std::size_t close = line.find(']', open);
      if (open == std::string::npos || close == std::string::npos) {
        throw std::invalid_argument(
            "batch JSON: malformed quarantined_items");
      }
      std::istringstream list(line.substr(open + 1, close - open - 1));
      std::string token;
      while (std::getline(list, token, ',')) {
        const std::size_t first = token.find_first_not_of(" \t");
        if (first == std::string::npos) continue;
        const std::size_t last = token.find_last_not_of(" \t");
        report.quarantined_items.push_back(parse_u64(
            token.substr(first, last + 1 - first), "quarantined_items"));
      }
    } else if (line.find("\"wall_ms\": ") != std::string::npos) {
      report.wall_seconds = json_double(line, "wall_ms") / 1e3;
      saw_wall = true;
    }
  }
  if (!saw_wall) throw std::invalid_argument("batch JSON: missing wall_ms");
  report.counters = parse_counters_json(json);
  // Dynamic items mirror the live shape: results == the final step's.
  for (BatchItemReport& item : report.items) {
    if (!item.steps.empty()) item.results = item.steps.back().results;
  }
  return report;
}

std::string batch_items_to_json(const std::vector<BatchItem>& items) {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < items.size(); ++i) {
    const BatchItem& item = items[i];
    std::string backends;
    for (std::size_t b = 0; b < item.backends.size(); ++b) {
      if (b > 0) backends += ',';
      backends += item.backends[b];
    }
    os << "  {\"scenario\": \"" << json_escape(item.query.scenario)
       << "\", \"n\": " << item.query.params.n
       << ", \"radius\": " << item.query.params.radius
       << ", \"seed\": " << item.query.params.seed
       << ", \"channels\": " << item.query.params.channels
       << ", \"density\": " << format_double_exact(item.query.params.density)
       << ", \"steps\": " << item.query.params.steps
       << ", \"trace_script\": \"" << json_escape(item.trace_script)
       << "\", \"backends\": \"" << json_escape(backends)
       << "\", \"verify\": " << (item.verify ? "true" : "false")
       << ", \"max_period_cells\": " << item.search.max_period_cells
       << ", \"node_limit\": " << item.search.node_limit
       << ", \"require_all_prototiles\": "
       << (item.search.require_all_prototiles ? "true" : "false")
       << ", \"use_parallel\": "
       << (item.search.use_parallel ? "true" : "false")
       << ", \"sa_max_iters\": " << item.sa.max_iters
       << ", \"sa_initial_temperature\": "
       << format_double_exact(item.sa.initial_temperature)
       << ", \"sa_cooling\": " << format_double_exact(item.sa.cooling)
       << ", \"sa_seed\": " << item.sa.seed
       << ", \"sa_restarts\": " << item.sa.restarts
       << ", \"tune_trials\": " << item.tune_trials
       << ", \"tune_budget_ms\": " << item.tune_budget_ms << "}"
       << (i + 1 < items.size() ? "," : "") << '\n';
  }
  os << "]\n";
  return os.str();
}

std::vector<BatchItem> parse_batch_items_json(const std::string& json) {
  std::vector<BatchItem> items;
  std::istringstream is(json);
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("\"scenario\": ") == std::string::npos) continue;
    BatchItem item;
    item.query.scenario = json_field(line, "scenario");
    item.query.params.n = json_i64(line, "n");
    item.query.params.radius = json_i64(line, "radius");
    item.query.params.seed = json_u64(line, "seed");
    item.query.params.channels = json_u32(line, "channels");
    item.query.params.density = json_double(line, "density");
    item.query.params.steps = json_i64(line, "steps");
    item.trace_script = json_field(line, "trace_script");
    item.backends = split_csv_list(json_field(line, "backends"));
    item.verify = json_field(line, "verify") == "true";
    item.search.max_period_cells = json_i64(line, "max_period_cells");
    item.search.node_limit = json_u64(line, "node_limit");
    item.search.require_all_prototiles =
        json_field(line, "require_all_prototiles") == "true";
    item.search.use_parallel = json_field(line, "use_parallel") == "true";
    item.sa.max_iters = json_u64(line, "sa_max_iters");
    item.sa.initial_temperature = json_double(line, "sa_initial_temperature");
    item.sa.cooling = json_double(line, "sa_cooling");
    item.sa.seed = json_u64(line, "sa_seed");
    item.sa.restarts = json_u64(line, "sa_restarts");
    item.tune_trials = json_u64(line, "tune_trials");
    item.tune_budget_ms = json_u64(line, "tune_budget_ms");
    items.push_back(std::move(item));
  }
  return items;
}

}  // namespace latticesched
