// perfbench: one run of one workload of the repo benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Prints human-readable lines (every metric by name and unit, noise
// diagnostics, the per-layer table of a traced run), then as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits 2 on bad arguments and 1 when the run itself fails; neither
// prints a result.  run.py builds this binary and is the benchmark's
// entry point.
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\nworkloads:",
               why.c_str());
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &options.seed)) return usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0 && options.seconds <= 600.0)) {
        return usage("--seconds must be in (0, 600]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_u64(value, &n) || n > 1) return usage("--trace takes 0 or 1");
      options.trace = n == 1;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seconds) {
    return usage("--workload and --seconds are required");
  }
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) {
    known = known || w == options.workload;
  }
  if (!known) return usage("unknown workload " + options.workload);

  perfbench::RunReport report;
  try {
    report = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  std::string json = std::string("{\"correct\": ") +
                     (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
