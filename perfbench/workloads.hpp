// The benchmark's workloads and their two kinds of run.
//
// A timed run (--trace 0) sets the workload up several times, then runs
// its op in a closed loop for the requested seconds and reports the
// end-to-end metrics.  A traced run (--trace 1) sets up once, runs the
// same untimed-check loop briefly to get the untraced op time, then
// replays the op serially as direct calls into the library's public
// functions, one span per call (trace.hpp), and reports the per-layer
// metrics.  Both kinds check every output; see NOTES.md for why each
// workload exists and which layer metric should move on which workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Planner pool width of every workload (the ~2 effective cores of the
/// 4-vCPU machine the baselines were measured on).
inline constexpr std::size_t kPoolThreads = 2;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans ("" = nowhere).
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (timed run) or per-layer metrics (traced run),
  /// in the order BENCHMARK.json lists them.
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result: extra percentiles,
  /// noise diagnostics, the per-layer table, failures.
  std::vector<std::string> lines;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument on an unknown name.
RunReport run_workload(const RunOptions& options);

}  // namespace perfbench
