// Sample statistics and host-noise probes of the benchmark.
//
// Latencies are summarised by percentiles, and a tail percentile is
// reported only when at least kTailSamples samples lie beyond it (with
// fewer, one slow op decides the value).  The noise probes are not
// metrics: they are printed next to each run's metrics so a run that
// disagrees with its neighbours can be traced to the host (CPU steal,
// involuntary context switches) rather than to the program.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a tail percentile before it is reported.
inline constexpr std::size_t kTailSamples = 10;

/// Linear-interpolation percentile (the "inclusive" definition: p = 0 is
/// the minimum, p = 100 the maximum).  Throws std::invalid_argument on an
/// empty sample or p outside [0, 100].  Interpolation is intended: the
/// median of an even count is the mean of the middle pair, as Python's
/// statistics.median gives it, whereas the nearest-rank
/// latticesched::SampleSet::percentile snaps to one sample, which makes
/// the median of the few set-ups in a run jump between neighbours.
double percentile(std::vector<double> samples, double p);

/// Whether `n` samples support percentile `p`: at least kTailSamples of
/// them lie strictly above the p-th rank, i.e. n * (100 - p) / 100 >=
/// kTailSamples.  The median of any non-empty sample is supported.
bool tail_supported(std::size_t n, double p);

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
/// Zeroes when /proc/stat cannot be read.
CpuTimes read_cpu_times();
/// Share of host CPU time stolen by the hypervisor between two readings
/// (0 when no time passed).
double steal_share(const CpuTimes& before, const CpuTimes& after);

/// Involuntary context switches of this process so far (getrusage).
std::uint64_t involuntary_switches();

/// Online CPUs (sysconf), the `nproc` of the host.
std::size_t online_cpus();

/// CPUs the calling thread may run on (sched_getaffinity; 0 when it
/// cannot be read).
std::size_t allowed_cpus();

}  // namespace perfbench
