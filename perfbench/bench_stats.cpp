#include "bench_stats.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    throw std::invalid_argument("percentile of an empty sample");
  }
  if (!(p >= 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile outside [0, 100]");
  }
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

bool tail_supported(std::size_t n, double p) {
  if (n == 0) return false;
  if (p <= 50.0) return true;
  return static_cast<double>(n) * (100.0 - p) >=
         static_cast<double>(kTailSamples) * 100.0;
}

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string line;
  CpuTimes t;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return t;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal [guest guest_nice];
  // guest time is already counted in user, so it is not added again.
  std::uint64_t value = 0;
  for (int i = 0; i < 8 && fields >> value; ++i) {
    t.total += value;
    if (i == 7) t.steal = value;
  }
  return t;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

std::uint64_t involuntary_switches() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_nivcsw);
}

std::size_t online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::size_t allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

}  // namespace perfbench
