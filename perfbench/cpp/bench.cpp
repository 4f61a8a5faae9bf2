#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/rng.hpp"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  // The epsilon keeps q * n that should be whole (0.99 * 2000) from
  // rounding up past it.
  const auto rank =
      static_cast<std::size_t>(std::max(1.0, std::ceil(q * n - 1e-9)));
  return values[std::min(rank, values.size()) - 1];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : Sum(values) / static_cast<double>(values.size());
}

double TailPercentile(std::size_t n) {
  std::size_t best = 500;
  for (std::size_t permille : {900, 950, 990, 999}) {
    const std::size_t rank = (permille * n + 999) / 1000;  // nearest rank
    if (n >= rank + 10) best = permille;
  }
  return static_cast<double>(best) / 10.0;
}

double PeakRssMb() {
  // VmHWM belongs to this program's address space, which exec created;
  // ru_maxrss is kept across exec, so a small benchmark would report the
  // peak of the process that launched it.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  tdmd::SplitMix64 mix(seed * 0x100000001B3ULL + stream);
  return mix.Next();
}

}  // namespace perfbench
