#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of the q-quantile among n samples.
std::size_t rankOf(std::size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  // Absorb binary rounding (0.99 * 1000 is 990.0000000000001).
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty())
    return 0;
  return sorted[rankOf(sorted.size(), q) - 1];
}

std::size_t samplesBeyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rankOf(n, q);
}

double supportedTailLevel(std::size_t n, double highest) {
  for (int percent = static_cast<int>(std::lround(highest * 100));
       percent > 50; --percent) {
    const double q = percent / 100.0;
    if (samplesBeyond(n, q) >= kMinTailSamples)
      return q;
  }
  return 0.5;
}

std::vector<double> sorted(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values;
}

double median(std::vector<double> values) {
  return quantile(sorted(std::move(values)), 0.5);
}

} // namespace perfbench
