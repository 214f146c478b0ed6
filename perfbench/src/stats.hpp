// Order statistics for the benchmark's timings.
//
// Quantiles use the nearest-rank rule: the q-quantile of n sorted samples
// is the ceil(q*n)-th smallest, and n - ceil(q*n) samples lie beyond it.
// A tail quantile is reported only when at least kMinTailSamples lie
// beyond it, so a "p99" never rests on one or two outliers.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank q-quantile of `sorted` (ascending); 0 when empty.
double quantile(const std::vector<double>& sorted, double q);

/// Samples strictly after the nearest-rank q-quantile's position.
std::size_t samplesBeyond(std::size_t n, double q);

/// The highest quantile in {0.99, 0.98, ..., 0.50} with at least
/// kMinTailSamples beyond it (0.5 when even the median has too few).
double supportedTailLevel(std::size_t n, double highest = 0.99);

/// Sorted copy.
std::vector<double> sorted(std::vector<double> values);

/// Median (nearest rank); 0 when empty.
double median(std::vector<double> values);

} // namespace perfbench
