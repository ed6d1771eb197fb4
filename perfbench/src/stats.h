// Summary statistics with an explicit sample count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile as reported: its value, which percentile it is, and how
/// many samples it was read from.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
};

/// Nearest-rank percentile of an ascending sample vector (0 < p <= 100).
double percentile_sorted(const std::vector<double>& sorted, double p);

/// The reporting rule for tails: the highest percentile, no higher than
/// `wanted`, from the ladder {wanted, 99.9, 99, 95, 90, 75, 50} that has at
/// least ten samples ranked beyond it.  With fewer than twenty samples no
/// rung qualifies and the median is reported.  Infinite samples (requests
/// that were refused) rank beyond every finite one.
Tail tail(std::vector<double> samples, double wanted);

double median(std::vector<double> samples);

/// Consecutive blocks of `block` samples, trailing partial block dropped;
/// a single block of everything when there are fewer than `block`.
std::vector<std::vector<double>> blocks(const std::vector<double>& samples, std::size_t block);

/// Splits timestamped samples into the complete windows of `width_s`
/// seconds that fit in [t0, t0 + span_s) and returns each window's values.
/// Samples outside those windows (the drain after the run) are dropped.
std::vector<std::vector<double>> windows(const std::vector<std::int64_t>& t_ns,
                                         const std::vector<double>& values, std::int64_t t0_ns,
                                         double span_s, double width_s);

}  // namespace perfbench
