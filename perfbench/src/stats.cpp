#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// Nearest rank of percentile p among n samples; the epsilon keeps
/// 99.9% of 10000 at rank 9990 despite binary rounding.
double rank(double p, double n) { return std::ceil(p / 100.0 * n - 1e-9); }

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double r = rank(p, static_cast<double>(sorted.size()));
  const std::size_t index = r < 1 ? 0 : static_cast<std::size_t>(r) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

Tail tail(std::vector<double> samples, double wanted) {
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  for (const double p : {wanted, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (p > wanted) continue;
    const double beyond = n - rank(p, n);
    if (beyond >= 10) return Tail{percentile_sorted(samples, p), p, samples.size()};
  }
  return Tail{percentile_sorted(samples, 50), 50, samples.size()};
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, 50);
}

std::vector<std::vector<double>> blocks(const std::vector<double>& samples, std::size_t block) {
  if (samples.size() < block) return {samples};
  std::vector<std::vector<double>> out;
  for (std::size_t i = 0; i + block <= samples.size(); i += block) {
    out.emplace_back(samples.begin() + static_cast<std::ptrdiff_t>(i),
                     samples.begin() + static_cast<std::ptrdiff_t>(i + block));
  }
  return out;
}

std::vector<std::vector<double>> windows(const std::vector<std::int64_t>& t_ns,
                                         const std::vector<double>& values, std::int64_t t0_ns,
                                         double span_s, double width_s) {
  const std::size_t count = static_cast<std::size_t>(span_s / width_s + 1e-9);
  const double width_ns = width_s * 1e9;
  std::vector<std::vector<double>> out(count);
  for (std::size_t i = 0; i < t_ns.size() && i < values.size(); ++i) {
    const double offset = static_cast<double>(t_ns[i] - t0_ns);
    if (offset < 0) continue;
    const std::size_t w = static_cast<std::size_t>(offset / width_ns);
    if (w < count) out[w].push_back(values[i]);
  }
  return out;
}

}  // namespace perfbench
