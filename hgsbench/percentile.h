// Latency summaries that refuse to extrapolate. A percentile is reported
// only when at least kMinTailSamples samples lie beyond it: a "p999" taken
// from 200 samples is just the maximum, and a median of 3 samples says
// nothing about the next run. Callers receive std::nullopt instead and
// decide whether the missing number is an error (an end-to-end metric) or
// simply absent (a per-API breakdown of a rarely issued call).

#ifndef HGS_HGSBENCH_PERCENTILE_H_
#define HGS_HGSBENCH_PERCENTILE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace hgs::bench {

/// Samples that must lie strictly beyond a percentile's rank.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile (p in (0, 1)) of ascending `sorted`, or nullopt
/// when fewer than kMinTailSamples samples lie beyond the rank.
inline std::optional<double> Percentile(const std::vector<double>& sorted,
                                        double p) {
  const size_t n = sorted.size();
  if (n == 0 || p <= 0 || p >= 1) return std::nullopt;
  auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::max<size_t>(rank, 1);
  if (n - rank < kMinTailSamples) return std::nullopt;
  return sorted[rank - 1];
}

/// Median, quartiles and p90 of one sample set, each present only when the
/// sample supports it.
struct Distribution {
  size_t samples = 0;
  std::optional<double> p25;
  std::optional<double> p50;
  std::optional<double> p75;
  std::optional<double> p90;
};

inline Distribution Summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Distribution d;
  d.samples = values.size();
  d.p25 = Percentile(values, 0.25);
  d.p50 = Percentile(values, 0.50);
  d.p75 = Percentile(values, 0.75);
  d.p90 = Percentile(values, 0.90);
  return d;
}

}  // namespace hgs::bench

#endif  // HGS_HGSBENCH_PERCENTILE_H_
