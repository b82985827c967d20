#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Microseconds on the process steady clock. Client threads, the serve
/// decorator and the span recorder all read this one clock, so timestamps
/// taken on different threads subtract meaningfully.
inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Samples lying strictly beyond a reported percentile. A percentile with
/// fewer samples behind it is decided by a handful of outliers and moves
/// from run to run, so it is not reported at all.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, or nullopt when
/// fewer than kMinTailSamples samples lie beyond it: n * (1 - q) must be
/// at least 10, so p50 needs 20 samples, p90 100 and p99 1000.
inline std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const double beyond = static_cast<double>(n) * (1.0 - q);
  if (beyond + 1e-9 < static_cast<double>(kMinTailSamples)) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

/// Median of a small set (e.g. the five set-up timings); no tail rule.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Ratio that reads 0 instead of NaN when the denominator is empty.
inline double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
