// Percentile reporting for host-time samples: the median, plus the highest
// percentile of a fixed ladder that still has at least ten samples beyond
// it, always with the sample count it was taken from.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a tail percentile needs beyond it before it is reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Candidate tail percentiles, highest first.
inline constexpr double kPercentileLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0,
                                               50.0};

struct PercentileValue {
  double percentile = 0.0;  ///< e.g. 99.0
  double value = 0.0;       ///< nearest-rank sample at that percentile
  std::size_t samples = 0;  ///< population size
  std::size_t beyond = 0;   ///< samples strictly above the rank
};

/// Nearest-rank percentile `p` in (0, 100] of `sorted` (ascending, non-empty).
[[nodiscard]] PercentileValue percentile_of(const std::vector<double>& sorted,
                                            double p);

/// Median of unsorted `values` (mean of the middle two for an even count);
/// 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// The highest ladder percentile with at least kMinBeyond samples beyond it,
/// or nothing (samples == 0) when even the median lacks them.
[[nodiscard]] PercentileValue highest_supported(std::vector<double> values);

/// Metric name for a percentile of `stem`: ("run_ms", 99.0) -> "run_ms_p99",
/// ("run_ms", 99.9) -> "run_ms_p99.9".
[[nodiscard]] std::string percentile_name(const std::string& stem, double p);

}  // namespace perfbench
