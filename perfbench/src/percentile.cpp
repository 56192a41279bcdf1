#include "percentile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

PercentileValue percentile_of(const std::vector<double>& sorted, double p) {
  PercentileValue out;
  out.percentile = p;
  out.samples = sorted.size();
  if (sorted.empty()) return out;
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  // The epsilon keeps 0.99 * 1000 from rounding up to rank 991.
  const double exact = p / 100.0 * static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  out.value = sorted[rank - 1];
  out.beyond = sorted.size() - rank;
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

PercentileValue highest_supported(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  for (const double p : kPercentileLadder) {
    const PercentileValue v = percentile_of(values, p);
    if (v.beyond >= kMinBeyond) return v;
  }
  PercentileValue none;
  none.samples = values.size();
  return none;
}

std::string percentile_name(const std::string& stem, double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", p);
  return stem + "_p" + buf;
}

}  // namespace perfbench
