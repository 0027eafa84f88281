// Small helpers shared by the benchmark's files: fatal checks, a clock,
// seeded randomness the benchmark owns, percentiles and the metric list.

#ifndef NETMARK_E2E_COMMON_H_
#define NETMARK_E2E_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace e2e {

/// Prints `message` and exits non-zero without a result line.
[[noreturn]] inline void Die(const std::string& message) {
  std::fprintf(stderr, "netmark_e2e: %s\n", message.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

inline void Check(const netmark::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Unwrap(netmark::Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).ValueOrDie();
}

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: the benchmark's own generator, so request sequences depend
/// on the seed alone and not on any RNG inside the program under test.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks [0, n): P(r) proportional to 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(SplitMix64& rng) const {
    double u = rng.Unit();
    size_t r = static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                                   cdf_.begin());
    return std::min(r, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

inline double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

/// Safe ratio: 0 when the base is 0.
inline double Ratio(double part, double base) { return base == 0 ? 0 : part / base; }

/// One reported figure.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

}  // namespace e2e

#endif  // NETMARK_E2E_COMMON_H_
