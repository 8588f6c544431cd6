// Deterministic pseudo-random number generation (SplitMix64 core). All
// workload generators and property tests seed explicitly so every run of the
// test suite and the benchmark harness is reproducible.

#ifndef HGS_COMMON_RNG_H_
#define HGS_COMMON_RNG_H_

#include <cmath>
#include <cstdint>

#include "common/types.h"

namespace hgs {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x853C49E6748FEA9Bull) : state_(seed) {}

  /// Next raw 64-bit value.
  uint64_t Next() {
    return Mix64(state_ += 0x9E3779B97F4A7C15ull);
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }

  /// Uniform integer in [lo, hi).
  int64_t UniformRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo)));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Skewed integer in [0, n): rank r chosen with weight ~ 1/(r+1)^s using a
  /// continuous inverse-CDF approximation (adequate for workload skew).
  uint64_t Zipf(uint64_t n, double s = 1.0) {
    double u = NextDouble();
    double x;
    if (s == 1.0) {
      x = std::exp(u * std::log(static_cast<double>(n) + 1.0)) - 1.0;
    } else {
      double one_minus_s = 1.0 - s;
      double max_cdf =
          std::pow(static_cast<double>(n) + 1.0, one_minus_s) - 1.0;
      x = std::pow(u * max_cdf + 1.0, 1.0 / one_minus_s) - 1.0;
    }
    auto r = static_cast<uint64_t>(x);
    return r >= n ? n - 1 : r;
  }

 private:
  uint64_t state_;
};

}  // namespace hgs

#endif  // HGS_COMMON_RNG_H_
