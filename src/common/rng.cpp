#include "common/rng.h"

#include <bit>
#include <cmath>
#include <numbers>

namespace lppa {

std::uint64_t derive_stream_seed(std::uint64_t seed,
                                 std::uint64_t domain) noexcept {
  SplitMix64 outer(seed);
  SplitMix64 inner(outer.next() ^ domain);
  return inner.next();
}

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  LPPA_REQUIRE(lo <= hi, "Rng::uniform_int requires lo <= hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full 64-bit range
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform01() noexcept {
  // 53 uniform bits -> double in [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  LPPA_REQUIRE(lo <= hi, "Rng::uniform requires lo <= hi");
  return lo + (hi - lo) * uniform01();
}

bool Rng::bernoulli(double p) {
  LPPA_REQUIRE(p >= 0.0 && p <= 1.0, "Rng::bernoulli requires p in [0,1]");
  return uniform01() < p;
}

double Rng::normal(double mean, double stddev) {
  LPPA_REQUIRE(stddev >= 0.0, "Rng::normal requires stddev >= 0");
  // Box-Muller; u1 nudged away from 0 to keep log finite.
  const double u1 = uniform01() + 0x1.0p-60;
  const double u2 = uniform01();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

std::size_t Rng::discrete(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    LPPA_REQUIRE(w >= 0.0, "Rng::discrete requires non-negative weights");
    total += w;
  }
  LPPA_REQUIRE(total > 0.0, "Rng::discrete requires a positive weight");
  double r = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point tail
}

Rng Rng::fork() noexcept {
  // Mixing two fresh outputs through SplitMix gives an independent stream.
  SplitMix64 sm(next() ^ std::rotl(next(), 31));
  return Rng(sm.next());
}

}  // namespace lppa
