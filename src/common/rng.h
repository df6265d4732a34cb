// Deterministic pseudo-random number generation.
//
// Every stochastic component of the library (synthetic coverage maps, SU
// placement, bid noise, zero-disguise sampling, allocation tie-breaks)
// draws from an lppa::Rng seeded explicitly by the experiment driver, so
// every figure in EXPERIMENTS.md is reproducible bit-for-bit.
//
// The generator is xoshiro256** (Blackman & Vigna, public domain), seeded
// through SplitMix64 as its authors recommend.  It is NOT a cryptographic
// RNG; key material is generated via crypto::SecretKey which hashes Rng
// output through SHA-256 (fine for a simulation — see DESIGN.md).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.h"

namespace lppa {

/// SplitMix64: used to expand a 64-bit seed into xoshiro state, and handy
/// as a tiny standalone generator for hashing-style mixing.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Derives the seed of an independent, domain-separated RNG stream from
/// a base seed and a caller-chosen domain tag.
///
/// This replaces the old `seed ^ tag` idiom, which was not a derivation
/// at all: XOR is invertible, so the adversarially-related seeds `s` and
/// `s ^ tag` produced byte-identical "independent" streams (stream(s,
/// tag) == stream(s ^ tag, 0)).  Here the base seed passes through a
/// SplitMix64 finalisation round *before* the domain is mixed in, so a
/// cross-seed/cross-domain collision requires mix(s1) ^ mix(s2) == d1 ^
/// d2 — a ~2^-64 accident under the finaliser's avalanche, not a
/// constructible identity.
///
/// Compat note: core::TrustedThirdParty switched its g0/gb_master/gc key
/// streams to this derivation, so golden transcripts (exact masked
/// digests, sealed payload bytes) recorded before the switch differ from
/// current output.  Every invariant the tests pin (cross-run
/// determinism, wire round-trips, allocation equivalences) is unchanged.
std::uint64_t derive_stream_seed(std::uint64_t seed,
                                 std::uint64_t domain) noexcept;

/// xoshiro256** with convenience distributions.  Satisfies
/// UniformRandomBitGenerator so it can drive <random> and std::shuffle.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform unsigned in [0, n) via Lemire rejection.  Requires n > 0.
  std::uint64_t below(std::uint64_t n);

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Standard normal via Box-Muller (no cached spare: keeps the generator
  /// state a pure function of the draw count).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Samples an index from an unnormalised non-negative weight vector.
  /// Requires at least one strictly positive weight.
  std::size_t discrete(const std::vector<double>& weights);

  /// Derives an independent child generator; used to give each module /
  /// user / round its own stream so adding draws in one place does not
  /// perturb another.
  Rng fork() noexcept;

  /// Fisher-Yates shuffle of a contiguous container.
  template <typename Container>
  void shuffle(Container& c) {
    if (c.size() < 2) return;
    for (std::size_t i = c.size() - 1; i > 0; --i) {
      std::size_t j = static_cast<std::size_t>(below(i + 1));
      using std::swap;
      swap(c[i], c[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_;
};

// next() and below() are inline: padding digests and sealed-box nonces
// draw one byte per below(256) call.
inline std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

inline std::uint64_t Rng::below(std::uint64_t n) {
  LPPA_REQUIRE(n > 0, "Rng::below requires n > 0");
  // Lemire's nearly-divisionless method.
  __uint128_t m = static_cast<__uint128_t>(next()) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      m = static_cast<__uint128_t>(next()) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

}  // namespace lppa
