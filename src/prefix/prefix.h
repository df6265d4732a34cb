// Prefix membership verification (PMV) primitives, after Chen & Liu,
// "SafeQ" (INFOCOM'11), as used by the paper's §II-B.
//
// A w-bit value x is in a range [a,b] iff the prefix family of x and the
// minimal prefix cover of [a,b] share at least one prefix.  Prefixes are
// "numericalised" into distinct (w+1)-bit integers so that prefix equality
// becomes integer equality, which in turn survives keyed hashing — that is
// what lets an untrusted auctioneer evaluate range predicates on HMAC'd
// data.
//
// Representation: Prefix{bits, len, width} denotes the pattern whose `len`
// leading bits equal the low `len` bits of `bits`, followed by width-len
// wildcard bits.  E.g. 110* over w=4 is {bits=0b110, len=3, width=4}.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"

namespace lppa::prefix {

/// Widest supported value: 62 bits, so that numericalisation (w+1 bits)
/// and the "scaled bid" arithmetic never overflow a u64.
inline constexpr int kMaxWidth = 62;

struct Prefix {
  std::uint64_t bits = 0;  ///< value of the fixed leading bits
  int len = 0;             ///< number of fixed leading bits, 0..width
  int width = 0;           ///< total bit width w of the encoded values

  /// Smallest value matching the prefix (fill wildcards with 0).
  std::uint64_t range_lo() const noexcept {
    return bits << (width - len);
  }
  /// Largest value matching the prefix (fill wildcards with 1).
  std::uint64_t range_hi() const noexcept {
    const int tail = width - len;
    return (bits << tail) | ((tail == 0) ? 0 : ((std::uint64_t{1} << tail) - 1));
  }

  /// True iff value v (a width-bit number) matches the prefix.
  bool matches(std::uint64_t v) const noexcept {
    return (v >> (width - len)) == bits;
  }

  /// Human-readable pattern, e.g. "110*" — used in logs and tests.
  std::string pattern() const;

  bool operator==(const Prefix&) const = default;
};

/// Validates that v fits in `width` bits and width is in [1, kMaxWidth].
void check_value_width(std::uint64_t v, int width);

/// The prefix family G(x): the w+1 prefixes of x with lengths w, w-1, .., 0.
/// Each is a range containing x.
std::vector<Prefix> prefix_family(std::uint64_t x, int width);

/// The minimal prefix cover Q([a,b]) of an inclusive range; at most 2w-2
/// prefixes (Gupta & McKeown).  Requires a <= b and both fitting `width`.
std::vector<Prefix> range_prefixes(std::uint64_t a, std::uint64_t b, int width);

/// Prefix numericalisation O(U): the w-bit pattern t1..ts*..* becomes the
/// unique (w+1)-bit integer t1..ts 1 0..0.
std::uint64_t numericalize(const Prefix& p);

/// Most prefixes one set can hold: a cover has at most 2w-2 (<= 122), a
/// family w+1 (<= 63).
inline constexpr std::size_t kMaxSetPrefixes = 2 * kMaxWidth - 2;

/// The numericalised prefixes of one family or cover, in a fixed buffer
/// bounded by kMaxWidth: building a set allocates nothing for them.
struct PrefixNumbers {
  std::array<std::uint64_t, kMaxSetPrefixes> values;
  std::size_t size = 0;
};

/// O(G(x)), prefix lengths w down to 0 like prefix_family.
PrefixNumbers family_numbers(std::uint64_t x, int width);

/// O(Q([a,b])), in range_prefixes' order and with its requirements.
PrefixNumbers cover_numbers(std::uint64_t a, std::uint64_t b, int width);

/// Plaintext membership check: x in [a,b] iff O(G(x)) ∩ O(Q([a,b])) != ∅.
/// Used by tests as the reference semantics for the hashed scheme.
bool member_of_range(std::uint64_t x, std::uint64_t a, std::uint64_t b,
                     int width);

/// Worst-case cardinality of a range prefix cover for width w (the padding
/// target of the advanced bid submission protocol): max(1, 2w-2).
std::size_t max_range_prefixes(int width);

}  // namespace lppa::prefix
