// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The protocol uses SHA-256 only through HMAC (crypto/hmac.h); the digest
// type defined here is also the canonical "hashed prefix" element that the
// auctioneer intersects, so Digest carries ordering and hashing support.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "common/bytes.h"

namespace lppa::crypto {

/// A 256-bit digest.  Strong ordering lets HashedPrefixSet keep sorted
/// vectors and intersect them in linear time.
struct Digest {
  static constexpr std::size_t kSize = 32;
  std::array<std::uint8_t, kSize> bytes{};

  /// Byte-lexicographic order, compared as four big-endian 64-bit words
  /// (byte-swapped little-endian loads): the same order as a byte-array
  /// compare, at a quarter of the steps.  Every sorted digest vector, the
  /// wire and the intersects() merge depend on it being exactly that
  /// order.  It only orders digests; membership is confirmed with
  /// ct_equal.
  std::strong_ordering operator<=>(const Digest& other) const noexcept {
    for (std::size_t i = 0; i < kSize; i += 8) {
      const std::uint64_t a = word_be(i);
      const std::uint64_t b = other.word_be(i);
      if (a != b) return a < b ? std::strong_ordering::less
                               : std::strong_ordering::greater;
    }
    return std::strong_ordering::equal;
  }
  bool operator==(const Digest&) const = default;

  /// Bytes [i, i+8) as a big-endian integer.
  std::uint64_t word_be(std::size_t i) const noexcept {
    std::uint64_t v;
    std::memcpy(&v, bytes.data() + i, sizeof v);
    if constexpr (std::endian::native == std::endian::little) {
      v = __builtin_bswap64(v);
    }
    return v;
  }

  /// First 8 bytes as a little-endian integer — used as a fast hash for
  /// unordered containers (the bytes are already uniform).  Inline: the
  /// digest index and the bid-table grouping hash every digest they see.
  std::uint64_t fingerprint() const noexcept {
    std::uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, bytes.data(), sizeof v);
    } else {
      for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
      }
    }
    return v;
  }

  std::string hex() const { return to_hex(bytes); }
};

/// Constant-time digest equality: lppa::ct_equal's word kernel on the
/// fixed 32 bytes, inline.  The using-declaration keeps the span and
/// array overloads visible to unqualified calls inside lppa::crypto.
using lppa::ct_equal;
inline bool ct_equal(const Digest& a, const Digest& b) noexcept {
  return lppa::ct_equal(a.bytes, b.bytes);
}

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256() noexcept;

  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view data) noexcept;

  /// Finalises and returns the digest.  The object must not be reused
  /// afterwards without calling reset().
  Digest finalize() noexcept;

  void reset() noexcept;

  /// Resumes a hash whose first `absorbed_blocks` 64-byte blocks left
  /// the chaining value `midstate` (HMAC's cached ipad/opad states).
  static Sha256 resume(const std::array<std::uint32_t, 8>& midstate,
                       std::uint64_t absorbed_blocks) noexcept;

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data) noexcept;
  static Digest hash(std::string_view data) noexcept;

  /// True when the compression function dispatches to a hardware
  /// implementation (x86 SHA extensions) on this machine.  Purely
  /// informational — both paths compute the same FIPS 180-4 function.
  static bool accelerated() noexcept;

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_;
  std::uint64_t total_len_;
};

}  // namespace lppa::crypto

template <>
struct std::hash<lppa::crypto::Digest> {
  std::size_t operator()(const lppa::crypto::Digest& d) const noexcept {
    return static_cast<std::size_t>(d.fingerprint());
  }
};
