// Byte-buffer serialisation used by the protocol messages, and ct_equal,
// the constant-time equality behind every comparison of secret-derived
// bytes (digest-index probes, bid-table class checks, HMAC ge, MAC tags).
//
// Wire format: little-endian fixed-width integers, length-prefixed byte
// strings.  Kept deliberately boring — the point is to be able to count
// exactly how many bytes each protocol message costs (Theorem 4) and to
// round-trip messages through tests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"

namespace lppa {

using Bytes = std::vector<std::uint8_t>;

/// Appends values to a growing byte vector.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);

  /// Length-prefixed (u32) raw bytes.
  void bytes(std::span<const std::uint8_t> data);

  /// Raw bytes with no length prefix (fixed-size fields).
  void raw(std::span<const std::uint8_t> data);

  const Bytes& data() const noexcept { return buf_; }
  Bytes take() noexcept { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Consumes values from a byte span; throws LppaError(kProtocol) on
/// truncation.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();

  /// Length-prefixed bytes (mirrors ByteWriter::bytes).
  Bytes bytes();

  /// Exactly n raw bytes (mirrors ByteWriter::raw).
  Bytes raw(std::size_t n);

  /// A u32 element count for a sequence whose every element encodes to
  /// at least `min_item_bytes` bytes.  Throws LppaError(kProtocol) when
  /// the remaining input cannot hold that many elements, so a decoder may
  /// size a container from the count before reading a single element —
  /// a hostile count costs a typed error, never a huge allocation.
  std::uint32_t count(std::size_t min_item_bytes);

  /// The check behind count(), for a count read some other way: throws
  /// LppaError(kProtocol) unless `items` elements of at least
  /// `min_item_bytes` bytes each fit in the remaining input.
  void expect_items(std::size_t items, std::size_t min_item_bytes) const;

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool at_end() const noexcept { return remaining() == 0; }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

namespace detail {

/// Hides `acc` from the optimiser once per step, so it cannot prove the
/// accumulator saturated and stop the loop early (or turn it into a
/// short-circuiting memcmp).
inline void ct_barrier(std::uint64_t& acc) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __asm__ volatile("" : "+r"(acc));
#else
  volatile std::uint64_t sink = acc;
  acc = sink;
#endif
}

/// OR of a[i] ^ b[i] over n bytes: 8-byte words (memcpy loads, so any
/// alignment), then a byte tail.  Reads every byte of both inputs, with
/// no early exit and no branch on their contents.
inline std::uint64_t ct_diff(const std::uint8_t* a, const std::uint8_t* b,
                             std::size_t n) noexcept {
  std::uint64_t acc = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t x;
    std::uint64_t y;
    std::memcpy(&x, a + i, 8);
    std::memcpy(&y, b + i, 8);
    acc |= x ^ y;
    ct_barrier(acc);
  }
  for (; i < n; ++i) {
    acc |= static_cast<std::uint64_t>(a[i] ^ b[i]);
    ct_barrier(acc);
  }
  return acc;
}

}  // namespace detail

/// Constant-time equality over two byte spans: the running time depends
/// only on the lengths, never on the contents or on where the first
/// mismatch sits.  Use this for every comparison of secret-derived bytes
/// (HMAC'd prefix digests, MAC tags) — a short-circuiting == leaks the
/// match length through timing.  Length mismatch returns false
/// immediately; lengths are public here (digest sizes are fixed by the
/// protocol).  The kernel XOR-ORs 8-byte words and then the byte tail,
/// with an empty-asm register barrier on the accumulator every step: a
/// few ns per 32-byte digest (docs/performance.md, "Commit phase").
bool ct_equal(std::span<const std::uint8_t> a,
              std::span<const std::uint8_t> b) noexcept;

/// The same kernel on two fixed-size arrays (crypto::Digest::bytes),
/// inlined so the digest index and the bid-table class checks never call
/// out of line.  An exact match for std::array arguments, so
/// `ct_equal(d.bytes, e.bytes)` resolves to it.
template <std::size_t N>
inline bool ct_equal(const std::array<std::uint8_t, N>& a,
                     const std::array<std::uint8_t, N>& b) noexcept {
  return detail::ct_diff(a.data(), b.data(), N) == 0;
}

/// Lowercase hex encoding, handy in logs and tests.
std::string to_hex(std::span<const std::uint8_t> data);

/// Inverse of to_hex; throws on odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

}  // namespace lppa
