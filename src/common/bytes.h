// Byte-buffer serialisation used by the protocol messages.
//
// Wire format: little-endian fixed-width integers, length-prefixed byte
// strings.  Kept deliberately boring — the point is to be able to count
// exactly how many bytes each protocol message costs (Theorem 4) and to
// round-trip messages through tests.
#pragma once

#include <cstddef>
#include <cstdint>
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

/// Constant-time equality over two byte spans: the running time depends
/// only on the lengths, never on the contents or on where the first
/// mismatch sits.  Use this for every comparison of secret-derived bytes
/// (HMAC'd prefix digests, MAC tags) — a short-circuiting == leaks the
/// match length through timing.  Length mismatch returns false
/// immediately; lengths are public here (digest sizes are fixed by the
/// protocol).
bool ct_equal(std::span<const std::uint8_t> a,
              std::span<const std::uint8_t> b) noexcept;

/// Lowercase hex encoding, handy in logs and tests.
std::string to_hex(std::span<const std::uint8_t> data);

/// Inverse of to_hex; throws on odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

}  // namespace lppa
