#include "common/bytes.h"

#include <cstring>

namespace lppa {

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  LPPA_REQUIRE(data.size() <= ~std::uint32_t{0},
               "byte string too long for u32 length prefix");
  u32(static_cast<std::uint32_t>(data.size()));
  raw(data);
}

void ByteWriter::raw(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteReader::need(std::size_t n) const {
  LPPA_PROTOCOL_CHECK(remaining() >= n, "truncated message");
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Bytes ByteReader::bytes() {
  const std::uint32_t n = u32();
  return raw(n);
}

Bytes ByteReader::raw(std::size_t n) {
  need(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::span<const std::uint8_t> ByteReader::bytes_view() {
  const std::uint32_t n = u32();
  need(n);
  const auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

void ByteReader::raw_into(std::span<std::uint8_t> out) {
  need(out.size());
  if (!out.empty()) std::memcpy(out.data(), data_.data() + pos_, out.size());
  pos_ += out.size();
}

std::uint32_t ByteReader::count(std::size_t min_item_bytes) {
  const std::uint32_t n = u32();
  expect_items(n, min_item_bytes);
  return n;
}

void ByteReader::expect_items(std::size_t items,
                              std::size_t min_item_bytes) const {
  LPPA_REQUIRE(min_item_bytes > 0, "element size bound must be positive");
  // Divide rather than multiply: items * min_item_bytes can overflow.
  LPPA_PROTOCOL_CHECK(items <= remaining() / min_item_bytes,
                      "element count exceeds the remaining input");
}

bool ct_equal(std::span<const std::uint8_t> a,
              std::span<const std::uint8_t> b) noexcept {
  if (a.size() != b.size()) return false;
  return detail::ct_diff(a.data(), b.data(), a.size()) == 0;
}

std::string to_hex(std::span<const std::uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  LPPA_REQUIRE(hex.size() % 2 == 0, "hex string must have even length");
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    LPPA_REQUIRE(false, "invalid hex character");
    return 0;
  };
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return out;
}

}  // namespace lppa
