#include "common/bytes.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/sha256.h"

namespace lppa {
namespace {

TEST(ByteWriter, FixedWidthLittleEndian) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0102030405060708ULL);
  const Bytes& b = w.data();
  ASSERT_EQ(b.size(), 1u + 2 + 4 + 8);
  EXPECT_EQ(b[0], 0xab);
  EXPECT_EQ(b[1], 0x34);  // u16 low byte first
  EXPECT_EQ(b[2], 0x12);
  EXPECT_EQ(b[3], 0xef);  // u32 low byte first
  EXPECT_EQ(b[6], 0xde);
  EXPECT_EQ(b[7], 0x08);  // u64 low byte first
  EXPECT_EQ(b[14], 0x01);
}

TEST(ByteRoundTrip, AllScalarWidths) {
  ByteWriter w;
  w.u8(7);
  w.u16(65535);
  w.u32(0);
  w.u64(~0ULL);
  ByteReader r(std::span<const std::uint8_t>(w.data()));
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 65535);
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.u64(), ~0ULL);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteRoundTrip, LengthPrefixedBytes) {
  ByteWriter w;
  const Bytes payload = {1, 2, 3, 4, 5};
  w.bytes(payload);
  w.bytes(Bytes{});  // empty payload round-trips too
  ByteReader r(std::span<const std::uint8_t>(w.data()));
  EXPECT_EQ(r.bytes(), payload);
  EXPECT_EQ(r.bytes(), Bytes{});
  EXPECT_TRUE(r.at_end());
}

TEST(ByteRoundTrip, RawBytes) {
  ByteWriter w;
  const Bytes payload = {9, 8, 7};
  w.raw(payload);
  ByteReader r(std::span<const std::uint8_t>(w.data()));
  EXPECT_EQ(r.raw(3), payload);
}

TEST(ByteReader, TruncationThrowsProtocolError) {
  const Bytes b = {1, 2};
  ByteReader r(b);
  EXPECT_EQ(r.u16(), 0x0201);
  try {
    (void)r.u8();
    FAIL() << "expected LppaError";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
}

TEST(ByteReader, LengthPrefixLongerThanBufferThrows) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes follow
  w.u8(1);
  ByteReader r(std::span<const std::uint8_t>(w.data()));
  EXPECT_THROW(r.bytes(), LppaError);
}

TEST(ByteReader, RemainingTracksPosition) {
  const Bytes b = {1, 2, 3, 4};
  ByteReader r(b);
  EXPECT_EQ(r.remaining(), 4u);
  r.u16();
  EXPECT_EQ(r.remaining(), 2u);
  r.raw(2);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.at_end());
}

TEST(Hex, EncodesLowercase) {
  const Bytes b = {0x00, 0xff, 0xa5};
  EXPECT_EQ(to_hex(b), "00ffa5");
}

TEST(Hex, RoundTrip) {
  const Bytes b = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x11};
  EXPECT_EQ(from_hex(to_hex(b)), b);
}

TEST(Hex, AcceptsUppercase) {
  EXPECT_EQ(from_hex("DEADBEEF"), (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(Hex, RejectsOddLength) { EXPECT_THROW(from_hex("abc"), LppaError); }

TEST(Hex, RejectsNonHexCharacters) { EXPECT_THROW(from_hex("zz"), LppaError); }

TEST(Hex, EmptyStringYieldsEmptyBytes) {
  EXPECT_TRUE(from_hex("").empty());
  EXPECT_EQ(to_hex(Bytes{}), "");
}

TEST(CtEqual, MatchesOperatorEqualOnAllInputs) {
  const Bytes a = {1, 2, 3, 4};
  const Bytes b = {1, 2, 3, 4};
  const Bytes first_differs = {9, 2, 3, 4};
  const Bytes last_differs = {1, 2, 3, 9};
  const Bytes shorter = {1, 2, 3};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_TRUE(ct_equal(a, a));
  EXPECT_FALSE(ct_equal(a, first_differs));
  EXPECT_FALSE(ct_equal(a, last_differs));
  EXPECT_FALSE(ct_equal(a, shorter));
  EXPECT_FALSE(ct_equal(shorter, a));
}

TEST(CtEqual, EmptySpansAreEqual) {
  EXPECT_TRUE(ct_equal(Bytes{}, Bytes{}));
  EXPECT_FALSE(ct_equal(Bytes{}, Bytes{0}));
}

TEST(CtEqual, SingleBitDifferencesAreDetectedEverywhere) {
  Bytes base(32, 0x5a);
  for (std::size_t byte = 0; byte < base.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = base;
      flipped[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_FALSE(ct_equal(base, flipped)) << byte << ":" << bit;
    }
  }
}

TEST(CtEqual, FindsEveryDifferingBytePosition) {
  // Lengths 0-70 cover the 8-byte word loop, the byte tail and both
  // together; each position is flipped on its own, in both argument
  // orders.  The spans start `len % 8` bytes into their buffers, so the
  // word loads also run unaligned.
  Rng rng(31);
  for (std::size_t len = 0; len <= 70; ++len) {
    const std::size_t off = len % 8;
    Bytes base(off + len);
    for (auto& b : base) b = static_cast<std::uint8_t>(rng.below(256));
    const Bytes copy = base;
    const auto view = [&](const Bytes& buf) {
      return std::span<const std::uint8_t>(buf).subspan(off, len);
    };
    EXPECT_TRUE(ct_equal(view(base), view(copy))) << "len " << len;
    for (std::size_t pos = 0; pos < len; ++pos) {
      Bytes flipped = base;
      flipped[off + pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      EXPECT_FALSE(ct_equal(view(base), view(flipped))) << len << ":" << pos;
      EXPECT_FALSE(ct_equal(view(flipped), view(base))) << len << ":" << pos;
    }
  }
  // The inline Digest overload is the span kernel on 32 bytes.
  crypto::Digest a;
  for (auto& b : a.bytes) b = static_cast<std::uint8_t>(rng.below(256));
  const crypto::Digest same = a;
  EXPECT_TRUE(crypto::ct_equal(a, same));
  EXPECT_TRUE(ct_equal(a.bytes, same.bytes));
  for (std::size_t pos = 0; pos < crypto::Digest::kSize; ++pos) {
    crypto::Digest b = a;
    b.bytes[pos] ^= 0x80;
    const std::span<const std::uint8_t> sa(a.bytes);
    const std::span<const std::uint8_t> sb(b.bytes);
    EXPECT_EQ(crypto::ct_equal(a, b), ct_equal(sa, sb)) << pos;
    EXPECT_EQ(crypto::ct_equal(b, a), ct_equal(sb, sa)) << pos;
    EXPECT_FALSE(crypto::ct_equal(a, b)) << pos;
    EXPECT_FALSE(ct_equal(a.bytes, b.bytes)) << pos;
  }
}

}  // namespace
}  // namespace lppa
