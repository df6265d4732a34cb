#include "prefix/hashed_set.h"

#include <gtest/gtest.h>

#include <utility>

#include "common/rng.h"

namespace lppa::prefix {
namespace {

struct HashedSetTest : ::testing::Test {
  Rng rng{99};
  crypto::SecretKey key = crypto::SecretKey::generate(rng);
};

TEST_F(HashedSetTest, ValueFamilySize) {
  const auto s = HashedPrefixSet::of_value(key, 7, 4);
  EXPECT_EQ(s.size(), 5u);  // w+1
}

TEST_F(HashedSetTest, IntersectionMirrorsPlaintextMembership) {
  // The defining property of the whole construction: masked sets
  // intersect exactly when the plaintext membership holds.
  const int w = 10;
  for (int round = 0; round < 200; ++round) {
    std::uint64_t a = rng.below(1 << w);
    std::uint64_t b = rng.below(1 << w);
    if (a > b) std::swap(a, b);
    const std::uint64_t x = rng.below(1 << w);
    const auto family = HashedPrefixSet::of_value(key, x, w);
    const auto range = HashedPrefixSet::of_range(key, a, b, w);
    EXPECT_EQ(family.intersects(range), x >= a && x <= b)
        << "x=" << x << " [" << a << "," << b << "]";
  }
}

TEST_F(HashedSetTest, IntersectionIsSymmetric) {
  const auto f = HashedPrefixSet::of_value(key, 7, 4);
  const auto r = HashedPrefixSet::of_range(key, 6, 14, 4);
  EXPECT_EQ(f.intersects(r), r.intersects(f));
}

TEST_F(HashedSetTest, DifferentKeysNeverIntersect) {
  const crypto::SecretKey other = crypto::SecretKey::generate(rng);
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t x = rng.below(1 << 10);
    const auto mine = HashedPrefixSet::of_value(key, x, 10);
    const auto theirs = HashedPrefixSet::of_range(other, 0, (1 << 10) - 1, 10);
    // Under the wrong key even the trivially-true membership "x in full
    // domain" is invisible.
    EXPECT_FALSE(mine.intersects(theirs));
  }
}

TEST_F(HashedSetTest, PaddingNeverChangesAnswers) {
  const int w = 8;
  for (int round = 0; round < 100; ++round) {
    std::uint64_t a = rng.below(1 << w);
    std::uint64_t b = rng.below(1 << w);
    if (a > b) std::swap(a, b);
    const std::uint64_t x = rng.below(1 << w);
    const auto family = HashedPrefixSet::of_value(key, x, w);
    auto range = HashedPrefixSet::of_range(key, a, b, w);
    const bool before = family.intersects(range);
    range.pad_to(max_range_prefixes(w), rng);
    EXPECT_EQ(range.size(), max_range_prefixes(w));
    EXPECT_EQ(family.intersects(range), before);
  }
}

TEST_F(HashedSetTest, PadToSmallerTargetIsNoOp) {
  auto s = HashedPrefixSet::of_value(key, 7, 4);
  const auto before = s;
  s.pad_to(2, rng);
  EXPECT_EQ(s, before);
}

TEST_F(HashedSetTest, PaddedSetsHaveUniformCardinality) {
  // Fix (v): after padding, a tight range and a worst-case range are
  // indistinguishable by set size.
  const int w = 8;
  auto narrow = HashedPrefixSet::of_range(key, 5, 5, w);
  auto wide = HashedPrefixSet::of_range(key, 1, (1 << w) - 2, w);
  narrow.pad_to(max_range_prefixes(w), rng);
  wide.pad_to(max_range_prefixes(w), rng);
  EXPECT_EQ(narrow.size(), wide.size());
}

TEST_F(HashedSetTest, SerializeRoundTrip) {
  auto s = HashedPrefixSet::of_range(key, 3, 200, 10);
  s.pad_to(max_range_prefixes(10), rng);
  ByteWriter w;
  s.serialize(w);
  EXPECT_EQ(w.size(), s.wire_size());
  ByteReader r(std::span<const std::uint8_t>(w.data()));
  const auto restored = HashedPrefixSet::deserialize(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(restored, s);
}

TEST_F(HashedSetTest, DeserializeRejectsTruncation) {
  ByteWriter w;
  HashedPrefixSet::of_value(key, 7, 4).serialize(w);
  Bytes wire = w.take();
  wire.resize(wire.size() - 1);
  ByteReader r(wire);
  EXPECT_THROW(HashedPrefixSet::deserialize(r), LppaError);
}

TEST_F(HashedSetTest, FromDigestsSortsInput) {
  crypto::Digest d1, d2;
  d1.bytes[0] = 2;
  d2.bytes[0] = 1;
  const auto s = HashedPrefixSet::from_digests({d1, d2});
  EXPECT_LT(s.digests()[0], s.digests()[1]);
}

// The one-pass padded range (size, pad, hash, sort once) against the
// two-step of_range then pad_to, from the same RNG state: the same
// digests in the same order, and the same RNG state afterwards.
TEST_F(HashedSetTest, PaddedRangeMatchesRangeThenPadTo) {
  const crypto::HmacKeyCtx ctx(key);
  for (int w = 1; w <= kMaxWidth; ++w) {
    const std::uint64_t top =
        w == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << w) - 1;
    for (int trial = 0; trial < 3; ++trial) {
      std::uint64_t a = rng.next() & top;
      std::uint64_t b = rng.next() & top;
      if (a > b) std::swap(a, b);
      const std::size_t target = max_range_prefixes(w);
      Rng one_pass_rng(static_cast<std::uint64_t>(1000 * w + trial));
      Rng two_step_rng = one_pass_rng;

      HashedPrefixSet one_pass;
      HashedSetBatch batch;
      batch.add_range(one_pass, ctx, a, b, w, target, &one_pass_rng);
      batch.run();

      HashedPrefixSet two_step = HashedPrefixSet::of_range(ctx, a, b, w);
      two_step.pad_to(target, two_step_rng);

      EXPECT_EQ(one_pass, two_step) << "w=" << w << " [" << a << ", " << b << "]";
      EXPECT_EQ(one_pass.size(), target);
      EXPECT_EQ(one_pass_rng.next(), two_step_rng.next()) << "w=" << w;
    }
  }
}

TEST_F(HashedSetTest, EmptySetIntersectsNothing) {
  const HashedPrefixSet empty;
  const auto other = HashedPrefixSet::of_value(key, 7, 4);
  EXPECT_FALSE(empty.intersects(other));
  EXPECT_FALSE(other.intersects(empty));
  EXPECT_FALSE(empty.intersects(empty));
}

TEST_F(HashedSetTest, BoxMatchRequiresBothAxes) {
  // Point (7, 3); box x in [6,14], y in [10,12] -> y fails.
  const auto xf = HashedPrefixSet::of_value(key, 7, 4);
  const auto yf = HashedPrefixSet::of_value(key, 3, 4);
  const auto xr = HashedPrefixSet::of_range(key, 6, 14, 4);
  const auto yr_hit = HashedPrefixSet::of_range(key, 2, 5, 4);
  const auto yr_miss = HashedPrefixSet::of_range(key, 10, 12, 4);
  EXPECT_TRUE(box_match(xf, yf, xr, yr_hit));
  EXPECT_FALSE(box_match(xf, yf, xr, yr_miss));
  EXPECT_FALSE(box_match(yf, xf, yr_miss, xr));
}

TEST_F(HashedSetTest, WireSizeFormula) {
  const auto s = HashedPrefixSet::of_value(key, 7, 4);
  EXPECT_EQ(s.wire_size(), 4 + 32 * s.size());
}

}  // namespace
}  // namespace lppa::prefix
