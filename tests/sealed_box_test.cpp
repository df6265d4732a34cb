#include "crypto/sealed_box.h"

#include <gtest/gtest.h>

#include <vector>

namespace lppa::crypto {
namespace {

struct SealedBoxTest : ::testing::Test {
  lppa::Rng rng{1234};
  SecretKey gc = SecretKey::generate(rng);
  SealedBox box{gc};
  Bytes msg = {'b', 'i', 'd', '=', '7'};
};

TEST_F(SealedBoxTest, SealOpenRoundTrip) {
  const SealedMessage sealed = box.seal(msg, rng);
  const auto opened = box.open(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

// encrypt() for each payload, then one tag() batch over all of them,
// seals the same bytes as one seal() per payload from the same RNG state
// (the bid submitter tags a whole submission this way).
TEST_F(SealedBoxTest, BatchedTagsMatchSeal) {
  for (std::size_t count : {1u, 3u, 8u, 17u}) {
    lppa::Rng seal_rng(77 + count);
    lppa::Rng batch_rng = seal_rng;
    std::vector<SealedMessage> sealed, batched;
    for (std::size_t i = 0; i < count; ++i) {
      const Bytes plain(i % 60, static_cast<std::uint8_t>(i));
      sealed.push_back(box.seal(plain, seal_rng));
      batched.push_back(box.encrypt(plain, batch_rng));
    }
    std::vector<SealedMessage*> untagged;
    for (auto& m : batched) untagged.push_back(&m);
    box.tag(untagged);
    EXPECT_EQ(batched, sealed) << count << " messages";
  }
}

TEST_F(SealedBoxTest, CiphertextDiffersFromPlaintext) {
  const SealedMessage sealed = box.seal(msg, rng);
  EXPECT_NE(sealed.ciphertext, msg);
}

TEST_F(SealedBoxTest, SameMessageSealsDifferentlyEachTime) {
  // Fresh nonces make sealing non-deterministic: the auctioneer cannot
  // match equal bids by comparing ciphertexts.
  const SealedMessage a = box.seal(msg, rng);
  const SealedMessage b = box.seal(msg, rng);
  EXPECT_NE(a.nonce, b.nonce);
  EXPECT_NE(a.ciphertext, b.ciphertext);
}

TEST_F(SealedBoxTest, TamperedCiphertextRejected) {
  SealedMessage sealed = box.seal(msg, rng);
  sealed.ciphertext[0] ^= 0x01;
  EXPECT_FALSE(box.open(sealed).has_value());
}

TEST_F(SealedBoxTest, TamperedTagRejected) {
  SealedMessage sealed = box.seal(msg, rng);
  sealed.tag.bytes[5] ^= 0x80;
  EXPECT_FALSE(box.open(sealed).has_value());
}

TEST_F(SealedBoxTest, TamperedNonceRejected) {
  SealedMessage sealed = box.seal(msg, rng);
  sealed.nonce[0] ^= 0xff;
  EXPECT_FALSE(box.open(sealed).has_value());
}

TEST_F(SealedBoxTest, WrongKeyRejected) {
  const SealedMessage sealed = box.seal(msg, rng);
  const SecretKey other_key = SecretKey::generate(rng);
  const SealedBox other(other_key);
  EXPECT_FALSE(other.open(sealed).has_value());
}

TEST_F(SealedBoxTest, EmptyPlaintextSupported) {
  const SealedMessage sealed = box.seal(Bytes{}, rng);
  const auto opened = box.open(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

TEST_F(SealedBoxTest, SerializeDeserializeRoundTrip) {
  const SealedMessage sealed = box.seal(msg, rng);
  const Bytes wire = sealed.serialize();
  EXPECT_EQ(wire.size(), sealed.wire_size() + 4);  // +4: length prefix
  const SealedMessage restored = SealedMessage::deserialize(wire);
  EXPECT_EQ(restored, sealed);
  const auto opened = box.open(restored);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST_F(SealedBoxTest, DeserializeRejectsTrailingGarbage) {
  Bytes wire = box.seal(msg, rng).serialize();
  wire.push_back(0x00);
  EXPECT_THROW(SealedMessage::deserialize(wire), LppaError);
}

TEST_F(SealedBoxTest, DeserializeRejectsTruncation) {
  Bytes wire = box.seal(msg, rng).serialize();
  wire.resize(wire.size() - 1);
  EXPECT_THROW(SealedMessage::deserialize(wire), LppaError);
}

TEST_F(SealedBoxTest, LargeMessageRoundTrip) {
  Bytes big(10000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i);
  const SealedMessage sealed = box.seal(big, rng);
  const auto opened = box.open(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, big);
}

TEST_F(SealedBoxTest, TwoBoxesSameKeyInteroperate) {
  const SealedBox alice(gc);
  const SealedBox ttp(gc);
  const SealedMessage sealed = alice.seal(msg, rng);
  const auto opened = ttp.open(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

}  // namespace
}  // namespace lppa::crypto
