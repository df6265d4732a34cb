#include "core/ttp.h"

#include <gtest/gtest.h>

namespace lppa::core {
namespace {

struct TtpTest : ::testing::Test {
  PpbsBidConfig cfg = PpbsBidConfig::advanced(
      15, 3, 4, ZeroDisguisePolicy::uniform(15, 0.5));
  TrustedThirdParty ttp{cfg, 4242};
  BidSubmitter submitter{cfg, ttp.su_keys().gb_master, ttp.su_keys().gc};
  Rng rng{1};

  ChargeQuery query_for(ChannelId r, Money bid) {
    const auto sub = submitter.encode_bid(r, bid, rng);
    return ChargeQuery{/*user=*/3, r, sub.sealed, sub.value_family, 0,
                       std::nullopt, std::nullopt, 0};
  }
};

TEST_F(TtpTest, KeysAreDeterministicPerSeed) {
  const TrustedThirdParty again(cfg, 4242);
  EXPECT_EQ(again.su_keys().g0, ttp.su_keys().g0);
  EXPECT_EQ(again.su_keys().gb_master, ttp.su_keys().gb_master);
  EXPECT_EQ(again.su_keys().gc, ttp.su_keys().gc);
  const TrustedThirdParty other(cfg, 4243);
  EXPECT_NE(other.su_keys().gc, ttp.su_keys().gc);
}

TEST_F(TtpTest, KeysAreMutuallyDistinct) {
  const auto keys = ttp.su_keys();
  EXPECT_NE(keys.g0, keys.gb_master);
  EXPECT_NE(keys.g0, keys.gc);
  EXPECT_NE(keys.gb_master, keys.gc);
}

TEST_F(TtpTest, PositiveBidChargedFirstPrice) {
  const auto result = ttp.process(query_for(2, 9));
  EXPECT_TRUE(result.valid);
  EXPECT_FALSE(result.manipulated);
  EXPECT_EQ(result.charge, 9u);
  EXPECT_EQ(result.user, 3u);
  EXPECT_EQ(result.channel, 2u);
}

TEST_F(TtpTest, TrueZeroIsInvalid) {
  // Run several times: zeros are sometimes disguised, sometimes kept in
  // the zero band — both must come back invalid with no charge.
  for (int i = 0; i < 30; ++i) {
    const auto result = ttp.process(query_for(0, 0));
    EXPECT_FALSE(result.valid);
    EXPECT_FALSE(result.manipulated);
    EXPECT_EQ(result.charge, 0u);
  }
}

TEST_F(TtpTest, TamperedPrefixFamilyFlagsManipulation) {
  auto query = query_for(1, 7);
  // Swap in the prefix family of a different (higher) price.
  const auto other = submitter.encode_bid(1, 12, rng);
  query.value_family = other.value_family;
  const auto result = ttp.process(query);
  EXPECT_TRUE(result.manipulated);
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.charge, 0u);
}

TEST_F(TtpTest, ForeignSealedBoxFlagsManipulation) {
  auto query = query_for(1, 7);
  Rng key_rng(99);
  const crypto::SecretKey wrong = crypto::SecretKey::generate(key_rng);
  const crypto::SealedBox wrong_box(wrong);
  const Bytes plain = SealedBidPayload{7, 40}.serialize();
  query.sealed = wrong_box.seal(plain, rng);
  const auto result = ttp.process(query);
  EXPECT_TRUE(result.manipulated);
}

TEST_F(TtpTest, InconsistentPayloadFlagsManipulation) {
  // Seal a payload whose scaled value does not match the claimed bid's
  // slot, with a consistent prefix family: a cheating bidder trying to
  // win at the price of 12 while paying 2.
  const crypto::SealedBox box(ttp.su_keys().gc);
  const std::uint64_t scaled_for_12 = cfg.enc.cr * (12 + cfg.enc.rd);
  const Bytes plain = SealedBidPayload{2, scaled_for_12}.serialize();
  const auto family = prefix::HashedPrefixSet::of_value(
      derive_channel_key(ttp.su_keys().gb_master, 0, true), scaled_for_12,
      cfg.enc.scaled_width());
  ChargeQuery query{0, 0, box.seal(plain, rng), family, 0, std::nullopt,
                    std::nullopt, 0};
  const auto result = ttp.process(query);
  EXPECT_TRUE(result.manipulated);
}

TEST_F(TtpTest, OverflowingTrueBidFlagsManipulation) {
  const crypto::SealedBox box(ttp.su_keys().gc);
  const std::uint64_t scaled = cfg.enc.cr * (16 + cfg.enc.rd);
  const Bytes plain = SealedBidPayload{16, scaled}.serialize();
  const auto family = prefix::HashedPrefixSet::of_value(
      derive_channel_key(ttp.su_keys().gb_master, 0, true), scaled,
      cfg.enc.scaled_width());
  ChargeQuery query{0, 0, box.seal(plain, rng), family, 0, std::nullopt,
                    std::nullopt, 0};
  EXPECT_TRUE(ttp.process(query).manipulated);
}

TEST_F(TtpTest, WrongChannelKeyFlagsManipulation) {
  // A submission for channel 2 replayed as a channel-5 charge query fails
  // the per-channel prefix verification.
  const auto sub = submitter.encode_bid(2, 9, rng);
  ChargeQuery query{0, /*channel=*/5, sub.sealed, sub.value_family, 0,
                    std::nullopt, std::nullopt, 0};
  EXPECT_TRUE(ttp.process(query).manipulated);
}

// The family check memoises key contexts for low channel indices only;
// an index from a relayed query past that (or absurdly large) derives its
// key per query and verifies the same way.
TEST_F(TtpTest, FamilyCheckVerifiesOnEveryChannelIndex) {
  const crypto::SealedBox box(ttp.su_keys().gc);
  const std::uint64_t scaled = cfg.enc.cr * (9 + cfg.enc.rd);
  const Bytes plain = SealedBidPayload{9, scaled}.serialize();
  for (const ChannelId r : {ChannelId{0}, ChannelId{255}, ChannelId{256},
                            ChannelId{1} << 40}) {
    const auto family = prefix::HashedPrefixSet::of_value(
        derive_channel_key(ttp.su_keys().gb_master, r, true), scaled,
        cfg.enc.scaled_width());
    for (int repeat = 0; repeat < 2; ++repeat) {
      const ChargeQuery query{0, r, box.seal(plain, rng), family, 0,
                              std::nullopt, std::nullopt, 0};
      const auto result = ttp.process(query);
      EXPECT_TRUE(result.valid) << "channel " << r;
      EXPECT_EQ(result.charge, 9u);
    }
    const ChargeQuery moved{0, r + 1, box.seal(plain, rng), family, 0,
                            std::nullopt, std::nullopt, 0};
    EXPECT_TRUE(ttp.process(moved).manipulated) << "channel " << r;
  }
}

TEST_F(TtpTest, BatchProcessingCountsLoad) {
  std::vector<ChargeQuery> batch;
  batch.push_back(query_for(0, 5));
  batch.push_back(query_for(1, 0));
  batch.push_back(query_for(2, 15));
  const auto results = ttp.process_batch(batch);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].valid);
  EXPECT_FALSE(results[1].valid);
  EXPECT_TRUE(results[2].valid);
  EXPECT_EQ(results[2].charge, 15u);
  EXPECT_EQ(ttp.batches_processed(), 1u);
  EXPECT_EQ(ttp.queries_processed(), 3u);
  ttp.process_batch({});
  EXPECT_EQ(ttp.batches_processed(), 2u);
  EXPECT_EQ(ttp.queries_processed(), 3u);
}

struct SecondPriceTest : ::testing::Test {
  PpbsBidConfig cfg = PpbsBidConfig::advanced(15, 3, 4,
                                              ZeroDisguisePolicy::none(15));
  TrustedThirdParty ttp{cfg, 808, ChargingRule::kSecondPrice};
  BidSubmitter submitter{cfg, ttp.su_keys().gb_master, ttp.su_keys().gc};
  Rng rng{2};

  ChargeQuery query_with_runner_up(Money winner, Money runner_up) {
    const auto w = submitter.encode_bid(0, winner, rng);
    const auto r = submitter.encode_bid(0, runner_up, rng);
    ChargeQuery q{0, 0, w.sealed, w.value_family, 0, r.sealed,
                  r.value_family, 0};
    return q;
  }
};

TEST_F(SecondPriceTest, WinnerPaysRunnerUpPrice) {
  const auto result = ttp.process(query_with_runner_up(12, 7));
  EXPECT_TRUE(result.valid);
  EXPECT_FALSE(result.manipulated);
  EXPECT_EQ(result.charge, 7u);
}

TEST_F(SecondPriceTest, LoneWinnerPaysNothing) {
  const auto sub = submitter.encode_bid(0, 12, rng);
  const auto result =
      ttp.process(ChargeQuery{0, 0, sub.sealed, sub.value_family, 0,
                              std::nullopt, std::nullopt, 0});
  EXPECT_TRUE(result.valid);
  EXPECT_EQ(result.charge, 0u);
}

TEST_F(SecondPriceTest, ZeroRunnerUpMeansFreeWin) {
  const auto result = ttp.process(query_with_runner_up(12, 0));
  EXPECT_TRUE(result.valid);
  EXPECT_EQ(result.charge, 0u);
}

TEST_F(SecondPriceTest, ChargeNeverExceedsOwnBid) {
  // Tie-break noise can hand the auctioneer a "runner-up" with the same
  // true price; the charge is capped at the winner's own bid.
  const auto result = ttp.process(query_with_runner_up(7, 7));
  EXPECT_TRUE(result.valid);
  EXPECT_LE(result.charge, 7u);
}

TEST_F(SecondPriceTest, ZeroWinnerStillInvalid) {
  const auto result = ttp.process(query_with_runner_up(0, 5));
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.charge, 0u);
}

TEST_F(SecondPriceTest, TamperedRunnerUpFlagsManipulation) {
  auto query = query_with_runner_up(12, 7);
  const auto other = submitter.encode_bid(0, 3, rng);
  query.runner_up_family = other.value_family;  // family/sealed mismatch
  const auto result = ttp.process(query);
  EXPECT_TRUE(result.manipulated);
  EXPECT_FALSE(result.valid);
}

TEST_F(SecondPriceTest, FirstPriceRuleIgnoresRunnerUp) {
  TrustedThirdParty first(cfg, 808, ChargingRule::kFirstPrice);
  const BidSubmitter fp_submitter(cfg, first.su_keys().gb_master,
                                  first.su_keys().gc);
  const auto w = fp_submitter.encode_bid(0, 12, rng);
  const auto r = fp_submitter.encode_bid(0, 7, rng);
  const auto result = first.process(
      ChargeQuery{0, 0, w.sealed, w.value_family, 0, r.sealed,
                  r.value_family, 0});
  EXPECT_TRUE(result.valid);
  EXPECT_EQ(result.charge, 12u);
}

TEST_F(TtpTest, BasicSchemeChargingWorksToo) {
  const auto basic_cfg = PpbsBidConfig::basic(14);
  TrustedThirdParty basic_ttp(basic_cfg, 5);
  const BidSubmitter basic_submitter(basic_cfg,
                                     basic_ttp.su_keys().gb_master,
                                     basic_ttp.su_keys().gc);
  const auto sub = basic_submitter.encode_bid(3, 11, rng);
  const auto result =
      basic_ttp.process(ChargeQuery{1, 3, sub.sealed, sub.value_family, 0,
                                    std::nullopt, std::nullopt, 0});
  EXPECT_TRUE(result.valid);
  EXPECT_EQ(result.charge, 11u);
}

}  // namespace
}  // namespace lppa::core
