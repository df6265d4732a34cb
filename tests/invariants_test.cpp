// End-to-end invariant sweeps: properties that must hold for EVERY seed,
// exercised across many randomly generated worlds.  These are the
// regression net for the whole pipeline — any change to the protocol,
// the allocator or the generators that breaks a paper-level guarantee
// trips one of these.
#include <gtest/gtest.h>

#include <set>

#include "auction/plain_auction.h"
#include "core/adversary.h"
#include "core/bcm.h"
#include "proto/session.h"
#include "sim/scenario.h"

namespace lppa {
namespace {

struct World {
  std::vector<auction::SuLocation> locations;
  std::vector<auction::BidVector> bids;
  core::LppaConfig config;
};

World random_world(Rng& rng) {
  World w;
  const std::size_t n = 5 + rng.below(15);
  const std::size_t k = 1 + rng.below(5);
  for (std::size_t i = 0; i < n; ++i) {
    w.locations.push_back({rng.below(3000), rng.below(3000)});
    auction::BidVector bv(k);
    for (auto& b : bv) b = rng.below(16);
    w.bids.push_back(bv);
  }
  w.config.num_channels = k;
  w.config.lambda = 50 + rng.below(300);
  w.config.coord_width = 13;
  const double replace = rng.uniform01();
  w.config.bid = core::PpbsBidConfig::advanced(
      15, 1 + rng.below(8), 1 + rng.below(6),
      core::ZeroDisguisePolicy::uniform(15, replace));
  w.config.ttp_batch_size = 1 + rng.below(8);
  if (rng.bernoulli(0.3)) {
    w.config.charging_rule = core::ChargingRule::kSecondPrice;
  }
  return w;
}

class EndToEndInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EndToEndInvariants, LppaRoundSatisfiesAllGuarantees) {
  Rng world_rng(GetParam());
  for (int round = 0; round < 5; ++round) {
    const World w = random_world(world_rng);
    core::LppaAuction engine(w.config, GetParam() * 31 + round);
    Rng rng(GetParam() + round);
    const auto result = engine.run(w.locations, w.bids, rng);

    // 1. The masked conflict graph equals the plaintext one.
    EXPECT_EQ(result.view.conflicts,
              auction::ConflictGraph::from_locations(w.locations,
                                                     w.config.lambda));

    // 2. Nobody wins twice; co-channel winners never conflict.
    std::set<core::UserId> winners;
    const auto& awards = result.outcome.awards;
    for (std::size_t i = 0; i < awards.size(); ++i) {
      EXPECT_TRUE(winners.insert(awards[i].user).second);
      for (std::size_t j = i + 1; j < awards.size(); ++j) {
        if (awards[i].channel == awards[j].channel) {
          EXPECT_FALSE(result.view.conflicts.conflicts(awards[i].user,
                                                       awards[j].user));
        }
      }
    }

    // 3. Charging integrity: no manipulation on honest runs; valid
    //    charges never exceed the winner's true bid; invalid awards are
    //    exactly the true-zero wins and carry no charge.
    EXPECT_EQ(result.manipulations_detected, 0u);
    for (const auto& award : awards) {
      const auto true_bid = w.bids[award.user][award.channel];
      if (award.valid) {
        EXPECT_GT(true_bid, 0u);
        EXPECT_LE(award.charge, true_bid);
        if (w.config.charging_rule == core::ChargingRule::kFirstPrice) {
          EXPECT_EQ(award.charge, true_bid);
        }
      } else {
        EXPECT_EQ(award.charge, 0u);
        EXPECT_EQ(true_bid, 0u);
      }
    }

    // 4. TTP accounting matches the award count and batch size.
    EXPECT_EQ(engine.ttp().queries_processed(), awards.size());
    const std::size_t expected_batches =
        (awards.size() + w.config.ttp_batch_size - 1) /
        w.config.ttp_batch_size;
    EXPECT_EQ(engine.ttp().batches_processed(),
              awards.empty() ? 0 : expected_batches);
  }
}

TEST_P(EndToEndInvariants, WireHarnessAlwaysMatchesInMemory) {
  Rng world_rng(GetParam() ^ 0xabcdef);
  for (int round = 0; round < 3; ++round) {
    const World w = random_world(world_rng);
    const std::uint64_t ttp_seed = GetParam() * 7 + round;

    core::LppaAuction engine(w.config, ttp_seed);
    Rng rng_mem(GetParam() + round);
    const auto in_memory = engine.run(w.locations, w.bids, rng_mem);

    core::TrustedThirdParty ttp(w.config.bid, ttp_seed,
                                w.config.charging_rule);
    proto::MessageBus bus;
    const auto wire = proto::run_recoverable_wire_auction(
        w.config, ttp, w.locations, w.bids, bus, GetParam() + round);
    EXPECT_EQ(wire.awards, in_memory.outcome.awards)
        << "seed " << GetParam() << " round " << round;
  }
}

TEST_P(EndToEndInvariants, HonestBidderAlwaysInsideOwnBcmSet) {
  // The bedrock of the BCM attack: with truthful per-cell bids, the
  // victim is always inside the intersection.
  sim::ScenarioConfig cfg;
  cfg.area_id = 1 + static_cast<int>(GetParam() % 4);
  cfg.fcc.rows = 25;
  cfg.fcc.cols = 25;
  cfg.fcc.num_channels = 10;
  cfg.num_users = 15;
  cfg.seed = GetParam();
  const sim::Scenario scenario(cfg);
  const core::BcmAttack bcm(scenario.dataset());
  for (const auto& su : scenario.users()) {
    EXPECT_TRUE(bcm.run(su.bids).contains(
        scenario.dataset().grid().index(su.cell)));
  }
}

TEST_P(EndToEndInvariants, MaskedOrderAlwaysMatchesScaledOrder) {
  Rng rng(GetParam() ^ 0x5eed);
  crypto::SecretKey gb = crypto::SecretKey::generate(rng);
  crypto::SecretKey gc = crypto::SecretKey::generate(rng);
  const auto cfg = core::PpbsBidConfig::advanced(
      15, 2, 3, core::ZeroDisguisePolicy::none(15));
  const core::BidSubmitter submitter(cfg, gb, gc);
  const crypto::SealedBox box(gc);

  std::vector<std::pair<std::uint64_t, core::ChannelBidSubmission>> subs;
  for (int i = 0; i < 12; ++i) {
    auto sub = submitter.encode_bid(0, rng.below(16), rng);
    const auto plain = box.open(sub.sealed);
    ASSERT_TRUE(plain.has_value());
    const auto payload = core::SealedBidPayload::deserialize(*plain);
    subs.emplace_back(payload.scaled, std::move(sub));
  }
  for (const auto& [sa, a] : subs) {
    for (const auto& [sb, b] : subs) {
      EXPECT_EQ(core::encrypted_ge(a, b), sa >= sb);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEndInvariants,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

}  // namespace
}  // namespace lppa
