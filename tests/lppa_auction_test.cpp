#include "core/lppa_auction.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>

#include "counting_backend.h"
#include "obs/metrics.h"

namespace lppa::core {
namespace {

struct World {
  std::vector<auction::SuLocation> locations;
  std::vector<BidVector> bids;
};

World make_world(std::size_t n, std::size_t k, std::uint64_t seed,
                 bool distinct_columns = false) {
  Rng rng(seed);
  World w;
  w.bids.assign(n, BidVector(k));
  if (distinct_columns) {
    for (std::size_t r = 0; r < k; ++r) {
      std::vector<Money> column(n);
      for (std::size_t u = 0; u < n; ++u) column[u] = u % 16;
      rng.shuffle(column);
      for (std::size_t u = 0; u < n; ++u) w.bids[u][r] = column[u];
    }
  } else {
    for (auto& bv : w.bids) {
      for (auto& b : bv) b = rng.below(16);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    w.locations.push_back({rng.below(5000), rng.below(5000)});
  }
  return w;
}

LppaConfig make_config(std::size_t k, double replace_prob = 0.0) {
  LppaConfig cfg;
  cfg.num_channels = k;
  cfg.lambda = 100;
  cfg.coord_width = 14;
  cfg.bid = PpbsBidConfig::advanced(
      15, 3, 4, ZeroDisguisePolicy::uniform(15, replace_prob));
  return cfg;
}

TEST(LppaAuction, ValidatesInputs) {
  LppaAuction engine(make_config(2), 1);
  Rng rng(1);
  EXPECT_THROW(engine.run({}, {}, rng), LppaError);
  EXPECT_THROW(engine.run({{0, 0}}, {{1, 2}, {3, 4}}, rng), LppaError);
  EXPECT_THROW(engine.run({{0, 0}}, {{1}}, rng), LppaError);  // k mismatch
}

TEST(LppaAuction, ConflictGraphMatchesPlaintext) {
  const World w = make_world(25, 3, 11);
  LppaAuction engine(make_config(3), 2);
  Rng rng(5);
  const auto result = engine.run(w.locations, w.bids, rng);
  const auto plain =
      auction::ConflictGraph::from_locations(w.locations, 100);
  EXPECT_EQ(result.view.conflicts, plain);
}

TEST(LppaAuction, NoDisguiseMatchesPlainAuctionOutcome) {
  // With replace_prob 0 and distinct bids per column, LPPA must award
  // exactly what the plaintext auction awards, at the same charges.
  // LppaAuction consumes one fork() of its rng for SU masking before
  // allocating; discard one fork on the plain side so both allocators
  // draw the same channel sequence.
  const std::size_t k = 4;
  const World w = make_world(12, k, 21, /*distinct_columns=*/true);
  const auction::PlainAuction plain(k, 100);
  Rng rng_plain(77);
  rng_plain.fork();
  const auto plain_outcome = plain.run(w.locations, w.bids, rng_plain);

  LppaAuction engine(make_config(k, 0.0), 3);
  Rng rng_lppa(77);
  const auto lppa_outcome = engine.run(w.locations, w.bids, rng_lppa);

  EXPECT_EQ(lppa_outcome.outcome.awards, plain_outcome.awards);
  EXPECT_EQ(lppa_outcome.outcome.winning_bid_sum(),
            plain_outcome.winning_bid_sum());
  EXPECT_EQ(lppa_outcome.manipulations_detected, 0u);
}

TEST(LppaAuction, ChargesAreTtpValidatedTrueBids) {
  const World w = make_world(15, 3, 31);
  LppaAuction engine(make_config(3), 4);
  Rng rng(9);
  const auto result = engine.run(w.locations, w.bids, rng);
  for (const auto& award : result.outcome.awards) {
    if (award.valid) {
      EXPECT_EQ(award.charge, w.bids[award.user][award.channel]);
      EXPECT_GT(award.charge, 0u);
    } else {
      EXPECT_EQ(award.charge, 0u);
      EXPECT_EQ(w.bids[award.user][award.channel], 0u);
    }
  }
}

TEST(LppaAuction, EachUserWinsAtMostOnce) {
  const World w = make_world(20, 5, 41);
  LppaAuction engine(make_config(5, 0.5), 5);
  Rng rng(13);
  const auto result = engine.run(w.locations, w.bids, rng);
  std::set<UserId> winners;
  for (const auto& award : result.outcome.awards) {
    EXPECT_TRUE(winners.insert(award.user).second);
  }
}

TEST(LppaAuction, CoWinnersNeverConflict) {
  const World w = make_world(20, 3, 51);
  LppaAuction engine(make_config(3, 0.3), 6);
  Rng rng(17);
  const auto result = engine.run(w.locations, w.bids, rng);
  const auto& g = result.view.conflicts;
  const auto& awards = result.outcome.awards;
  for (std::size_t i = 0; i < awards.size(); ++i) {
    for (std::size_t j = i + 1; j < awards.size(); ++j) {
      if (awards[i].channel == awards[j].channel) {
        EXPECT_FALSE(g.conflicts(awards[i].user, awards[j].user));
      }
    }
  }
}

TEST(LppaAuction, FullDisguiseCanElectInvalidWinners) {
  // With replace_prob 1 every zero masquerades as a positive bid; zero
  // bidders win slots that the TTP then invalidates.
  std::vector<auction::SuLocation> locs;
  std::vector<BidVector> bids;
  for (int i = 0; i < 10; ++i) {
    locs.push_back({static_cast<std::uint64_t>(i) * 1000, 0});
    bids.push_back({0});  // everyone bids zero on the single channel
  }
  LppaAuction engine(make_config(1, 1.0), 7);
  Rng rng(23);
  const auto result = engine.run(locs, bids, rng);
  EXPECT_FALSE(result.outcome.awards.empty());
  for (const auto& award : result.outcome.awards) {
    EXPECT_FALSE(award.valid);
  }
  EXPECT_EQ(result.outcome.winning_bid_sum(), 0u);
}

TEST(LppaAuction, TtpBatchingRespectsBatchSize) {
  const World w = make_world(30, 4, 61);
  auto cfg = make_config(4);
  cfg.ttp_batch_size = 4;
  LppaAuction engine(cfg, 8);
  Rng rng(29);
  const auto result = engine.run(w.locations, w.bids, rng);
  const std::size_t n_awards = result.outcome.awards.size();
  EXPECT_EQ(engine.ttp().queries_processed(), n_awards);
  EXPECT_EQ(engine.ttp().batches_processed(),
            (n_awards + 3) / 4);  // ceil division
}

TEST(LppaAuction, WireVolumeAccounted) {
  const World w = make_world(8, 2, 71);
  LppaAuction engine(make_config(2), 9);
  Rng rng(31);
  const auto result = engine.run(w.locations, w.bids, rng);
  std::size_t loc_bytes = 0, bid_bytes = 0;
  for (const auto& s : result.view.locations) loc_bytes += s.wire_size();
  for (const auto& s : result.view.bids) bid_bytes += s.wire_size();
  EXPECT_EQ(result.view.location_wire_bytes, loc_bytes);
  EXPECT_EQ(result.view.bid_wire_bytes, bid_bytes);
  EXPECT_GT(loc_bytes, 0u);
  EXPECT_GT(bid_bytes, 0u);
}

TEST(LppaAuction, DeterministicGivenSeeds) {
  const World w = make_world(15, 3, 81);
  LppaAuction e1(make_config(3, 0.4), 10);
  LppaAuction e2(make_config(3, 0.4), 10);
  Rng r1(37), r2(37);
  const auto a = e1.run(w.locations, w.bids, r1);
  const auto b = e2.run(w.locations, w.bids, r2);
  EXPECT_EQ(a.outcome.awards, b.outcome.awards);
}

TEST(LppaAuction, SecondPriceChargesAtMostFirstPrice) {
  const World w = make_world(20, 4, 301);
  auto first_cfg = make_config(4, 0.0);
  auto second_cfg = first_cfg;
  second_cfg.charging_rule = ChargingRule::kSecondPrice;

  LppaAuction first(first_cfg, 12);
  LppaAuction second(second_cfg, 12);
  Rng r1(55), r2(55);
  const auto first_outcome = first.run(w.locations, w.bids, r1);
  const auto second_outcome = second.run(w.locations, w.bids, r2);

  // Same keys, same seeds -> same awards; only charges differ.
  ASSERT_EQ(first_outcome.outcome.awards.size(),
            second_outcome.outcome.awards.size());
  for (std::size_t i = 0; i < first_outcome.outcome.awards.size(); ++i) {
    const auto& fp = first_outcome.outcome.awards[i];
    const auto& sp = second_outcome.outcome.awards[i];
    EXPECT_EQ(fp.user, sp.user);
    EXPECT_EQ(fp.channel, sp.channel);
    if (fp.valid && sp.valid) {
      EXPECT_LE(sp.charge, fp.charge) << "award " << i;
    }
  }
  EXPECT_LE(second_outcome.outcome.winning_bid_sum(),
            first_outcome.outcome.winning_bid_sum());
}

TEST(LppaAuction, SecondPriceChargeEqualsColumnRunnerUp) {
  // Single channel, no conflicts, distinct bids: the winner's charge is
  // exactly the second-highest bid.
  std::vector<auction::SuLocation> locs;
  std::vector<BidVector> bids;
  const std::vector<Money> prices = {3, 11, 7, 5};
  for (std::size_t i = 0; i < prices.size(); ++i) {
    locs.push_back({static_cast<std::uint64_t>(i) * 5000, 0});
    bids.push_back({prices[i]});
  }
  auto cfg = make_config(1, 0.0);
  cfg.charging_rule = ChargingRule::kSecondPrice;
  LppaAuction engine(cfg, 3);
  Rng rng(9);
  const auto result = engine.run(locs, bids, rng);
  ASSERT_FALSE(result.outcome.awards.empty());
  const auto& top = result.outcome.awards.front();
  EXPECT_EQ(top.user, 1u);     // bid 11 wins first
  EXPECT_EQ(top.charge, 7u);   // pays the runner-up price
}

TEST(LppaAuction, RevenueNeverExceedsPlainAuction) {
  // Zero-disguise can only displace genuine winners, never add revenue.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const World w = make_world(20, 4, 90 + seed);
    const auction::PlainAuction plain(4, 100);
    Rng rp(seed);
    const auto plain_outcome = plain.run(w.locations, w.bids, rp);

    LppaAuction engine(make_config(4, 0.8), seed);
    Rng rl(seed);
    const auto lppa_outcome = engine.run(w.locations, w.bids, rl);
    EXPECT_LE(lppa_outcome.outcome.winning_bid_sum(),
              plain_outcome.winning_bid_sum() + 15)
        << "seed " << seed;
    // (+bmax slack: different tie-breaks can shuffle one winner.)
  }
}

TEST(LppaAuction, TableSpanParentsShardBuildsAndCountsOrderTests) {
  // auction.table hangs under auction.round, the one table build hangs
  // under auction.table whatever the thread count, every conflict.* span
  // has a parent, and auction.table.order_tests counts the masked tests
  // the build spent — every ge() of the round, whose sorted-column argmax
  // pops spend none — identically for every thread count.
  World w = make_world(40, 3, 301);
  Rng spread(302);  // across the whole 2^14 grid
  for (auto& loc : w.locations) {
    loc = {spread.below(16000), spread.below(16000)};
  }
  std::optional<std::uint64_t> first_order_tests;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::MetricsRegistry reg;
    const testing_support::CountingBackend counting(crypto::hmac_backend());
    LppaConfig cfg = make_config(3);
    cfg.num_threads = threads;
    cfg.metrics = &reg;
    cfg.backend = &counting;
    LppaAuction engine(cfg, 5);
    Rng rng(3);
    engine.run(w.locations, w.bids, rng);

    std::uint64_t round_id = 0, table_id = 0, table_parent = 0;
    std::size_t tables = 0;
    for (const auto& span : reg.spans()) {
      if (span.name == "auction.round") round_id = span.id;
      if (span.name == "auction.table") {
        ++tables;
        table_id = span.id;
        table_parent = span.parent;
      }
      if (span.name.rfind("conflict.", 0) == 0) {
        EXPECT_NE(span.parent, 0u) << span.name;
      }
    }
    ASSERT_EQ(tables, 1u);
    EXPECT_NE(round_id, 0u);
    EXPECT_EQ(table_parent, round_id);
    std::size_t table_builds = 0;
    for (const auto& span : reg.spans()) {
      if (span.name != "table.build") continue;
      ++table_builds;
      EXPECT_EQ(span.parent, table_id);
    }
    EXPECT_EQ(table_builds, 1u);
    // Nothing is sharded: no shard.* metric is left.
    EXPECT_EQ(reg.json().find("shard."), std::string::npos);

    const std::uint64_t order_tests =
        reg.counter("auction.table.order_tests").value();
    EXPECT_GT(order_tests, 0u);
    EXPECT_EQ(order_tests, counting.ges());
    if (!first_order_tests) first_order_tests = order_tests;
    EXPECT_EQ(order_tests, *first_order_tests);
  }
}

TEST(LppaAuction, ConflictCountersDescribeTheRoundsGraph) {
  // The engine records the join it ran: conflict.join_edges is the
  // published graph's edge count, each axis hit at least every edge, and
  // the index pair's memory is reported.
  const World w = make_world(60, 2, 601);
  obs::MetricsRegistry reg;
  LppaConfig cfg = make_config(2);
  cfg.metrics = &reg;
  LppaAuction engine(cfg, 5);
  Rng rng(7);
  const LppaOutcome out = engine.run(w.locations, w.bids, rng);
  const std::uint64_t edges = out.view.conflicts.edge_count();
  ASSERT_GT(edges, 0u);
  EXPECT_EQ(reg.counter("conflict.join_edges").value(), edges);
  EXPECT_GE(reg.counter("conflict.x_hits").value(), edges);
  EXPECT_GE(reg.counter("conflict.y_hits").value(), edges);
  EXPECT_GT(reg.gauge("conflict.index_bytes").value(), 0.0);
}

TEST(LppaAuction, NumShardsIsReadByNothing) {
  // num_shards survives only for source compatibility: every value, 0
  // included, runs the same round byte for byte and records the same
  // metrics.
  const World w = make_world(30, 2, 501);
  std::optional<LppaOutcome> first;
  std::optional<std::string> first_counters;
  for (const std::size_t shards :
       {std::size_t{0}, std::size_t{1}, std::size_t{4}, std::size_t{9}}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    obs::MetricsRegistry reg;
    LppaConfig cfg = make_config(2);
    cfg.num_shards = shards;
    cfg.metrics = &reg;
    LppaAuction engine(cfg, 5);
    Rng rng(6);
    const LppaOutcome out = engine.run(w.locations, w.bids, rng);
    std::string counters;
    for (const char* name : {"conflict.x_hits", "conflict.y_hits",
                             "conflict.join_edges",
                             "auction.table.order_tests", "auction.awards"}) {
      counters += std::string(name) + "=" +
                  std::to_string(reg.counter(name).value()) + ";";
    }
    if (!first) {
      first = out;
      first_counters = counters;
      EXPECT_FALSE(out.outcome.awards.empty());
      continue;
    }
    EXPECT_EQ(out.view.locations, first->view.locations);
    EXPECT_EQ(out.view.bids, first->view.bids);
    EXPECT_EQ(out.view.conflicts, first->view.conflicts);
    EXPECT_EQ(out.outcome.awards, first->outcome.awards);
    EXPECT_EQ(counters, *first_counters);
  }
}

TEST(LppaAuction, ShardSpansStayBoundedAndNothingIsDropped) {
  // A round with more argmax queries than the span buffer holds (one
  // channel and a sparse field: nearly every SU wins, one query each)
  // records each conflict.* and table.* span name once — one index
  // build, one probe phase and one table build, never one span per
  // query — so the round's own phase spans survive and the buffer never
  // overflows.
  const std::size_t n = obs::MetricsRegistry::kMaxSpans + 100;
  World w = make_world(n, 1, 401);
  Rng spread(402);
  for (auto& loc : w.locations) {
    loc = {spread.below(16000), spread.below(16000)};
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::MetricsRegistry reg;
    LppaConfig cfg = make_config(1);
    cfg.lambda = 4;
    cfg.num_threads = threads;
    cfg.metrics = &reg;
    LppaAuction engine(cfg, 9);
    Rng rng(4);
    const LppaOutcome out = engine.run(w.locations, w.bids, rng);
    // Every award is one argmax query that found a winner.
    EXPECT_GT(out.outcome.awards.size(), obs::MetricsRegistry::kMaxSpans);

    std::map<std::string, std::size_t> per_name;
    for (const auto& span : reg.spans()) ++per_name[span.name];
    for (const auto& [name, count] : per_name) {
      if (name.rfind("conflict.", 0) == 0 || name.rfind("table.", 0) == 0) {
        EXPECT_EQ(count, 1u) << name;
      }
    }
    EXPECT_EQ(per_name["auction.round"], 1u);
    EXPECT_EQ(per_name["auction.allocate"], 1u);
    EXPECT_EQ(reg.spans_dropped(), 0u);
  }
}

}  // namespace
}  // namespace lppa::core
