#include "proto/session.h"

#include <gtest/gtest.h>

namespace lppa::proto {
namespace {

struct WireWorld {
  std::vector<auction::SuLocation> locations;
  std::vector<auction::BidVector> bids;
  core::LppaConfig config;
};

WireWorld make_world(std::size_t n, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  WireWorld w;
  for (std::size_t i = 0; i < n; ++i) {
    w.locations.push_back({rng.below(5000), rng.below(5000)});
    auction::BidVector bv(k);
    for (auto& b : bv) b = rng.below(16);
    w.bids.push_back(bv);
  }
  w.config.num_channels = k;
  w.config.lambda = 100;
  w.config.coord_width = 14;
  w.config.bid = core::PpbsBidConfig::advanced(
      15, 3, 4, core::ZeroDisguisePolicy::none(15));
  w.config.ttp_batch_size = 4;
  return w;
}

/// SU -> auctioneer traffic on `bus` so far (every SU link summed).
LinkStats submission_traffic(const MessageBus& bus, std::size_t num_users) {
  LinkStats total;
  for (std::size_t u = 0; u < num_users; ++u) {
    const LinkStats link = bus.link(Address::su(u), Address::auctioneer());
    total.messages += link.messages;
    total.bytes += link.bytes;
  }
  return total;
}

TEST(WireAuction, MatchesInMemoryEngineExactly) {
  const WireWorld w = make_world(14, 3, 21);

  core::LppaAuction engine(w.config, 777);
  Rng rng_mem(5);
  const auto in_memory = engine.run(w.locations, w.bids, rng_mem);

  core::TrustedThirdParty ttp(w.config.bid, 777);
  MessageBus bus;
  const auto wire = run_recoverable_wire_auction(w.config, ttp, w.locations,
                                                 w.bids, bus, /*seed=*/5);

  EXPECT_EQ(wire.awards, in_memory.outcome.awards);
}

TEST(WireAuction, SubmissionTrafficMatchesWireSizes) {
  const WireWorld w = make_world(6, 2, 31);
  core::TrustedThirdParty ttp(w.config.bid, 3);
  MessageBus bus;
  run_recoverable_wire_auction(w.config, ttp, w.locations, w.bids, bus,
                               /*seed=*/9);
  // Two messages per SU (location + bids).
  const LinkStats submissions = submission_traffic(bus, w.bids.size());
  EXPECT_EQ(submissions.messages, 12u);
  EXPECT_GT(submissions.bytes, 0u);
  // Charging traffic: at least one batch each way.
  const LinkStats to_ttp = bus.link(Address::auctioneer(), Address::ttp());
  const LinkStats from_ttp = bus.link(Address::ttp(), Address::auctioneer());
  EXPECT_GE(to_ttp.messages + from_ttp.messages, 2u);
  EXPECT_EQ(to_ttp.messages, ttp.batches_processed());
}

TEST(WireAuction, BatchSizeControlsTtpBatches) {
  WireWorld w = make_world(12, 2, 41);
  w.config.ttp_batch_size = 3;
  core::TrustedThirdParty ttp(w.config.bid, 5);
  MessageBus bus;
  const auto result = run_recoverable_wire_auction(
      w.config, ttp, w.locations, w.bids, bus, /*seed=*/11);
  const std::size_t awards = result.awards.size();
  EXPECT_EQ(ttp.batches_processed(), (awards + 2) / 3);
}

TEST(WireAuction, SecondPriceRunsOverTheWire) {
  WireWorld w = make_world(10, 2, 51);
  w.config.charging_rule = core::ChargingRule::kSecondPrice;
  core::TrustedThirdParty ttp(w.config.bid, 7,
                              core::ChargingRule::kSecondPrice);
  MessageBus bus;
  const auto result = run_recoverable_wire_auction(
      w.config, ttp, w.locations, w.bids, bus, /*seed=*/13);
  for (const auto& award : result.awards) {
    if (award.valid) {
      EXPECT_LE(award.charge, w.bids[award.user][award.channel]);
    }
  }
}

TEST(AuctioneerSession, RejectsDuplicateAndForeignSubmissions) {
  const WireWorld w = make_world(2, 2, 61);
  core::TrustedThirdParty ttp(w.config.bid, 9);
  AuctioneerSession session(w.config, 2);
  Rng rng(1);
  const SuClient client(0, w.config, ttp.su_keys());
  const Bytes loc = client.location_envelope(w.locations[0], rng);
  EXPECT_EQ(session.try_ingest(loc),
            AuctioneerSession::IngestResult::kAccepted);
  EXPECT_EQ(session.try_ingest(loc),
            AuctioneerSession::IngestResult::kDuplicateRedelivery);

  const SuClient stranger(7, w.config, ttp.su_keys());  // index out of range
  EXPECT_EQ(
      session.try_ingest(stranger.location_envelope(w.locations[0], rng)),
      AuctioneerSession::IngestResult::kRejected);
}

TEST(AuctioneerSession, RefusesToRunIncomplete) {
  const WireWorld w = make_world(2, 2, 71);
  core::TrustedThirdParty ttp(w.config.bid, 9);
  AuctioneerSession session(w.config, 2);
  EXPECT_EQ(session.missing_users(), (std::vector<std::size_t>{0, 1}));
  Rng rng(1);
  EXPECT_THROW(session.run_allocation(rng), LppaError);  // admission open
  EXPECT_THROW(session.charge_query_envelopes(), LppaError);
}

TEST(AuctioneerSession, RejectsWrongChannelCount) {
  const WireWorld w = make_world(2, 2, 81);
  core::TrustedThirdParty ttp(w.config.bid, 9);
  AuctioneerSession session(w.config, 2);
  Rng rng(1);
  auto bad_config = w.config;
  bad_config.num_channels = 3;  // SU encodes 3 channels, auction expects 2
  const SuClient client(0, bad_config, ttp.su_keys());
  EXPECT_EQ(session.try_ingest(client.bid_envelope({1, 2, 3}, rng)),
            AuctioneerSession::IngestResult::kRejected);
}

TEST(AuctioneerSession, DepartedThenReturnedSuIsNotAnEquivocator) {
  // Churn semantics: an SU that departs and later returns submits a
  // FRESH masked pair (new position, new masks).  The second submission
  // differs byte-for-byte from the first, which is exactly the
  // equivocation signature — but churn_depart cleared the stored pair,
  // so the returned SU's submission must land on the empty-slot path and
  // be accepted without a strike.
  const WireWorld w = make_world(3, 2, 141);
  core::TrustedThirdParty ttp(w.config.bid, 9);
  AuctioneerSession session(w.config, 3);
  Rng rng(1);
  const SuClient client(0, w.config, ttp.su_keys());

  const Bytes first_loc = client.location_envelope(w.locations[0], rng);
  const Bytes first_bid = client.bid_envelope(w.bids[0], rng);
  ASSERT_EQ(session.try_ingest(first_loc),
            AuctioneerSession::IngestResult::kAccepted);
  ASSERT_EQ(session.try_ingest(first_bid),
            AuctioneerSession::IngestResult::kAccepted);

  session.churn_depart(0);
  EXPECT_TRUE(session.is_absent(0));
  // While absent, traffic from the departed sender is rejected — but
  // without a strike and without an equivocation verdict.
  std::string error;
  EXPECT_EQ(session.try_ingest(first_loc, &error),
            AuctioneerSession::IngestResult::kRejected);
  EXPECT_FALSE(session.is_excluded(0));

  session.churn_return(0);
  EXPECT_FALSE(session.is_absent(0));
  // Fresh pair, different bytes (new masks and a new position).
  const auction::SuLocation moved = {w.locations[0].x + 57,
                                     w.locations[0].y + 31};
  const Bytes second_loc = client.location_envelope(moved, rng);
  const Bytes second_bid = client.bid_envelope(w.bids[0], rng);
  ASSERT_NE(second_loc, first_loc);
  EXPECT_EQ(session.try_ingest(second_loc, &error),
            AuctioneerSession::IngestResult::kAccepted)
      << error;
  EXPECT_EQ(session.try_ingest(second_bid, &error),
            AuctioneerSession::IngestResult::kAccepted)
      << error;
  EXPECT_FALSE(session.is_excluded(0));

  // A genuinely equivocating sender still gets caught: a THIRD,
  // different pair while the second is stored.
  const Bytes third_loc = client.location_envelope(w.locations[0], rng);
  EXPECT_EQ(session.try_ingest(third_loc),
            AuctioneerSession::IngestResult::kEquivocation);
  EXPECT_TRUE(session.is_excluded(0));
}

TEST(AuctioneerSession, ChurnRecordsReplayAndSnapshotRoundTrip) {
  // Journaled churn: depart/return records replay into the same state —
  // and the snapshot codec round-trips the absent flag.
  const WireWorld w = make_world(3, 2, 151);
  core::TrustedThirdParty ttp(w.config.bid, 9);
  Rng rng(3);
  std::vector<Bytes> locs, bids;
  for (std::size_t u = 0; u < 3; ++u) {
    const SuClient client(u, w.config, ttp.su_keys());
    locs.push_back(client.location_envelope(w.locations[u], rng));
    bids.push_back(client.bid_envelope(w.bids[u], rng));
  }

  AuctioneerSession session(w.config, 3);
  RoundJournal journal;
  journal.append_round_start(3);
  session.attach_journal(&journal);
  for (std::size_t u = 0; u < 3; ++u) {
    ASSERT_EQ(session.try_ingest(locs[u]),
              AuctioneerSession::IngestResult::kAccepted);
    ASSERT_EQ(session.try_ingest(bids[u]),
              AuctioneerSession::IngestResult::kAccepted);
  }
  session.churn_depart(1);
  session.churn_depart(2);
  session.churn_return(2);
  // Departure cleared user 2's stored pair; the returned SU re-submits
  // a fresh pair (journaled like any other admission).
  {
    Rng fresh(11);
    const SuClient client(2, w.config, ttp.su_keys());
    ASSERT_EQ(session.try_ingest(
                  client.location_envelope(w.locations[2], fresh)),
              AuctioneerSession::IngestResult::kAccepted);
    ASSERT_EQ(session.try_ingest(client.bid_envelope(w.bids[2], fresh)),
              AuctioneerSession::IngestResult::kAccepted);
  }

  // Journal replay reproduces the exact state (the return value is the
  // resume wave counter; the record count lands in the report).
  AuctioneerSession replayed(w.config, 3);
  RoundReport report;
  replay_session_journal(journal, replayed, 3, report);
  EXPECT_GT(report.replayed_records, 0u);
  EXPECT_TRUE(replayed.is_absent(1));
  EXPECT_FALSE(replayed.is_absent(2));
  EXPECT_EQ(replayed.snapshot(), session.snapshot());

  // Snapshot restore round-trips the absent flag too.
  AuctioneerSession restored(w.config, 3);
  restored.restore_from(session.snapshot());
  EXPECT_TRUE(restored.is_absent(1));
  EXPECT_FALSE(restored.is_absent(2));
  EXPECT_EQ(restored.snapshot(), session.snapshot());

  // Absent slots are not awaited: everyone live has submitted, so the
  // round can close without user 1.
  EXPECT_EQ(session.missing_users(), std::vector<std::size_t>{});
}

TEST(TtpService, RejectsNonChargeEnvelopes) {
  const WireWorld w = make_world(2, 2, 91);
  core::TrustedThirdParty ttp(w.config.bid, 9);
  TtpService service(ttp);
  Envelope e;
  e.type = MessageType::kLocationSubmission;
  EXPECT_THROW(service.handle(e.serialize()), LppaError);
}

TEST(WireAuction, ReusedBusAccumulatesRounds) {
  const WireWorld w = make_world(5, 2, 101);
  core::TrustedThirdParty ttp(w.config.bid, 15);
  MessageBus bus;
  run_recoverable_wire_auction(w.config, ttp, w.locations, w.bids, bus,
                               /*seed=*/17);
  const LinkStats first = submission_traffic(bus, w.bids.size());
  core::TrustedThirdParty ttp2(w.config.bid, 16);
  run_recoverable_wire_auction(w.config, ttp2, w.locations, w.bids, bus,
                               /*seed=*/18);
  const LinkStats second = submission_traffic(bus, w.bids.size());
  // Stats accumulate across rounds on a reused bus.
  EXPECT_EQ(second.messages, 2 * first.messages);
}

}  // namespace
}  // namespace lppa::proto
