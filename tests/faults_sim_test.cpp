// Fault-injection coverage of the hardened auction round: the paper's
// protocol under a network that drops, duplicates, reorders, corrupts and
// delays, with Byzantine bidders mixed into the population.  The central
// assertion is the issue's acceptance criterion: a seeded faulty round
// completes, excludes exactly the faulty parties, and awards the
// survivors byte-identically to a fault-free round restricted to them.
#include <gtest/gtest.h>

#include <algorithm>

#include "proto/fault.h"
#include "proto/session.h"

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

std::vector<std::size_t> excluded_users(const RoundReport& report) {
  std::vector<std::size_t> users;
  for (const auto& e : report.excluded) users.push_back(e.user);
  std::sort(users.begin(), users.end());
  return users;
}

TEST(FaultsSession, FaultFreeMatchesLegacyWire) {
  const WireWorld w = make_world(12, 3, 21);

  // The fault-free reference is the in-memory engine under Rng(seed).
  core::LppaAuction engine(w.config, 77);
  Rng rng_a(5);
  const auto legacy = engine.run(w.locations, w.bids, rng_a);

  core::TrustedThirdParty ttp_b(w.config.bid, 77);
  MessageBus bus_b;
  const auto hardened = run_recoverable_wire_auction(
      w.config, ttp_b, w.locations, w.bids, bus_b, /*seed=*/5);

  EXPECT_EQ(hardened.awards, legacy.outcome.awards);
  EXPECT_TRUE(hardened.report.completed);
  EXPECT_EQ(hardened.report.survivors.size(), 12u);
  EXPECT_TRUE(hardened.report.excluded.empty());
  EXPECT_EQ(hardened.report.retry_waves, 0u);
  EXPECT_EQ(hardened.report.charge_attempts,
            hardened.awards.empty() ? 0u : 1u);
}

TEST(FaultsSession, AcceptanceDropPlusByzantine) {
  // The issue's acceptance run: 10 % message drop on every link plus two
  // Byzantine SUs that corrupt everything they send.  The round must
  // complete, exclude exactly the faulty parties, and award the
  // survivors byte-identically to a fault-free round without them.
  const WireWorld w = make_world(12, 3, 31);
  const std::vector<std::size_t> byzantine{3, 7};

  FaultSpec spec;
  spec.drop = 0.10;
  FaultInjector injector(/*seed=*/4242, spec);
  for (const std::size_t b : byzantine) {
    injector.mark_byzantine(Address::su(b));
  }

  core::TrustedThirdParty ttp_faulty(w.config.bid, 77);
  MessageBus bus_faulty;
  bus_faulty.set_fault_injector(&injector);
  const auto faulty = run_recoverable_wire_auction(
      w.config, ttp_faulty, w.locations, w.bids, bus_faulty, /*seed=*/5);

  ASSERT_TRUE(faulty.report.completed);
  EXPECT_EQ(excluded_users(faulty.report), byzantine);
  EXPECT_EQ(faulty.report.survivors.size(), 10u);
  EXPECT_GT(faulty.report.faults.drops, 0u);
  EXPECT_GT(faulty.report.faults.corruptions, 0u);

  // Fault-free reference restricted to the survivors: same seeds, no
  // injector, Byzantine SUs excluded up front (their RNG streams are
  // still consumed, so the survivors mask identically).
  core::TrustedThirdParty ttp_clean(w.config.bid, 77);
  MessageBus bus_clean;
  const auto clean = run_recoverable_wire_auction(
      w.config, ttp_clean, w.locations, w.bids, bus_clean, /*seed=*/5, {},
      /*crashes=*/nullptr, byzantine);

  ASSERT_TRUE(clean.report.completed);
  EXPECT_EQ(clean.report.survivors, faulty.report.survivors);
  EXPECT_EQ(clean.awards, faulty.awards);
}

TEST(FaultsSession, DuplicateEverythingIsBenign) {
  const WireWorld w = make_world(8, 2, 41);

  core::TrustedThirdParty ttp_a(w.config.bid, 9);
  MessageBus bus_a;
  const auto clean = run_recoverable_wire_auction(
      w.config, ttp_a, w.locations, w.bids, bus_a, /*seed=*/3);

  FaultSpec spec;
  spec.duplicate = 1.0;
  FaultInjector injector(1, spec);
  core::TrustedThirdParty ttp_b(w.config.bid, 9);
  MessageBus bus_b;
  bus_b.set_fault_injector(&injector);
  const auto doubled = run_recoverable_wire_auction(
      w.config, ttp_b, w.locations, w.bids, bus_b, /*seed=*/3);

  EXPECT_TRUE(doubled.report.completed);
  EXPECT_EQ(doubled.report.survivors.size(), 8u);
  EXPECT_GT(doubled.report.duplicate_redeliveries, 0u);
  EXPECT_EQ(doubled.awards, clean.awards);
}

TEST(FaultsSession, ReorderAndDelayAreAbsorbed) {
  const WireWorld w = make_world(8, 2, 51);

  core::TrustedThirdParty ttp_a(w.config.bid, 9);
  MessageBus bus_a;
  const auto clean = run_recoverable_wire_auction(
      w.config, ttp_a, w.locations, w.bids, bus_a, /*seed=*/3);

  FaultSpec spec;
  spec.reorder = 0.4;
  spec.delay = 0.4;
  spec.max_delay_ticks = 3;
  FaultInjector injector(7, spec);
  core::TrustedThirdParty ttp_b(w.config.bid, 9);
  MessageBus bus_b;
  bus_b.set_fault_injector(&injector);
  const auto shaken = run_recoverable_wire_auction(
      w.config, ttp_b, w.locations, w.bids, bus_b, /*seed=*/3);

  EXPECT_TRUE(shaken.report.completed);
  EXPECT_EQ(shaken.report.survivors.size(), 8u);
  EXPECT_EQ(shaken.awards, clean.awards);
}

TEST(FaultsSession, DeterministicPerSeed) {
  const WireWorld w = make_world(10, 2, 61);
  FaultSpec spec;
  spec.drop = 0.15;
  spec.corrupt = 0.1;
  spec.delay = 0.2;

  const auto run = [&] {
    FaultInjector injector(99, spec);
    core::TrustedThirdParty ttp(w.config.bid, 5);
    MessageBus bus;
    bus.set_fault_injector(&injector);
    return run_recoverable_wire_auction(w.config, ttp, w.locations, w.bids,
                                        bus, /*seed=*/13);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.awards, b.awards);
  EXPECT_EQ(a.report.survivors, b.report.survivors);
  EXPECT_EQ(excluded_users(a.report), excluded_users(b.report));
  EXPECT_EQ(a.report.faults.drops, b.report.faults.drops);
  EXPECT_EQ(a.report.summary(), b.report.summary());
}

TEST(FaultsIngest, IdenticalRedeliveryIsBenignDifferentIsEquivocation) {
  const WireWorld w = make_world(2, 2, 71);
  core::TrustedThirdParty ttp(w.config.bid, 9);
  AuctioneerSession session(w.config, 2);
  Rng rng(1);
  const SuClient client(0, w.config, ttp.su_keys());
  const Bytes loc = client.location_envelope(w.locations[0], rng);

  EXPECT_EQ(session.try_ingest(loc), AuctioneerSession::IngestResult::kAccepted);
  // Byte-identical re-arrival (network duplication): harmless.
  EXPECT_EQ(session.try_ingest(loc),
            AuctioneerSession::IngestResult::kDuplicateRedelivery);
  EXPECT_FALSE(session.is_excluded(0));

  // A second, different valid submission under the same SU id: the
  // duplicate-identity attack.  The sender is excluded for the round.
  const Bytes other = client.location_envelope(w.locations[1], rng);
  std::string error;
  EXPECT_EQ(session.try_ingest(other, &error),
            AuctioneerSession::IngestResult::kEquivocation);
  EXPECT_TRUE(session.is_excluded(0));
  EXPECT_FALSE(error.empty());

  // The round still completes for the honest SU.
  const SuClient honest(1, w.config, ttp.su_keys());
  session.try_ingest(honest.location_envelope(w.locations[1], rng));
  session.try_ingest(honest.bid_envelope(w.bids[1], rng));
  RoundReport report;
  session.finalize_participants(report);
  ASSERT_EQ(report.excluded.size(), 1u);
  EXPECT_EQ(report.excluded[0].user, 0u);
  EXPECT_EQ(report.excluded[0].reason,
            RoundReport::ExclusionReason::kEquivocation);
  EXPECT_EQ(session.participants(), (std::vector<std::size_t>{1}));
  Rng alloc_rng(2);
  EXPECT_NO_THROW(session.run_allocation(alloc_rng));
  for (const auto& award : session.awards()) {
    EXPECT_EQ(award.user, 1u);
  }
}

TEST(FaultsIngest, GarbageNeverWedgesTheSession) {
  const WireWorld w = make_world(1, 2, 81);
  core::TrustedThirdParty ttp(w.config.bid, 9);
  AuctioneerSession session(w.config, 1);
  Rng rng(1);

  EXPECT_EQ(session.try_ingest(Bytes{}),
            AuctioneerSession::IngestResult::kRejected);
  EXPECT_EQ(session.try_ingest(Bytes{0xFF, 0x00, 0x12}),
            AuctioneerSession::IngestResult::kRejected);

  const SuClient client(0, w.config, ttp.su_keys());
  EXPECT_EQ(session.try_ingest(client.location_envelope(w.locations[0], rng)),
            AuctioneerSession::IngestResult::kAccepted);
  EXPECT_EQ(session.try_ingest(client.bid_envelope(w.bids[0], rng)),
            AuctioneerSession::IngestResult::kAccepted);
  EXPECT_TRUE(session.missing_users().empty());
}

TEST(FaultsIngest, NobodySurvivingIsATypedProtocolError) {
  const WireWorld w = make_world(2, 2, 91);
  AuctioneerSession session(w.config, 2);
  RoundReport report;
  try {
    session.finalize_participants(report);
    FAIL() << "expected LppaError";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
}

}  // namespace
}  // namespace lppa::proto
