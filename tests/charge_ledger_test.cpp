// The one charging path (core::ChargeLedger) and both of its callers:
// LppaAuction::allocate_and_charge and the wire session.
//
//   * ChargeLedger — batching, the atomic validate-then-apply commit,
//     the one-award-per-SU index.
//   * ChargeCommit — a rejected result batch on the wire session is
//     neither journaled nor applied, so the journal still replays.
//   * ChargeRunnerUp — the second-price runner-up skips every bidder
//     outside the round (a departed churn slot on the engine, an
//     equivocator on the wire) and equals oracles::reference_round over
//     the survivors, on both crypto backends.
//   * ChargeManipulation — the wire round counts a manipulated sealed
//     payload as `auction.manipulations`, like the engine.
#include "core/charging.h"

#include <gtest/gtest.h>

#include "core/churn_state.h"
#include "obs/metrics.h"
#include "oracles.h"
#include "proto/messages.h"
#include "proto/parties.h"
#include "proto/round_driver.h"

namespace lppa {
namespace {

constexpr std::uint64_t kTtpSeed = 77;
constexpr std::uint64_t kRoundSeed = 5;
constexpr std::size_t kChannels = 2;

template <typename Fn>
void expect_protocol_error(const Fn& fn) {
  try {
    fn();
    FAIL() << "expected LppaError(kProtocol)";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol) << e.what();
  }
}

core::LppaConfig make_config(crypto::BidBackendId backend,
                             core::ChargingRule rule) {
  core::LppaConfig cfg;
  cfg.num_channels = kChannels;
  cfg.lambda = 100;
  cfg.coord_width = 14;
  cfg.bid = core::PpbsBidConfig::advanced(15, 3, 4,
                                          core::ZeroDisguisePolicy::none(15));
  cfg.bid.backend = backend;
  cfg.charging_rule = rule;
  cfg.ttp_batch_size = 4;
  return cfg;
}

struct World {
  std::vector<auction::SuLocation> locations;
  std::vector<auction::BidVector> bids;
};

/// Sparse SUs bidding 0..12, except `top`, who bids 15 on every channel
/// (nobody when top >= n).
World make_world(std::size_t n, std::uint64_t seed, std::size_t top) {
  Rng rng(seed);
  World w;
  for (std::size_t i = 0; i < n; ++i) {
    w.locations.push_back({rng.below(5000), rng.below(5000)});
    auction::BidVector bv(kChannels);
    for (auto& b : bv) b = i == top ? 15 : rng.below(13);
    w.bids.push_back(bv);
  }
  return w;
}

/// Awards of a round over a compacted population, in the ids `ids` maps
/// the compact indices to.
std::vector<auction::Award> in_ids(std::vector<auction::Award> awards,
                                   const std::vector<std::size_t>& ids) {
  for (auto& a : awards) a.user = ids[a.user];
  return awards;
}

Bytes result_envelope(const std::vector<core::ChargeResult>& results) {
  proto::Envelope e;
  e.type = proto::MessageType::kChargeResultBatch;
  e.payload = proto::serialize_charge_results(results);
  return e.serialize();
}

// ------------------------------------------------------------ ChargeLedger

TEST(ChargeLedger, BatchesFollowAwardOrder) {
  std::vector<core::BidSubmission> subs(4);
  for (auto& s : subs) s.channels.resize(kChannels);
  core::LppaConfig cfg;
  cfg.ttp_batch_size = 2;
  const core::ChargeLedger ledger(
      {{0, 1, 0, true}, {3, 0, 0, true}, {1, 0, 0, true}},
      {&subs[0], &subs[1], nullptr, &subs[3]}, cfg);
  ASSERT_EQ(ledger.num_batches(), 2u);
  const auto first = ledger.batch(0);
  const auto second = ledger.batch(1);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].user, 0u);
  EXPECT_EQ(first[0].channel, 1u);
  EXPECT_EQ(first[1].user, 3u);
  EXPECT_EQ(second[0].user, 1u);
  EXPECT_FALSE(first[0].runner_up_sealed.has_value());  // first price
  EXPECT_THROW((void)ledger.batch(2), LppaError);

  const core::ChargeLedger nobody({}, {&subs[0]}, cfg);
  EXPECT_EQ(nobody.num_batches(), 0u);
  EXPECT_TRUE(nobody.complete());
}

TEST(ChargeLedger, CommitValidatesTheWholeBatchThenPricesOnce) {
  std::vector<core::BidSubmission> subs(4);
  for (auto& s : subs) s.channels.resize(kChannels);
  core::LppaConfig cfg;
  core::ChargeLedger ledger(
      {{0, 1, 0, true}, {3, 0, 0, true}, {1, 0, 0, true}},
      {&subs[0], &subs[1], nullptr, &subs[3]}, cfg);

  // SU 3 won channel 0, not channel 1: the whole batch is refused and
  // the good result before it is not applied either.
  const core::ChargeResult good{0, 1, true, 7, false};
  expect_protocol_error([&] { ledger.commit({good, {3, 1, true, 9, false}}); });
  expect_protocol_error([&] { ledger.commit({good, {2, 0, true, 9, false}}); });
  expect_protocol_error([&] { ledger.commit({good, {9, 0, true, 9, false}}); });
  EXPECT_FALSE(ledger.priced(0));
  EXPECT_EQ(ledger.awards()[0].charge, 0u);

  EXPECT_TRUE(ledger.validate({good}));
  ledger.commit({good, {3, 0, true, 5, true}});  // SU 3's payload manipulated
  EXPECT_TRUE(ledger.priced(0));
  EXPECT_TRUE(ledger.priced(1));
  EXPECT_EQ(ledger.awards()[0].charge, 7u);
  EXPECT_TRUE(ledger.awards()[0].valid);
  EXPECT_EQ(ledger.awards()[1].charge, 0u);
  EXPECT_FALSE(ledger.awards()[1].valid);
  EXPECT_EQ(ledger.manipulations(), 1u);

  // A redelivery prices nothing new, so it changes nothing.
  const std::vector<core::ChargeResult> again = {{0, 1, true, 8, false},
                                                 {3, 0, true, 5, true}};
  EXPECT_FALSE(ledger.validate(again));
  ledger.commit(again);
  EXPECT_EQ(ledger.awards()[0].charge, 7u);
  EXPECT_EQ(ledger.manipulations(), 1u);

  EXPECT_FALSE(ledger.complete());
  ledger.commit({{1, 0, false, 0, false}});  // a disguised/true zero win
  EXPECT_TRUE(ledger.complete());
  EXPECT_FALSE(ledger.awards()[2].valid);
}

TEST(ChargeLedger, RejectsAwardsTheIndexCannotHold) {
  std::vector<core::BidSubmission> subs(3);
  for (auto& s : subs) s.channels.resize(kChannels);
  const std::vector<const core::BidSubmission*> candidates = {
      &subs[0], nullptr, &subs[2]};
  const core::LppaConfig cfg;
  // One SU in two awards, a non-candidate, an unknown SU, an unbid channel.
  expect_protocol_error([&] {
    core::ChargeLedger({{0, 0, 0, true}, {0, 1, 0, true}}, candidates, cfg);
  });
  expect_protocol_error(
      [&] { core::ChargeLedger({{1, 0, 0, true}}, candidates, cfg); });
  expect_protocol_error(
      [&] { core::ChargeLedger({{3, 0, 0, true}}, candidates, cfg); });
  expect_protocol_error(
      [&] { core::ChargeLedger({{2, 2, 0, true}}, candidates, cfg); });
}

// ------------------------------------------------------------ ChargeCommit

/// A wire session over every SU of `w`, allocated, with `journal`
/// attached from the round start on.
struct AllocatedSession {
  core::LppaConfig config;
  core::TrustedThirdParty ttp;
  proto::RoundJournal journal;
  proto::AuctioneerSession session;

  AllocatedSession(const World& w, core::LppaConfig cfg)
      : config(cfg),
        ttp(cfg.bid, kTtpSeed, cfg.charging_rule),
        session(cfg, w.bids.size()) {
    journal.append_round_start(w.bids.size());
    session.attach_journal(&journal);
    const auto sus = proto::mask_submissions(
        config, ttp.su_keys(), w.locations, w.bids, kRoundSeed,
        std::vector<bool>(w.bids.size(), true));
    for (const auto& su : sus) {
      EXPECT_EQ(session.try_ingest(su.location),
                proto::AuctioneerSession::IngestResult::kAccepted);
      EXPECT_EQ(session.try_ingest(su.bid),
                proto::AuctioneerSession::IngestResult::kAccepted);
    }
    proto::RoundReport report;
    session.finalize_participants(report);
    Rng master(kRoundSeed);
    (void)master.fork();
    session.run_allocation(master);
  }
};

TEST(ChargeCommit, RejectedBatchIsNeitherJournaledNorApplied) {
  const World w = make_world(12, 21, /*top=*/12);
  const core::LppaConfig cfg = make_config(crypto::BidBackendId::kHmacPrefix,
                                           core::ChargingRule::kFirstPrice);
  AllocatedSession run(w, cfg);
  proto::AuctioneerSession& session = run.session;
  proto::TtpService service(run.ttp);
  const std::vector<Bytes> queries = session.charge_query_envelopes();
  ASSERT_GE(queries.size(), 2u);

  // A real TTP batch plus one result for a (user, channel) that won
  // nothing: the SU of the first award, on its other channel.
  const auction::Award& first = session.awards().front();
  auto results = proto::deserialize_charge_results(
      proto::Envelope::deserialize(service.handle(queries[0])).payload);
  results.push_back({first.user, (first.channel + 1) % kChannels, true, 3,
                     false});
  const std::size_t records = run.journal.num_records();
  const Bytes before = session.snapshot();
  expect_protocol_error(
      [&] { session.ingest_charge_results(result_envelope(results)); });
  EXPECT_EQ(run.journal.num_records(), records);
  EXPECT_EQ(session.snapshot(), before);  // no award's charge state moved

  // The journal still replays into the same session.
  proto::AuctioneerSession replayed(cfg, w.bids.size());
  proto::RoundReport replay_report;
  proto::replay_session_journal(run.journal, replayed, w.bids.size(),
                                replay_report);
  EXPECT_EQ(replayed.snapshot(), before);

  // The honest batches still complete the round, byte-identically to a
  // clean one.
  for (const Bytes& q : queries) {
    session.ingest_charge_results(service.handle(q));
  }
  ASSERT_TRUE(session.charging_complete());
  AllocatedSession clean(w, cfg);
  proto::TtpService clean_service(clean.ttp);
  for (const Bytes& q : clean.session.charge_query_envelopes()) {
    clean.session.ingest_charge_results(clean_service.handle(q));
  }
  EXPECT_EQ(session.winner_announcement(),
            clean.session.winner_announcement());
  EXPECT_EQ(run.journal.data(), clean.journal.data());
}

TEST(ChargeCommit, QueryEnvelopesAreTheSameBytesEveryAttempt) {
  const World w = make_world(8, 23, /*top=*/8);
  AllocatedSession run(w, make_config(crypto::BidBackendId::kHmacPrefix,
                                      core::ChargingRule::kSecondPrice));
  const std::vector<Bytes> first = run.session.charge_query_envelopes();
  ASSERT_FALSE(first.empty());
  proto::TtpService service(run.ttp);
  run.session.ingest_charge_results(service.handle(first.front()));
  EXPECT_EQ(run.session.charge_query_envelopes(), first);

  // A session restored from a mid-charging snapshot sends the same set.
  proto::AuctioneerSession restored(run.config, w.bids.size());
  restored.restore_from(run.session.snapshot());
  EXPECT_EQ(restored.charge_query_envelopes(), first);
}

// ---------------------------------------------------------- ChargeRunnerUp

class ChargeRunnerUp
    : public ::testing::TestWithParam<crypto::BidBackendId> {};

constexpr std::size_t kRunnerUpUsers = 10;
constexpr std::size_t kTop = 3;  ///< the column maximum, outside the round

/// Every charge is a survivor's bid (at most 12), never the outsider's 15,
/// and the round charged something.
void expect_survivor_prices(const std::vector<auction::Award>& awards) {
  auction::Money total = 0;
  for (const auto& a : awards) {
    EXPECT_NE(a.user, kTop);
    EXPECT_LE(a.charge, 12u) << "runner-up leaked from outside the round";
    total += a.charge;
  }
  EXPECT_GT(total, 0u);
}

TEST_P(ChargeRunnerUp, EngineSkipsADepartedChurnSlot) {
  const World w = make_world(kRunnerUpUsers, 31, kTop);
  core::LppaConfig cfg =
      make_config(GetParam(), core::ChargingRule::kSecondPrice);
  core::LppaAuction auction(cfg, kTtpSeed);
  cfg.backend = &auction.ttp().bid_backend();
  const core::SuKeyBundle keys = auction.ttp().su_keys();
  const core::PpbsLocation location_protocol(
      keys.g0, cfg.coord_width, cfg.lambda, cfg.pad_location_ranges);
  const core::BidSubmitter submitter(auction.ttp().config(), keys.gb_master,
                                     keys.gc, keys.paillier);
  std::vector<core::LocationSubmission> loc_subs;
  std::vector<core::BidSubmission> bid_subs;
  Rng mask(11);
  for (std::size_t u = 0; u < kRunnerUpUsers; ++u) {
    Rng su = mask.fork();
    loc_subs.push_back(location_protocol.submit(w.locations[u], su));
    bid_subs.push_back(submitter.submit(w.bids[u], su));
  }

  // The top bidder departs; its stale masked bid stays in its slot.
  core::ChurnState state(cfg, w.locations, loc_subs, bid_subs,
                         std::vector<bool>(kRunnerUpUsers, true));
  state.remove_su(kTop);
  core::ShardedBidTable table = state.table_for_allocation();
  const Rng base(kRoundSeed);
  Rng alloc = base;
  (void)alloc.fork();  // reference_round consumes run()'s SU fork
  const auto masked = auction.allocate_and_charge(
      state.bids(), state.graph(), table, state.live(), alloc);

  core::AuctioneerView survivors;
  std::vector<std::size_t> ids;
  for (std::size_t u = 0; u < kRunnerUpUsers; ++u) {
    if (u == kTop) continue;
    survivors.locations.push_back(loc_subs[u]);
    survivors.bids.push_back(bid_subs[u]);
    ids.push_back(u);
  }
  const auto reference = oracles::reference_round(auction, survivors, base);
  EXPECT_EQ(masked.awards, in_ids(reference.awards, ids));
  EXPECT_EQ(masked.manipulations_detected, 0u);
  expect_survivor_prices(masked.awards);
}

TEST_P(ChargeRunnerUp, WireSessionSkipsAnEquivocator) {
  const World w = make_world(kRunnerUpUsers, 31, kTop);
  core::LppaConfig cfg =
      make_config(GetParam(), core::ChargingRule::kSecondPrice);
  core::LppaAuction auction(cfg, kTtpSeed);
  cfg.backend = &auction.ttp().bid_backend();
  const core::SuKeyBundle keys = auction.ttp().su_keys();
  const auto sus = proto::mask_submissions(
      cfg, keys, w.locations, w.bids, kRoundSeed,
      std::vector<bool>(kRunnerUpUsers, true));

  proto::AuctioneerSession session(cfg, kRunnerUpUsers);
  core::AuctioneerView survivors;
  for (const auto& su : sus) {
    EXPECT_EQ(session.try_ingest(su.location),
              proto::AuctioneerSession::IngestResult::kAccepted);
    EXPECT_EQ(session.try_ingest(su.bid),
              proto::AuctioneerSession::IngestResult::kAccepted);
    if (su.su == kTop) continue;
    survivors.locations.push_back(core::LocationSubmission::deserialize(
        proto::Envelope::deserialize(su.location).payload));
    survivors.bids.push_back(core::BidSubmission::deserialize(
        proto::Envelope::deserialize(su.bid).payload));
  }
  // The top bidder sends a second, different bid and is excluded.
  Rng fork(99);
  const proto::SuClient top(kTop, cfg, keys);
  ASSERT_EQ(session.try_ingest(top.bid_envelope(w.bids[kTop], fork)),
            proto::AuctioneerSession::IngestResult::kEquivocation);
  proto::RoundReport report;
  session.finalize_participants(report);
  ASSERT_EQ(session.participants().size(), kRunnerUpUsers - 1);
  Rng master(kRoundSeed);
  (void)master.fork();
  session.run_allocation(master);
  proto::TtpService service(auction.ttp());
  for (const Bytes& q : session.charge_query_envelopes()) {
    session.ingest_charge_results(service.handle(q));
  }
  ASSERT_TRUE(session.charging_complete());

  const auto reference =
      oracles::reference_round(auction, survivors, Rng(kRoundSeed));
  EXPECT_EQ(session.awards(),
            in_ids(reference.awards, session.participants()));
  expect_survivor_prices(session.awards());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ChargeRunnerUp,
    ::testing::Values(crypto::BidBackendId::kHmacPrefix,
                      crypto::BidBackendId::kPaillier),
    [](const auto& info) {
      return info.param == crypto::BidBackendId::kHmacPrefix
                 ? std::string("Hmac")
                 : std::string("Paillier");
    });

// ------------------------------------------------------- ChargeManipulation

TEST(ChargeManipulation, CountedOnTheWireAsOnTheEngine) {
  constexpr std::size_t kUsers = 8;
  constexpr std::size_t kCheat = 5;  // wins a channel with a forged payload
  const World w = make_world(kUsers, 41, kCheat);
  const core::LppaConfig cfg = make_config(crypto::BidBackendId::kHmacPrefix,
                                           core::ChargingRule::kFirstPrice);
  core::LppaAuction auction(cfg, kTtpSeed);
  auto sus = proto::mask_submissions(cfg, auction.ttp().su_keys(), w.locations,
                                     w.bids, kRoundSeed,
                                     std::vector<bool>(kUsers, true));
  {
    proto::Envelope e = proto::Envelope::deserialize(sus[kCheat].bid);
    core::BidSubmission forged = core::BidSubmission::deserialize(e.payload);
    for (auto& channel : forged.channels) channel.sealed.ciphertext[0] ^= 1;
    e.payload = forged.serialize();
    sus[kCheat].bid = e.serialize();
  }

  obs::MetricsRegistry reg;
  proto::RoundJournal journal;
  proto::RoundReport report;
  proto::RoundDriver driver(cfg, kUsers, {}, std::vector<bool>(kUsers, true),
                            kRoundSeed, journal, report, nullptr, &reg);
  driver.start();
  core::AuctioneerView view;
  for (const auto& su : sus) {
    ASSERT_EQ(driver.on_submission(su.location),
              proto::AuctioneerSession::IngestResult::kAccepted);
    ASSERT_EQ(driver.on_submission(su.bid),
              proto::AuctioneerSession::IngestResult::kAccepted);
    view.locations.push_back(core::LocationSubmission::deserialize(
        proto::Envelope::deserialize(su.location).payload));
    view.bids.push_back(core::BidSubmission::deserialize(
        proto::Envelope::deserialize(su.bid).payload));
  }
  ASSERT_TRUE(driver.wave(0).empty());
  proto::TtpService service(auction.ttp());
  for (std::vector<Bytes> queries = driver.charge_queries(); !queries.empty();
       queries = driver.charge_queries()) {
    for (const Bytes& q : queries) driver.on_charge_result(service.handle(q));
  }
  const Bytes announcement = driver.publish();
  const auto awards = proto::WinnerAnnouncement::deserialize(
                          proto::Envelope::deserialize(announcement).payload)
                          .awards;

  EXPECT_EQ(reg.counter("auction.manipulations").value(), 1u);
  bool cheat_won = false;
  for (const auto& a : awards) {
    if (a.user != kCheat) continue;
    cheat_won = true;
    EXPECT_FALSE(a.valid);
    EXPECT_EQ(a.charge, 0u);
  }
  EXPECT_TRUE(cheat_won);

  // The engine over the same submissions agrees, count included.
  const auto engine = oracles::reference_round(auction, view, Rng(kRoundSeed));
  EXPECT_EQ(engine.awards, awards);
  EXPECT_EQ(engine.manipulations_detected, 1u);
}

}  // namespace
}  // namespace lppa
