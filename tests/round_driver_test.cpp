// RoundDriver without a transport: envelopes and ticks fed by hand.
//
// No bus, no socket, no clock — the test plays every other party.  One
// SU (kWithheld) holds back its bid, so admission has to nack it, and
// the round closes on the retry budget, on the deadline, or below the
// quorum.  The hand-driven announcement must equal the bus round that
// excludes that SU, and a crash at any CrashPoint must recover from the
// journal alone to the same bytes.
#include "proto/round_driver.h"

#include <gtest/gtest.h>

#include <deque>

#include "proto/session.h"

namespace lppa::proto {
namespace {

constexpr std::uint64_t kTtpSeed = 77;
constexpr std::uint64_t kSeed = 5;
constexpr std::size_t kWithheld = 2;

struct Fixture {
  std::vector<auction::SuLocation> locations;
  std::vector<auction::BidVector> bids;
  core::LppaConfig config;
  core::TrustedThirdParty ttp;
  std::vector<SuEnvelopes> sus;

  explicit Fixture(std::size_t n)
      : config(make_config()), ttp(config.bid, kTtpSeed) {
    Rng rng(41);
    for (std::size_t i = 0; i < n; ++i) {
      locations.push_back({rng.below(5000), rng.below(5000)});
      auction::BidVector bv(config.num_channels);
      for (auto& b : bv) b = rng.below(16);
      bids.push_back(bv);
    }
    sus = mask_submissions(config, ttp.su_keys(), locations, bids, kSeed,
                           std::vector<bool>(n, true));
  }

  static core::LppaConfig make_config() {
    core::LppaConfig c;
    c.num_channels = 2;
    c.lambda = 100;
    c.coord_width = 14;
    c.bid = core::PpbsBidConfig::advanced(15, 3, 4,
                                          core::ZeroDisguisePolicy::none(15));
    c.ttp_batch_size = 2;
    return c;
  }

  std::size_t n() const { return bids.size(); }

  /// The bus round at the same seed with the withheld SU sitting out.
  Bytes bus_announcement_without_withheld() {
    core::TrustedThirdParty fresh(config.bid, kTtpSeed);
    MessageBus bus;
    return run_recoverable_wire_auction(config, fresh, locations, bids, bus,
                                        kSeed, {}, nullptr, {kWithheld})
        .announcement;
  }
};

std::uint8_t nack_mask(const RoundDriver::Nack& nack) {
  const Envelope e = Envelope::deserialize(nack.envelope);
  EXPECT_EQ(e.type, MessageType::kRetransmitRequest);
  return RetransmitRequest::deserialize(e.payload).mask;
}

/// Charges through an in-process TTP and publishes.
Bytes charge_and_publish(RoundDriver& driver, core::TrustedThirdParty& ttp) {
  TtpService service(ttp);
  for (std::vector<Bytes> queries = driver.charge_queries(); !queries.empty();
       queries = driver.charge_queries()) {
    for (const Bytes& query : queries) {
      driver.on_charge_result(service.handle(query));
    }
  }
  return driver.publish();
}

TEST(RoundDriver, NacksTheWithheldHalvesWaveByWave) {
  Fixture f(6);
  RecoverableSessionConfig policy;
  policy.hardened.max_retries = 3;
  RoundJournal journal;
  RoundReport report;
  RoundDriver driver(f.config, f.n(), policy, std::vector<bool>(f.n(), true),
                     kSeed, journal, report);
  driver.start();
  for (const SuEnvelopes& su : f.sus) {
    if (su.su == kWithheld) continue;
    EXPECT_EQ(driver.on_submission(su.location),
              AuctioneerSession::IngestResult::kAccepted);
    EXPECT_EQ(driver.on_submission(su.bid),
              AuctioneerSession::IngestResult::kAccepted);
  }

  // Wave 0 asks for both halves; the SU answers with its location only,
  // so waves 1 and 2 ask for the bid alone.
  std::size_t ticks = 0;
  const std::uint8_t both = RetransmitRequest::kLocation | RetransmitRequest::kBid;
  const std::uint8_t expected[] = {both, RetransmitRequest::kBid,
                                   RetransmitRequest::kBid};
  for (std::size_t wave = 0; wave < std::size(expected); ++wave) {
    EXPECT_EQ(driver.backoff_ticks(), policy.hardened.backoff_ticks(wave));
    const auto nacks = driver.wave(ticks);
    ASSERT_EQ(nacks.size(), 1u) << "wave " << wave;
    EXPECT_EQ(nacks[0].su, kWithheld);
    EXPECT_EQ(nack_mask(nacks[0]), expected[wave]) << "wave " << wave;
    if (wave == 0) driver.on_submission(f.sus[kWithheld].location);
    ticks += 2 * policy.hardened.backoff_ticks(wave);
  }
  EXPECT_TRUE(driver.admission_open());

  // The retry budget is spent: the next wave closes admission and
  // commits without the withheld SU.
  EXPECT_TRUE(driver.wave(ticks).empty());
  EXPECT_FALSE(driver.admission_open());
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.retry_waves, 3u);
  ASSERT_EQ(report.excluded.size(), 1u);
  EXPECT_EQ(report.excluded[0].user, kWithheld);
  EXPECT_EQ(report.excluded[0].reason, RoundReport::ExclusionReason::kTimeout);
  EXPECT_EQ(report.survivors.size(), f.n() - 1);

  // Every nack is journaled write-ahead with its mask and wave.
  std::vector<JournalRecord::Nack> journaled;
  for (const JournalRecord& rec : RoundJournal::read(journal.data())) {
    if (rec.type == JournalRecordType::kNackSent) journaled.push_back(rec.nack());
  }
  ASSERT_EQ(journaled.size(), std::size(expected));
  for (std::size_t wave = 0; wave < journaled.size(); ++wave) {
    EXPECT_EQ(journaled[wave].user, kWithheld);
    EXPECT_EQ(journaled[wave].mask, expected[wave]);
    EXPECT_EQ(journaled[wave].wave, wave);
  }

  const Bytes announcement = charge_and_publish(driver, f.ttp);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(announcement, f.bus_announcement_without_withheld());
}

TEST(RoundDriver, DeadlineExpiryCommitsWithTheQuorum) {
  Fixture f(6);
  RecoverableSessionConfig policy;
  policy.hardened.max_retries = 20;  // the deadline fires first
  policy.deadline_ticks = 4;
  policy.min_quorum = 2;
  RoundJournal journal;
  RoundReport report;
  RoundDriver driver(f.config, f.n(), policy, std::vector<bool>(f.n(), true),
                     kSeed, journal, report);
  driver.start();
  for (const SuEnvelopes& su : f.sus) {
    driver.on_submission(su.location);
    if (su.su != kWithheld) driver.on_submission(su.bid);
  }

  EXPECT_EQ(driver.wave(/*ticks=*/0).size(), 1u);
  EXPECT_EQ(driver.wave(/*ticks=*/3).size(), 1u);
  EXPECT_FALSE(report.degraded);
  EXPECT_TRUE(driver.wave(/*ticks=*/4).empty());
  EXPECT_FALSE(driver.admission_open());
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.deadline_ticks, 4u);
  EXPECT_EQ(report.retry_waves, 2u);
  ASSERT_EQ(report.excluded.size(), 1u);
  EXPECT_EQ(report.excluded[0].user, kWithheld);
  EXPECT_EQ(report.survivors.size(), f.n() - 1);

  EXPECT_EQ(charge_and_publish(driver, f.ttp),
            f.bus_announcement_without_withheld());
}

TEST(RoundDriver, BelowQuorumIsTypedProtocolError) {
  Fixture f(4);
  RecoverableSessionConfig policy;
  policy.deadline_ticks = 1;
  policy.min_quorum = 4;  // the withheld SU can never arrive
  RoundJournal journal;
  RoundReport report;
  RoundDriver driver(f.config, f.n(), policy, std::vector<bool>(f.n(), true),
                     kSeed, journal, report);
  driver.start();
  for (const SuEnvelopes& su : f.sus) {
    driver.on_submission(su.location);
    if (su.su != kWithheld) driver.on_submission(su.bid);
  }
  EXPECT_EQ(driver.wave(/*ticks=*/0).size(), 1u);
  try {
    driver.wave(/*ticks=*/1);
    FAIL() << "expected LppaError";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
}

// submissions_complete() is a running count, not a scan: it must flip
// exactly when the last awaited SU's second half lands, and ignore what
// changes no slot (duplicates, traffic from a departed SU) or closes one
// (an equivocator, a non-participant, a departure).  A driver rebuilt
// from the journal mid-admission resumes the same count.
TEST(RoundDriver, SubmissionsCompleteFlipsOnTheLastAwaitedSubmission) {
  using R = AuctioneerSession::IngestResult;
  Fixture f(6);
  constexpr std::size_t kDeparted = 3, kOutsider = 4, kEquivocator = 5;
  // The same SUs masked under another seed: valid, but different bytes.
  const std::vector<SuEnvelopes> forks =
      mask_submissions(f.config, f.ttp.su_keys(), f.locations, f.bids,
                       kSeed + 1, std::vector<bool>(f.n(), true));
  std::vector<bool> participating(f.n(), true);
  participating[kOutsider] = false;
  RecoverableSessionConfig policy;
  policy.churn = {{/*depart=*/true, kDeparted}};
  RoundJournal journal;
  RoundReport report;
  RoundDriver driver(f.config, f.n(), policy, participating, kSeed, journal,
                     report);
  EXPECT_FALSE(driver.submissions_complete());
  driver.start();

  EXPECT_EQ(driver.on_submission(f.sus[kEquivocator].location), R::kAccepted);
  EXPECT_EQ(driver.on_submission(forks[kEquivocator].location),
            R::kEquivocation);
  EXPECT_EQ(driver.on_submission(f.sus[kDeparted].location), R::kRejected);
  for (std::size_t u = 0; u < 3; ++u) {
    EXPECT_EQ(driver.on_submission(f.sus[u].location), R::kAccepted);
    EXPECT_EQ(driver.on_submission(f.sus[u].location),
              R::kDuplicateRedelivery);
  }
  EXPECT_EQ(driver.on_submission(f.sus[0].bid), R::kAccepted);
  EXPECT_EQ(driver.on_submission(f.sus[1].bid), R::kAccepted);
  EXPECT_FALSE(driver.submissions_complete());

  // Mid-admission recovery: SU 2's bid is still awaited.
  RoundJournal mid = journal;
  RoundReport mid_report;
  RoundDriver recovered(f.config, f.n(), policy, participating, kSeed, mid,
                        mid_report);
  recovered.start();
  EXPECT_FALSE(recovered.submissions_complete());

  EXPECT_EQ(driver.on_submission(f.sus[2].bid), R::kAccepted);
  EXPECT_TRUE(driver.submissions_complete());
  EXPECT_EQ(driver.on_submission(f.sus[2].bid), R::kDuplicateRedelivery);
  EXPECT_TRUE(driver.submissions_complete());

  EXPECT_EQ(recovered.on_submission(f.sus[2].bid), R::kAccepted);
  EXPECT_TRUE(recovered.submissions_complete());

  // Recovery from the full journal starts complete.
  RoundJournal full = journal;
  RoundReport full_report;
  RoundDriver replayed(f.config, f.n(), policy, participating, kSeed, full,
                       full_report);
  EXPECT_TRUE(replayed.submissions_complete());

  // The equivocator, the departed SU and the outsider are not waited for.
  EXPECT_TRUE(driver.wave(/*ticks=*/0).empty());
  EXPECT_FALSE(driver.admission_open());
  EXPECT_EQ(report.survivors.size(), 3u);
}

/// One round driven by hand through crashes.  Envelopes wait in an inbox
/// and are consumed as they are fed, so a recovered driver sees only
/// what was never fed — the rest it must rebuild from the journal.
struct HandRound {
  Bytes announcement;
  RoundReport report;
};

HandRound drive_by_hand(Fixture& f, const RecoverableSessionConfig& policy,
                        CrashInjector* crashes) {
  std::deque<Bytes> inbox;
  for (const SuEnvelopes& su : f.sus) {
    inbox.push_back(su.location);
    if (su.su != kWithheld) inbox.push_back(su.bid);
  }
  HandRound out;
  RoundJournal journal;
  std::size_t ticks = 0;
  for (;;) {
    try {
      RoundDriver driver(f.config, f.n(), policy,
                         std::vector<bool>(f.n(), true), kSeed, journal,
                         out.report, crashes);
      driver.start();
      while (!inbox.empty()) {
        const Bytes envelope = std::move(inbox.front());
        inbox.pop_front();
        driver.on_submission(envelope);
      }
      while (driver.admission_open()) {
        const std::size_t wait = driver.backoff_ticks();
        driver.wave(ticks);
        ticks += 2 * wait;
      }
      out.announcement = charge_and_publish(driver, f.ttp);
      return out;
    } catch (const CrashSignal&) {
      ticks += policy.recovery_cost_ticks;
    }
  }
}

TEST(RoundDriver, EveryCrashPointRecoversFromTheJournalAlone) {
  Fixture f(6);
  RecoverableSessionConfig policy;
  policy.hardened.max_retries = 2;
  // SU 1 departs and returns before anything is ingested: a net no-op
  // that makes the round reach CrashPoint::kMidChurn.
  policy.churn = {{/*depart=*/true, 1}, {/*depart=*/false, 1}};

  CrashInjector counter;
  const HandRound clean = drive_by_hand(f, policy, &counter);
  ASSERT_TRUE(clean.report.completed);
  EXPECT_EQ(clean.announcement, f.bus_announcement_without_withheld());
  for (std::size_t p = 0; p < kNumCrashPoints; ++p) {
    ASSERT_GT(counter.hits(static_cast<CrashPoint>(p)), 0u)
        << "crash point " << p << " never reached";
  }

  std::size_t runs = 0;
  for (std::size_t p = 0; p < kNumCrashPoints; ++p) {
    const auto point = static_cast<CrashPoint>(p);
    for (std::size_t nth = 0; nth < counter.hits(point); ++nth) {
      CrashInjector injector;
      injector.arm(point, nth);
      const HandRound crashed = drive_by_hand(f, policy, &injector);
      ++runs;
      ASSERT_EQ(injector.crashes_fired(), 1u) << "point " << p << " hit " << nth;
      EXPECT_EQ(crashed.report.crash_recoveries, 1u);
      EXPECT_GT(crashed.report.replayed_records, 0u);
      EXPECT_EQ(crashed.announcement, clean.announcement)
          << "point " << p << " hit " << nth;
      EXPECT_EQ(crashed.report.survivors, clean.report.survivors);
    }
  }
  EXPECT_GE(runs, 16u);
}

}  // namespace
}  // namespace lppa::proto
