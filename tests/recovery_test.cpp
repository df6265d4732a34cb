// Crash-tolerance of the recoverable auction round (write-ahead journal
// + deterministic recovery + deadline-quorum degradation).
//
// The central assertion is the issue's acceptance criterion, swept
// exhaustively: kill the auctioneer at EVERY defined crash point (every
// occurrence of every CrashPoint the round reaches) and the recovered
// round must publish byte-identical awards and charges to the crash-free
// run, with the SUs never resubmitting — only the journal brings the
// state back.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "proto/fault.h"
#include "proto/journal.h"
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

constexpr std::uint64_t kTtpSeed = 77;
constexpr std::uint64_t kWireSeed = 5;

RecoverableWireResult run_recoverable(const WireWorld& w, MessageBus& bus,
                                      const RecoverableSessionConfig& recov,
                                      CrashInjector* crashes,
                                      const std::vector<std::size_t>& exclude =
                                          {}) {
  core::TrustedThirdParty ttp(w.config.bid, kTtpSeed);
  return run_recoverable_wire_auction(w.config, ttp, w.locations, w.bids, bus,
                                      kWireSeed, recov, crashes, exclude);
}

TEST(RecoverySession, FaultFreeMatchesHardened) {
  const WireWorld w = make_world(12, 3, 21);

  // The fault-free reference is the in-memory engine under Rng(seed).
  core::LppaAuction engine(w.config, kTtpSeed);
  Rng rng_a(kWireSeed);
  const auto in_memory = engine.run(w.locations, w.bids, rng_a);

  MessageBus bus_b;
  const auto recoverable = run_recoverable(w, bus_b, {}, nullptr);

  EXPECT_EQ(recoverable.awards, in_memory.outcome.awards);
  EXPECT_TRUE(recoverable.report.completed);
  EXPECT_FALSE(recoverable.report.degraded);
  EXPECT_EQ(recoverable.report.crash_recoveries, 0u);
  EXPECT_EQ(recoverable.report.replayed_records, 0u);
  EXPECT_EQ(recoverable.report.survivors.size(), 12u);
  // The journal covers the whole round: start, 24 submissions, the three
  // phase commits, and one record per charge batch.
  EXPECT_GT(recoverable.report.journal_records, 24u + 3u);
  EXPECT_EQ(recoverable.report.journal_bytes, recoverable.journal.size());
  EXPECT_FALSE(recoverable.announcement.empty());
}

TEST(RecoveryCrashMatrix, EveryCrashPointRecoversByteIdentically) {
  const WireWorld w = make_world(10, 3, 31);

  // Crash-free reference run, with a counting injector measuring how
  // many times the round reaches each crash point.
  MessageBus clean_bus;
  CrashInjector counter;
  const auto clean = run_recoverable(w, clean_bus, {}, &counter);
  ASSERT_TRUE(clean.report.completed);
  ASSERT_EQ(counter.crashes_fired(), 0u);
  ASSERT_GT(counter.total_hits(), 0u);
  // Every defined crash point is reached at least once in a full round —
  // except kMidChurn, which only churn harnesses drive (bench/abl_churn
  // and the churn soak test own that leg of the matrix).
  for (std::size_t p = 0; p < kNumCrashPoints; ++p) {
    const auto point = static_cast<CrashPoint>(p);
    if (point == CrashPoint::kMidChurn) continue;
    ASSERT_GT(counter.hits(point), 0u)
        << "crash point " << p << " never reached; the matrix has a hole";
  }

  // The matrix: one run per (point, nth occurrence), each killed exactly
  // once at that spot.
  std::size_t runs = 0;
  for (std::size_t p = 0; p < kNumCrashPoints; ++p) {
    const auto point = static_cast<CrashPoint>(p);
    for (std::size_t nth = 0; nth < counter.hits(point); ++nth) {
      CrashInjector injector;
      injector.arm(point, nth);
      MessageBus bus;
      const auto crashed = run_recoverable(w, bus, {}, &injector);
      ++runs;

      ASSERT_EQ(injector.crashes_fired(), 1u)
          << "point " << p << " hit " << nth;
      EXPECT_EQ(crashed.report.crash_recoveries, 1u);
      EXPECT_GT(crashed.report.replayed_records, 0u);
      ASSERT_TRUE(crashed.report.completed) << crashed.report.summary();

      // Byte-identical outcome: same awards and charges, same published
      // announcement bytes.
      EXPECT_EQ(crashed.awards, clean.awards) << "point " << p << " hit "
                                              << nth;
      EXPECT_EQ(crashed.announcement, clean.announcement);
      EXPECT_EQ(crashed.report.survivors, clean.report.survivors);

      // Zero SU resubmissions: every SU sent exactly its two original
      // envelopes; recovery rebuilt the rest from the journal alone.
      EXPECT_EQ(crashed.report.retry_waves, 0u);
      for (std::size_t u = 0; u < w.bids.size(); ++u) {
        EXPECT_EQ(bus.link(Address::su(u), Address::auctioneer()).messages, 2u)
            << "su " << u << " resubmitted after crash at point " << p;
      }
    }
  }
  // 10 SUs x 2 submissions + finalize + allocation + charge batches +
  // publish: the sweep is a real matrix, not a couple of spot checks.
  EXPECT_GE(runs, 24u);
}

TEST(RecoverySession, RecoveryIsDeterministicPerSchedule) {
  const WireWorld w = make_world(8, 2, 41);
  const auto run = [&] {
    CrashInjector injector;
    injector.arm(CrashPoint::kAfterIngest, 5);
    injector.arm(CrashPoint::kAfterChargeCommit, 0);
    MessageBus bus;
    return run_recoverable(w, bus, {}, &injector);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.report.crash_recoveries, 2u);
  EXPECT_EQ(a.awards, b.awards);
  EXPECT_EQ(a.announcement, b.announcement);
  EXPECT_EQ(a.journal, b.journal);
  EXPECT_EQ(a.report.to_json(), b.report.to_json());
}

TEST(RecoverySession, DeadlineExpiryMidRecoveryDegradesToQuorum) {
  const WireWorld w = make_world(10, 3, 51);
  const std::size_t silent_su = 4;

  // SU 4's link drops everything it sends; a crash after the first
  // accepted ingest burns the whole tick budget, so recovery resumes
  // past the deadline and must commit with the journaled quorum instead
  // of waiting out retry waves for the silent SU.
  FaultSpec mute;
  mute.drop = 1.0;
  FaultInjector faults(/*seed=*/1, {});
  faults.set_party_spec(Address::su(silent_su), mute);

  CrashInjector crashes;
  crashes.arm(CrashPoint::kAfterIngest, 0);

  RecoverableSessionConfig recov;
  recov.deadline_ticks = 8;
  recov.recovery_cost_ticks = 8;  // one crash eats the whole deadline
  recov.min_quorum = 2;

  MessageBus bus;
  bus.set_fault_injector(&faults);
  const auto degraded = run_recoverable(w, bus, recov, &crashes);

  ASSERT_TRUE(degraded.report.completed) << degraded.report.summary();
  EXPECT_TRUE(degraded.report.degraded);
  EXPECT_EQ(degraded.report.crash_recoveries, 1u);
  EXPECT_EQ(degraded.report.retry_waves, 0u);  // no wave fit the deadline
  EXPECT_EQ(degraded.report.deadline_ticks, 8u);
  EXPECT_GE(degraded.report.ticks_used, 8u);

  // The silent SU is excluded as a timeout; everyone else survives.
  ASSERT_EQ(degraded.report.excluded.size(), 1u);
  EXPECT_EQ(degraded.report.excluded[0].user, silent_su);
  EXPECT_EQ(degraded.report.excluded[0].reason,
            RoundReport::ExclusionReason::kTimeout);
  EXPECT_EQ(degraded.report.survivors.size(), 9u);

  // Allocation invariants hold in the degraded commit: awards only to
  // survivors, channels in range, at most one channel per winner, and a
  // channel shared only between non-conflicting winners.
  const std::set<std::size_t> survivors(degraded.report.survivors.begin(),
                                        degraded.report.survivors.end());
  std::vector<auction::SuLocation> survivor_locations;
  std::vector<std::size_t> survivor_slot(w.bids.size(), w.bids.size());
  for (const std::size_t u : degraded.report.survivors) {
    survivor_slot[u] = survivor_locations.size();
    survivor_locations.push_back(w.locations[u]);
  }
  const auto conflicts = auction::ConflictGraph::from_locations(
      survivor_locations, w.config.lambda);
  std::set<std::size_t> winners;
  for (const auto& award : degraded.awards) {
    EXPECT_TRUE(survivors.count(award.user)) << "award to excluded SU";
    EXPECT_LT(award.channel, w.config.num_channels);
    EXPECT_TRUE(winners.insert(award.user).second)
        << "su " << award.user << " won twice";
  }
  for (const auto& a : degraded.awards) {
    for (const auto& b : degraded.awards) {
      if (a.user == b.user || a.channel != b.channel) continue;
      EXPECT_FALSE(
          conflicts.conflicts(survivor_slot[a.user], survivor_slot[b.user]))
          << "conflicting SUs " << a.user << " and " << b.user
          << " share channel " << a.channel;
    }
  }

  // The degraded quorum commit equals a clean round restricted to the
  // survivors (SU randomness is forked by index either way).
  MessageBus clean_bus;
  const auto clean = run_recoverable(w, clean_bus, {}, nullptr, {silent_su});
  EXPECT_EQ(degraded.awards, clean.awards);
}

TEST(RecoverySession, QuorumNotMetIsTypedProtocolError) {
  const WireWorld w = make_world(4, 2, 61);

  FaultSpec mute;
  mute.drop = 1.0;
  FaultInjector faults(/*seed=*/1, {});
  faults.set_party_spec(Address::su(0), mute);

  RecoverableSessionConfig recov;
  recov.deadline_ticks = 1;  // expires after the first backoff wave
  recov.min_quorum = 4;      // but the silent SU can never arrive

  MessageBus bus;
  bus.set_fault_injector(&faults);
  try {
    run_recoverable(w, bus, recov, nullptr);
    FAIL() << "expected LppaError";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
}

TEST(RecoverySnapshot, SnapshotRestoreRoundTripsByteIdentically) {
  const WireWorld w = make_world(6, 3, 71);
  core::TrustedThirdParty ttp(w.config.bid, 9);
  const std::size_t n = w.bids.size();

  AuctioneerSession session(w.config, n);
  Rng rng(1);
  for (std::size_t u = 0; u < n; ++u) {
    const SuClient client(u, w.config, ttp.su_keys());
    if (u == 2) continue;  // leave one SU missing: a mid-round snapshot
    ASSERT_EQ(session.try_ingest(client.location_envelope(w.locations[u], rng)),
              AuctioneerSession::IngestResult::kAccepted);
    ASSERT_EQ(session.try_ingest(client.bid_envelope(w.bids[u], rng)),
              AuctioneerSession::IngestResult::kAccepted);
  }
  session.replay_strike(2, "synthetic strike");

  // Pre-allocation snapshot round-trips.
  const Bytes mid = session.snapshot();
  AuctioneerSession restored_mid(w.config, n);
  restored_mid.restore_from(mid);
  EXPECT_EQ(restored_mid.snapshot(), mid);
  EXPECT_FALSE(restored_mid.allocation_done());

  // Post-allocation snapshot round-trips, and the restored session
  // continues to byte-identical charging and publication.
  RoundReport report;
  session.finalize_participants(report);
  Rng alloc_rng(2);
  session.run_allocation(alloc_rng);
  const Bytes full = session.snapshot();

  AuctioneerSession restored(w.config, n);
  restored.restore_from(full);
  EXPECT_EQ(restored.snapshot(), full);
  EXPECT_TRUE(restored.allocation_done());
  EXPECT_EQ(restored.participants(), session.participants());
  EXPECT_EQ(restored.awards(), session.awards());

  const auto queries = session.charge_query_envelopes();
  EXPECT_EQ(restored.charge_query_envelopes(), queries);
  TtpService service(ttp);
  for (const auto& q : queries) {
    const Bytes result = service.handle(q);
    session.ingest_charge_results(result);
    restored.ingest_charge_results(result);
  }
  ASSERT_TRUE(session.charging_complete());
  ASSERT_TRUE(restored.charging_complete());
  EXPECT_EQ(restored.winner_announcement(), session.winner_announcement());

  // Restoring over a session that already holds state is a typed
  // lifecycle error, and a damaged image is a typed protocol error.
  try {
    restored.restore_from(full);
    FAIL() << "expected LppaError";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kState);
  }
  Bytes damaged = full;
  damaged[20] ^= 0x40;  // inside SU 0's journaled location envelope
  AuctioneerSession fresh(w.config, n);
  try {
    fresh.restore_from(damaged);
    FAIL() << "expected LppaError";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
}

TEST(RecoveryBackoff, CappedScheduleIsPinned) {
  HardenedSessionConfig cfg;
  cfg.backoff_base_ticks = 3;
  cfg.max_backoff_ticks = 100;
  // Doubles until the cap, then plateaus: the regression pin for the
  // shift/overflow guard.
  const std::size_t expected[] = {3, 6, 12, 24, 48, 96, 100, 100, 100};
  for (std::size_t wave = 0; wave < std::size(expected); ++wave) {
    EXPECT_EQ(cfg.backoff_ticks(wave), expected[wave]) << "wave " << wave;
  }
  // Far past the word size: previously `base << wave` was undefined for
  // wave >= 64; now it is just the cap.
  EXPECT_EQ(cfg.backoff_ticks(63), 100u);
  EXPECT_EQ(cfg.backoff_ticks(64), 100u);
  EXPECT_EQ(cfg.backoff_ticks(200), 100u);

  cfg.backoff_base_ticks = 0;
  EXPECT_EQ(cfg.backoff_ticks(0), 0u);
  EXPECT_EQ(cfg.backoff_ticks(500), 0u);

  // The defaults also plateau instead of wrapping.
  HardenedSessionConfig defaults;
  EXPECT_EQ(defaults.backoff_ticks(100), defaults.max_backoff_ticks);
}

}  // namespace
}  // namespace lppa::proto
