// Socket transport ≡ in-process bus: the round-semantics parity suite.
//
// The acceptance criterion of the socket port is byte-identity: at the
// same seed the socket round commits the same awards, charges and
// announcement bytes as the MessageBus round — clean, under transport
// fault injection of every class, and across auctioneer crashes at
// every journal checkpoint — with the SUs never rebuilding an envelope
// (at-least-once redelivery, exactly-once construction).
#include <gtest/gtest.h>

#include <set>

#include "net/session_port.h"
#include "obs/metrics.h"
#include "proto/fault.h"
#include "proto/session.h"

namespace lppa::net {
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

SocketAuctionResult run_socket(const WireWorld& w,
                               ServerConfig server_config = {},
                               SocketRoundOptions round = {},
                               proto::CrashInjector* crashes = nullptr,
                               SocketFaultInjector* faults = nullptr,
                               const std::vector<std::size_t>& exclude = {}) {
  core::TrustedThirdParty ttp(w.config.bid, kTtpSeed);
  return run_recoverable_socket_auction(w.config, ttp, w.locations, w.bids,
                                        kWireSeed, std::move(server_config),
                                        round, crashes, faults, exclude);
}

proto::RecoverableWireResult run_bus(
    const WireWorld& w, const proto::RecoverableSessionConfig& recov = {},
    const std::vector<std::size_t>& exclude = {}) {
  core::TrustedThirdParty ttp(w.config.bid, kTtpSeed);
  proto::MessageBus bus;
  return proto::run_recoverable_wire_auction(
      w.config, ttp, w.locations, w.bids, bus, kWireSeed, recov,
      /*crashes=*/nullptr, exclude);
}

TEST(SocketAuction, CleanRunMatchesBusByteIdentically) {
  const WireWorld w = make_world(10, 3, 21);
  const auto bus = run_bus(w);

  const auto socket = run_socket(w);

  ASSERT_TRUE(socket.report.completed) << socket.report.summary();
  EXPECT_FALSE(socket.report.degraded);
  EXPECT_EQ(socket.awards, bus.awards);
  EXPECT_EQ(socket.announcement, bus.announcement);
  EXPECT_EQ(socket.report.survivors, bus.report.survivors);
  EXPECT_EQ(socket.report.crash_recoveries, 0u);
  // Exactly one location+bid build per SU, and nobody had to reconnect.
  EXPECT_EQ(socket.envelopes_built, 2 * w.bids.size());
  EXPECT_EQ(socket.reconnects, 0u);

  // A second round over a fresh TTP, without a crash injector, is the
  // same round again.
  core::TrustedThirdParty ttp(w.config.bid, kTtpSeed);
  const auto hardened = run_recoverable_socket_auction(
      w.config, ttp, w.locations, w.bids, kWireSeed, ServerConfig{});
  EXPECT_EQ(hardened.awards, bus.awards);
  EXPECT_EQ(hardened.announcement, bus.announcement);
}

TEST(SocketAuction, UnixDomainEndpointMatchesTcp) {
  const WireWorld w = make_world(8, 2, 23);
  const auto tcp = run_socket(w);

  ServerConfig uds;
  uds.endpoint = Endpoint::unix_path("/tmp/lppa_net_session_test.sock");
  const auto unix_run = run_socket(w, std::move(uds));

  EXPECT_EQ(unix_run.awards, tcp.awards);
  EXPECT_EQ(unix_run.announcement, tcp.announcement);
  EXPECT_EQ(unix_run.report.survivors, tcp.report.survivors);
}

TEST(SocketAuction, AckedSubmissionsDoNotPerturbTheRound) {
  const WireWorld w = make_world(6, 2, 25);
  const auto bus = run_bus(w);

  obs::MetricsRegistry metrics;
  ServerConfig acked;
  acked.ack_submissions = true;
  acked.metrics = &metrics;
  const auto socket = run_socket(w, std::move(acked));

  EXPECT_EQ(socket.awards, bus.awards);
  EXPECT_EQ(socket.announcement, bus.announcement);
}

// One run per fault class at probability 1.0: the transport mangles
// every frame until the per-SU budget is spent, and the round still
// converges to the clean awards — redelivery, reconnection and nack
// waves absorb all of it.
TEST(SocketFaultMatrix, EveryClassConvergesToCleanAwards) {
  const WireWorld w = make_world(8, 2, 33);
  const auto clean = run_bus(w);

  struct Case {
    const char* name;
    SocketFaultSpec spec;
    std::size_t SocketFaultCounters::*fired;
    bool forces_reconnect;
  };
  SocketFaultSpec truncate, reset, delay, duplicate, fragment;
  truncate.truncate = 1.0;
  reset.reset = 1.0;
  delay.delay = 1.0;
  delay.max_delay_ticks = 2;
  duplicate.duplicate = 1.0;
  fragment.fragment = 1.0;
  const Case cases[] = {
      {"truncate", truncate, &SocketFaultCounters::truncations, true},
      {"reset", reset, &SocketFaultCounters::resets, true},
      {"delay", delay, &SocketFaultCounters::delays, false},
      {"duplicate", duplicate, &SocketFaultCounters::duplicates, false},
      {"fragment", fragment, &SocketFaultCounters::fragments, false},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SocketFaultSpec spec = c.spec;
    spec.max_faults_per_su = 3;
    SocketFaultInjector faults(/*seed=*/9, spec);

    const auto faulted = run_socket(w, {}, {}, nullptr, &faults);

    ASSERT_TRUE(faulted.report.completed) << faulted.report.summary();
    EXPECT_EQ(faulted.awards, clean.awards);
    EXPECT_EQ(faulted.announcement, clean.announcement);
    EXPECT_GT(faulted.socket_faults.*(c.fired), 0u);
    if (c.forces_reconnect) {
      EXPECT_GE(faulted.reconnects, 1u);
    }
    // Exactly-once construction regardless of how many times the bytes
    // were redelivered.
    EXPECT_EQ(faulted.envelopes_built, 2 * w.bids.size());
  }

  // All classes mixed in one round.
  SocketFaultSpec storm;
  storm.truncate = storm.reset = storm.delay = storm.duplicate =
      storm.fragment = 0.2;
  storm.max_faults_per_su = 4;
  SocketFaultInjector faults(/*seed=*/13, storm);
  const auto stormy = run_socket(w, {}, {}, nullptr, &faults);
  ASSERT_TRUE(stormy.report.completed) << stormy.report.summary();
  EXPECT_EQ(stormy.awards, clean.awards);
  EXPECT_EQ(stormy.announcement, clean.announcement);
  EXPECT_EQ(stormy.envelopes_built, 2 * w.bids.size());
}

// The crash matrix over sockets: kill the auctioneer at every (point,
// nth occurrence) a clean round reaches; recovery must republish
// byte-identical results from the journal alone, with the SUs only ever
// redelivering already-built bytes.  The scripted churn schedule makes
// the server apply depart/return operations while admission is open, so
// CrashPoint::kMidChurn is reached (once per operation) and crashes
// there — churn record durable, round unfinished — are part of the
// matrix like every other checkpoint.
TEST(SocketCrashMatrix, EveryCrashPointRecoversByteIdentically) {
  const WireWorld w = make_world(6, 2, 31);

  // SU 1 departs and returns (net no-op, but two journaled operations);
  // SUs 4 and 2 stay departed, so the round commits without them.
  SocketRoundOptions round;
  round.churn = {{/*depart=*/true, 1},
                 {/*depart=*/true, 4},
                 {/*depart=*/false, 1},
                 {/*depart=*/true, 2}};

  proto::CrashInjector counter;
  const auto clean = run_socket(w, {}, round, &counter);
  ASSERT_TRUE(clean.report.completed) << clean.report.summary();
  ASSERT_EQ(counter.crashes_fired(), 0u);
  ASSERT_GT(counter.total_hits(), 0u);
  for (std::size_t p = 0; p < proto::kNumCrashPoints; ++p) {
    const auto point = static_cast<proto::CrashPoint>(p);
    ASSERT_GT(counter.hits(point), 0u)
        << "crash point " << p << " never reached on the socket path";
  }
  // One kMidChurn checkpoint per scripted operation.
  ASSERT_EQ(counter.hits(proto::CrashPoint::kMidChurn), round.churn.size());

  // The churned socket round equals a bus round that excludes exactly
  // the finally-departed SUs (per-SU RNG streams are forked by index
  // either way).
  const auto bus = run_bus(w, {}, {2, 4});
  EXPECT_EQ(clean.awards, bus.awards);
  EXPECT_EQ(clean.announcement, bus.announcement);

  std::size_t runs = 0;
  for (std::size_t p = 0; p < proto::kNumCrashPoints; ++p) {
    const auto point = static_cast<proto::CrashPoint>(p);
    for (std::size_t nth = 0; nth < counter.hits(point); ++nth) {
      proto::CrashInjector injector;
      injector.arm(point, nth);
      const auto crashed = run_socket(w, {}, round, &injector);
      ++runs;

      ASSERT_EQ(injector.crashes_fired(), 1u) << "point " << p << " hit "
                                              << nth;
      ASSERT_TRUE(crashed.report.completed) << crashed.report.summary();
      EXPECT_EQ(crashed.report.crash_recoveries, 1u);
      EXPECT_GT(crashed.report.replayed_records, 0u);

      EXPECT_EQ(crashed.awards, clean.awards) << "point " << p << " hit "
                                              << nth;
      EXPECT_EQ(crashed.announcement, clean.announcement);
      EXPECT_EQ(crashed.report.survivors, clean.report.survivors);

      // Zero resubmission: the SUs built their envelopes exactly once;
      // everything the restarted server saw again was redelivered bytes,
      // absorbed as benign duplicates.
      EXPECT_EQ(crashed.envelopes_built, 2 * w.bids.size());
    }
  }
  // 6 SUs x 2 submissions + finalize + allocation + charge batches +
  // publish: a real matrix, not a spot check.
  EXPECT_GE(runs, 16u);
}

// Scripted churn is applied by the one round driver, so the bus honours
// the socket crash matrix's schedule too: same announcement, clean and
// with the auctioneer crashing at every kMidChurn checkpoint.
TEST(SocketAuction, ChurnScheduleMatchesTheBus) {
  const WireWorld w = make_world(6, 2, 31);
  SocketRoundOptions round;
  round.churn = {{/*depart=*/true, 1},
                 {/*depart=*/true, 4},
                 {/*depart=*/false, 1},
                 {/*depart=*/true, 2}};

  const auto socket = run_socket(w, {}, round);
  ASSERT_TRUE(socket.report.completed) << socket.report.summary();
  const auto bus = run_bus(w, round);
  EXPECT_EQ(bus.announcement, socket.announcement);
  EXPECT_EQ(bus.report.survivors, socket.report.survivors);

  for (std::size_t nth = 0; nth < round.churn.size(); ++nth) {
    proto::CrashInjector crashes;
    crashes.arm(proto::CrashPoint::kMidChurn, nth);
    core::TrustedThirdParty ttp(w.config.bid, kTtpSeed);
    proto::MessageBus bus_crashy;
    const auto crashed = proto::run_recoverable_wire_auction(
        w.config, ttp, w.locations, w.bids, bus_crashy, kWireSeed, round,
        &crashes);
    ASSERT_EQ(crashes.crashes_fired(), 1u) << "churn op " << nth;
    EXPECT_EQ(crashed.report.crash_recoveries, 1u);
    EXPECT_EQ(crashed.announcement, socket.announcement) << "churn op " << nth;
  }
}

TEST(SocketDeadline, MutedSuDegradesToQuorumDeterministically) {
  const WireWorld w = make_world(8, 2, 51);
  const std::size_t silent_su = 3;

  // The targeted mute makes the silent party deterministic over a
  // wall-clock transport: SU 3's frames never reach the socket, however
  // the retries land.
  SocketFaultSpec spec;
  spec.mute_su = silent_su;
  SocketFaultInjector faults(/*seed=*/1, spec);

  SocketRoundOptions round;
  round.deadline_ticks = 100;
  round.min_quorum = 2;
  round.hardened.max_retries = 20;  // the deadline fires first
  round.hardened.backoff_base_ticks = 4;

  const auto degraded = run_socket(w, {}, round, nullptr, &faults);

  ASSERT_TRUE(degraded.report.completed) << degraded.report.summary();
  EXPECT_TRUE(degraded.report.degraded);
  EXPECT_GT(degraded.report.retry_waves, 0u);
  EXPECT_GE(degraded.report.ticks_used, 100u);
  EXPECT_GE(degraded.socket_faults.mutes, 2u);

  ASSERT_EQ(degraded.report.excluded.size(), 1u);
  EXPECT_EQ(degraded.report.excluded[0].user, silent_su);
  EXPECT_EQ(degraded.report.excluded[0].reason,
            proto::RoundReport::ExclusionReason::kTimeout);
  EXPECT_EQ(degraded.report.survivors.size(), w.bids.size() - 1);

  // The degraded quorum commit equals a bus round that excludes exactly
  // the SU the socket round lost (SU randomness is forked by index
  // either way).
  const auto clean = run_bus(w, {}, {silent_su});
  EXPECT_EQ(degraded.awards, clean.awards);
}

TEST(SocketDeadline, QuorumNotMetIsTypedProtocolError) {
  const WireWorld w = make_world(4, 2, 61);

  SocketFaultSpec spec;
  spec.mute_su = 0;
  SocketFaultInjector faults(/*seed=*/1, spec);

  SocketRoundOptions round;
  round.deadline_ticks = 50;
  round.min_quorum = 4;  // the muted SU can never arrive
  round.hardened.max_retries = 20;
  round.hardened.backoff_base_ticks = 2;

  try {
    run_socket(w, {}, round, nullptr, &faults);
    FAIL() << "expected LppaError";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
}

TEST(SocketDeadline, DelayBudgetPastDeadlineIsTypedConfigError) {
  // Direct: the injector re-uses the bus-level rule (satellite 2).
  SocketFaultSpec spec;
  spec.delay = 0.5;
  spec.max_delay_ticks = 10;
  SocketFaultInjector faults(/*seed=*/3, spec);
  EXPECT_NO_THROW(faults.require_within_deadline(0));   // no deadline
  EXPECT_NO_THROW(faults.require_within_deadline(11));  // delay fits
  try {
    faults.require_within_deadline(5);
    FAIL() << "expected LppaError";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInvalidArgument);
  }

  // And the round driver applies it before touching a socket.
  const WireWorld w = make_world(2, 2, 71);
  SocketRoundOptions round;
  round.deadline_ticks = 5;
  try {
    run_socket(w, {}, round, nullptr, &faults);
    FAIL() << "expected LppaError";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInvalidArgument);
  }
}

TEST(SocketDeadline, ExcludedSusConsumeRngStreamsLikeTheBus) {
  // `exclude` parity: a socket round without SU 2 equals a bus round
  // without SU 2 — the index-ordered RNG forks keep everyone else's
  // submissions byte-identical.
  const WireWorld w = make_world(6, 2, 81);
  const auto bus = run_bus(w, {}, {2});
  const auto socket = run_socket(w, {}, {}, nullptr, nullptr, {2});
  EXPECT_EQ(socket.awards, bus.awards);
  EXPECT_EQ(socket.announcement, bus.announcement);
  EXPECT_EQ(socket.envelopes_built, 2 * (w.bids.size() - 1));
}

}  // namespace
}  // namespace lppa::net
