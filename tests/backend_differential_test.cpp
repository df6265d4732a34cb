// Backend differential suite (ISSUE S3, ctest label `backend`).
//
// Pins the three contracts of the BidBackend refactor:
//   1. The HMAC prefix backend is the seed code path BYTE-FOR-BYTE: run
//      digests (bid wire + awards) and session digests (snapshot +
//      announcement) equal goldens captured on the pre-backend tree.
//   2. The Paillier backend satisfies every backend-agnostic invariant —
//      conflict-free allocation, charge <= true bid, deterministic
//      tie-breaks invariant across thread counts and equal to the
//      tournament-scan oracle's, snapshot round-trips — without being
//      award-identical to HMAC (the two backends draw per-cell
//      randomness differently).
//   3. Snapshot images are backend-tagged: restoring across backends is
//      a typed kProtocol rejection in both directions, at the table
//      layer and through the wire session.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/lppa_auction.h"
#include "core/submission_validator.h"
#include "crypto/sha256.h"
#include "oracles.h"
#include "proto/parties.h"
#include "proto/round_report.h"

namespace lppa {
namespace {

struct World {
  std::vector<auction::SuLocation> locations;
  std::vector<auction::BidVector> bids;
};

World make_world(std::size_t n, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  World w;
  for (std::size_t i = 0; i < n; ++i) {
    w.locations.push_back({rng.below(5000), rng.below(5000)});
    auction::BidVector bv(k);
    for (auto& b : bv) b = rng.below(16);
    w.bids.push_back(bv);
  }
  return w;
}

core::LppaConfig make_config(
    std::size_t k,
    crypto::BidBackendId backend = crypto::BidBackendId::kHmacPrefix) {
  core::LppaConfig cfg;
  cfg.num_channels = k;
  cfg.lambda = 100;
  cfg.coord_width = 14;
  cfg.bid = core::PpbsBidConfig::advanced(15, 3, 4,
                                          core::ZeroDisguisePolicy::none(15));
  cfg.bid.backend = backend;
  cfg.ttp_batch_size = 4;
  return cfg;
}

constexpr std::uint64_t kTtpSeed = 77;
constexpr std::uint64_t kRoundSeed = 5;

/// Digest of one engine round: every masked bid's wire image followed by
/// the award list.  Matches the golden-capture recipe exactly.
std::string run_digest(const core::LppaOutcome& out) {
  crypto::Sha256 h;
  for (const auto& b : out.view.bids) {
    const Bytes wire = b.serialize();
    h.update(std::span<const std::uint8_t>(wire));
  }
  for (const auto& a : out.outcome.awards) {
    const std::string s = "u" + std::to_string(a.user) + "c" +
                          std::to_string(a.channel) + "p" +
                          std::to_string(a.charge) + "v" +
                          std::to_string(a.valid ? 1 : 0) + ";";
    h.update(s);
  }
  return h.finalize().hex();
}

core::LppaOutcome run_engine(const World& w, core::ChargingRule rule,
                             std::size_t threads,
                             crypto::BidBackendId backend) {
  core::LppaConfig cfg = make_config(3, backend);
  cfg.charging_rule = rule;
  cfg.num_threads = threads;
  core::LppaAuction engine(cfg, kTtpSeed);
  Rng rng(kRoundSeed);
  return engine.run(w.locations, w.bids, rng);
}

/// Drives a full wire session (ingest -> finalize -> allocate -> charge)
/// and returns {snapshot, announcement} bytes.  Same recipe as the
/// golden capture, parameterised by backend.
struct SessionRun {
  Bytes snapshot;
  Bytes announcement;
};

SessionRun run_session(const World& w, core::ChargingRule rule,
                       crypto::BidBackendId backend) {
  core::LppaConfig cfg = make_config(3, backend);
  cfg.charging_rule = rule;
  core::TrustedThirdParty ttp(cfg.bid, kTtpSeed, rule);
  cfg.backend = &ttp.bid_backend();
  proto::AuctioneerSession session(cfg, w.locations.size());
  Rng boot(kRoundSeed);
  Rng su_master = boot.fork();
  for (std::size_t i = 0; i < w.locations.size(); ++i) {
    Rng r = su_master.fork();
    const proto::SuClient client(i, cfg, ttp.su_keys());
    EXPECT_EQ(session.try_ingest(client.location_envelope(w.locations[i], r)),
              proto::AuctioneerSession::IngestResult::kAccepted);
    EXPECT_EQ(session.try_ingest(client.bid_envelope(w.bids[i], r)),
              proto::AuctioneerSession::IngestResult::kAccepted);
  }
  proto::RoundReport report;
  session.finalize_participants(report);
  Rng master(kRoundSeed);
  (void)master.fork();
  session.run_allocation(master);
  proto::TtpService svc(ttp);
  for (const Bytes& q : session.charge_query_envelopes()) {
    session.ingest_charge_results(svc.handle(q));
  }
  return {session.snapshot(), session.winner_announcement()};
}

std::string hex(const Bytes& b) {
  return crypto::Sha256::hash(std::span<const std::uint8_t>(b)).hex();
}

// ---------------------------------------------------------------------------
// 1. HMAC backend == seed, byte for byte.
//
// Goldens captured on the pre-refactor tree (commit "Add async socket
// transport...") with tools equivalent to this file's helpers: world
// make_world(10, 3, 21), TTP seed 77, round seed 5.
// ---------------------------------------------------------------------------

TEST(HmacGolden, RunDigestsMatchSeedCapture) {
  const World w = make_world(10, 3, 21);
  const std::map<core::ChargingRule, std::string> golden = {
      {core::ChargingRule::kFirstPrice,
       "51ff06127a173382759954b70aeff028cfe3d1621261edbd1e50fa9b48fbe58c"},
      {core::ChargingRule::kSecondPrice,
       "552de03b518bfd0d3f009f30195469a7fc7bdce9c81d58b3db7565ffe5d215c9"},
  };
  for (const auto& [rule, digest] : golden) {
    const auto out = run_engine(w, rule, /*threads=*/1,
                                crypto::BidBackendId::kHmacPrefix);
    EXPECT_EQ(run_digest(out), digest) << "rule=" << static_cast<int>(rule);
  }
}

TEST(HmacGolden, SessionDigestsMatchSeedCapture) {
  const World w = make_world(10, 3, 21);
  struct Golden {
    std::string snap;
    std::string ann;
  };
  const std::map<core::ChargingRule, Golden> golden = {
      {core::ChargingRule::kFirstPrice,
       {"da9596ff33bc46a546663e9bb8a0496ff3d5401c693d65271253a37dff2a30a9",
        "bf4c21eb0f693d3830718c2c0652e42e999daad3dbc83dca2ec3e97f05e6740a"}},
      {core::ChargingRule::kSecondPrice,
       {"5a80f5a4f4db6641f59b7168472cfa444cf8422f32ace6b888365ca7e972c587",
        "d320173bce64bb7ee79b7ab3065e520891c90544508c8762b149838b5f4817e0"}},
  };
  for (const auto& [rule, g] : golden) {
    const SessionRun run =
        run_session(w, rule, crypto::BidBackendId::kHmacPrefix);
    EXPECT_EQ(hex(run.snapshot), g.snap) << "rule=" << static_cast<int>(rule);
    EXPECT_EQ(hex(run.announcement), g.ann)
        << "rule=" << static_cast<int>(rule);
  }
}

// ---------------------------------------------------------------------------
// 2. Shared invariants — both backends, both charging rules.
// ---------------------------------------------------------------------------

class BackendInvariants
    : public ::testing::TestWithParam<
          std::tuple<crypto::BidBackendId, core::ChargingRule>> {};

TEST_P(BackendInvariants, AllocationIsConflictFreeAndChargesAreBounded) {
  const auto [backend, rule] = GetParam();
  const World w = make_world(10, 3, 21);
  const auto out = run_engine(w, rule, /*threads=*/1, backend);

  EXPECT_EQ(out.manipulations_detected, 0u);
  std::set<std::size_t> winners;
  for (const auto& a : out.outcome.awards) {
    // Greedy allocation removes a winner's whole row: one channel per SU.
    EXPECT_TRUE(winners.insert(a.user).second) << "user " << a.user;
    if (!a.valid) continue;
    const auction::Money true_bid = w.bids[a.user][a.channel];
    EXPECT_GT(true_bid, 0u);
    EXPECT_LE(a.charge, true_bid)
        << "user " << a.user << " channel " << a.channel;
    if (rule == core::ChargingRule::kFirstPrice) {
      EXPECT_EQ(a.charge, true_bid);
    }
  }
  // No two same-channel winners may interfere (paper constraint; the
  // conflict graph in the view is exactly what the allocator consulted).
  for (std::size_t i = 0; i < out.outcome.awards.size(); ++i) {
    for (std::size_t j = i + 1; j < out.outcome.awards.size(); ++j) {
      const auto& a = out.outcome.awards[i];
      const auto& b = out.outcome.awards[j];
      if (a.channel != b.channel) continue;
      EXPECT_FALSE(out.view.conflicts.conflicts(a.user, b.user))
          << "users " << a.user << "/" << b.user << " share channel "
          << a.channel;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendInvariants,
    ::testing::Combine(::testing::Values(crypto::BidBackendId::kHmacPrefix,
                                         crypto::BidBackendId::kPaillier),
                       ::testing::Values(core::ChargingRule::kFirstPrice,
                                         core::ChargingRule::kSecondPrice)));

TEST(PaillierEngine, DeterministicAcrossShardsThreadsAndReruns) {
  const World w = make_world(10, 3, 21);
  for (const auto rule :
       {core::ChargingRule::kFirstPrice, core::ChargingRule::kSecondPrice}) {
    std::optional<std::string> reference;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      const auto out =
          run_engine(w, rule, threads, crypto::BidBackendId::kPaillier);
      const std::string digest = run_digest(out);
      if (!reference.has_value()) {
        reference = digest;
        // The first run against the oracle round (pairwise graph,
        // tournament-scan table) over its own masked submissions.
        core::LppaConfig cfg = make_config(3, crypto::BidBackendId::kPaillier);
        cfg.charging_rule = rule;
        core::LppaAuction engine(cfg, kTtpSeed);
        auction::ConflictGraph pairwise(1);
        const auto oracle = oracles::reference_round(
            engine, out.view, Rng(kRoundSeed), &pairwise);
        EXPECT_EQ(out.view.conflicts, pairwise);
        EXPECT_EQ(out.outcome.awards, oracle.awards)
            << "rule=" << static_cast<int>(rule);
      } else {
        EXPECT_EQ(digest, *reference)
            << "rule=" << static_cast<int>(rule) << " threads=" << threads;
      }
    }
    // A fresh engine over the same seeds reproduces the round exactly
    // (keygen, blinding and encryption randomness all derive from them).
    const auto rerun =
        run_engine(w, rule, /*threads=*/1, crypto::BidBackendId::kPaillier);
    EXPECT_EQ(run_digest(rerun), *reference);
  }
}

// ---------------------------------------------------------------------------
// 3. Table-level differential: the sorted table vs the tournament-scan
//    oracle on Paillier submissions under random removal / insert_user
//    interleavings, with a serialize -> restore hop mid-stream.
// ---------------------------------------------------------------------------

TEST(PaillierTable, StrategiesAgreeUnderChurnInterleavings) {
  constexpr std::size_t kUsers = 8;
  constexpr std::size_t kChannels = 3;
  core::PpbsBidConfig bid = core::PpbsBidConfig::advanced(
      15, 3, 4, core::ZeroDisguisePolicy::none(15));
  bid.backend = crypto::BidBackendId::kPaillier;
  core::TrustedThirdParty ttp(bid, kTtpSeed);
  const crypto::BidBackend* backend = &ttp.bid_backend();
  const auto keys = ttp.su_keys();
  ASSERT_TRUE(keys.paillier.has_value());
  const core::BidSubmitter submitter(ttp.config(), keys.gb_master, keys.gc,
                                     keys.paillier);

  Rng rng(1234);
  std::vector<core::BidSubmission> subs;
  for (std::size_t u = 0; u < kUsers; ++u) {
    auction::BidVector bv(kChannels);
    for (auto& b : bv) b = rng.below(16);
    subs.push_back(submitter.submit(bv, rng));
  }

  core::EncryptedBidTable sorted(subs, kChannels,
                                 core::ArgmaxStrategy::kSortedColumns,
                                 /*sort_threads=*/1, backend);
  oracles::TournamentScanTable scan(subs, kChannels, backend);

  const auto expect_agreement = [&](const char* when) {
    for (std::size_t r = 0; r < kChannels; ++r) {
      EXPECT_EQ(sorted.argmax_in_column(r), scan.argmax_in_column(r))
          << when << " channel " << r;
    }
  };

  Rng ops(1235);
  std::vector<bool> user_gone(kUsers, false);
  expect_agreement("initial");
  for (int step = 0; step < 60; ++step) {
    const std::size_t r = ops.below(kChannels);
    const auto top = sorted.argmax_in_column(r);
    ASSERT_EQ(top, scan.argmax_in_column(r)) << "step " << step;
    const std::uint64_t op = ops.below(10);
    if (op < 5 && top.has_value()) {
      sorted.remove(*top, r);
      scan.remove(*top, r);
    } else if (op < 8) {
      const std::size_t u = ops.below(kUsers);
      if (!user_gone[u]) {
        sorted.remove_user(u);
        scan.remove_user(u);
        user_gone[u] = true;
      }
    } else {
      // Revive some fully tombstoned slot (churn return with the same
      // masked submission behind it).
      for (std::size_t u = 0; u < kUsers; ++u) {
        if (user_gone[u]) {
          sorted.insert_user(u);
          scan.insert_user(u);
          user_gone[u] = false;
          break;
        }
      }
    }
    expect_agreement("after op");

    if (step == 30) {
      // Mid-stream snapshot hop: both restored tables must answer
      // argmax exactly like the live ones.
      const Bytes wire = sorted.serialize();
      ASSERT_EQ(scan.serialize(), wire);
      const auto restored =
          core::EncryptedBidTable::deserialize(wire, 1, backend);
      const auto restored_scan =
          oracles::TournamentScanTable::deserialize(wire, backend);
      for (std::size_t c = 0; c < kChannels; ++c) {
        EXPECT_EQ(restored.argmax_in_column(c), scan.argmax_in_column(c))
            << "restored channel " << c;
        EXPECT_EQ(restored_scan.argmax_in_column(c),
                  scan.argmax_in_column(c))
            << "restored scan channel " << c;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 4. Snapshot backend tagging: cross-backend restores are typed rejects.
// ---------------------------------------------------------------------------

std::vector<core::BidSubmission> make_submissions(
    core::TrustedThirdParty& ttp, std::size_t users, std::size_t channels,
    std::uint64_t seed) {
  const auto keys = ttp.su_keys();
  const core::BidSubmitter submitter(ttp.config(), keys.gb_master, keys.gc,
                                     keys.paillier);
  Rng rng(seed);
  std::vector<core::BidSubmission> subs;
  for (std::size_t u = 0; u < users; ++u) {
    auction::BidVector bv(channels);
    for (auto& b : bv) b = rng.below(16);
    subs.push_back(submitter.submit(bv, rng));
  }
  return subs;
}

TEST(SnapshotInterop, TableImageRejectsForeignBackendBothWays) {
  core::PpbsBidConfig hmac_bid = core::PpbsBidConfig::advanced(
      15, 3, 4, core::ZeroDisguisePolicy::none(15));
  core::PpbsBidConfig paillier_bid = hmac_bid;
  paillier_bid.backend = crypto::BidBackendId::kPaillier;
  core::TrustedThirdParty hmac_ttp(hmac_bid, kTtpSeed);
  core::TrustedThirdParty paillier_ttp(paillier_bid, kTtpSeed);
  const crypto::BidBackend* paillier = &paillier_ttp.bid_backend();
  ASSERT_EQ(paillier->id(), crypto::BidBackendId::kPaillier);

  const auto hmac_subs = make_submissions(hmac_ttp, 4, 2, 9);
  const auto paillier_subs = make_submissions(paillier_ttp, 4, 2, 9);

  const Bytes hmac_wire = core::EncryptedBidTable(hmac_subs, 2).serialize();
  const Bytes paillier_wire =
      core::EncryptedBidTable(paillier_subs, 2,
                              core::ArgmaxStrategy::kSortedColumns,
                              /*sort_threads=*/1, paillier)
          .serialize();

  // Legacy untagged HMAC image: bit-compatible with the seed (no magic),
  // restorable under the default backend...
  EXPECT_FALSE(hmac_wire.empty());
  EXPECT_NO_THROW(core::EncryptedBidTable::deserialize(hmac_wire));
  // ...but refused by a Paillier session.
  try {
    core::EncryptedBidTable::deserialize(hmac_wire, 1, paillier);
    FAIL() << "HMAC image must not restore under the Paillier backend";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }

  // Tagged Paillier image: restores under its own backend, refused by
  // the default/HMAC one.
  EXPECT_NO_THROW(
      core::EncryptedBidTable::deserialize(paillier_wire, 1, paillier));
  try {
    core::EncryptedBidTable::deserialize(paillier_wire);
    FAIL() << "Paillier image must not restore under the HMAC backend";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
}

TEST(SnapshotInterop, WireSessionRejectsForeignSnapshot) {
  const World w = make_world(6, 2, 31);
  auto session_snapshot = [&](crypto::BidBackendId backend) {
    core::LppaConfig cfg = make_config(2, backend);
    core::TrustedThirdParty ttp(cfg.bid, kTtpSeed, cfg.charging_rule);
    cfg.backend = &ttp.bid_backend();
    proto::AuctioneerSession session(cfg, w.locations.size());
    Rng boot(kRoundSeed);
    Rng su_master = boot.fork();
    for (std::size_t i = 0; i < w.locations.size(); ++i) {
      Rng r = su_master.fork();
      const proto::SuClient client(i, cfg, ttp.su_keys());
      EXPECT_EQ(session.try_ingest(client.location_envelope(w.locations[i], r)),
                proto::AuctioneerSession::IngestResult::kAccepted);
      EXPECT_EQ(session.try_ingest(client.bid_envelope(w.bids[i], r)),
                proto::AuctioneerSession::IngestResult::kAccepted);
    }
    proto::RoundReport report;
    session.finalize_participants(report);
    Rng master(kRoundSeed);
    (void)master.fork();
    session.run_allocation(master);
    return session.snapshot();
  };

  const Bytes paillier_snap =
      session_snapshot(crypto::BidBackendId::kPaillier);
  core::LppaConfig hmac_cfg = make_config(2);
  proto::AuctioneerSession hmac_session(hmac_cfg, w.locations.size());
  try {
    hmac_session.restore_from(paillier_snap);
    FAIL() << "Paillier session snapshot must not restore into an HMAC "
              "session";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
}

// ---------------------------------------------------------------------------
// 5. Paillier wire session: full round, snapshot round-trip, and the
//    restored session finishing the charges.
// ---------------------------------------------------------------------------

TEST(PaillierSession, FullRoundAndSnapshotRoundTrip) {
  const World w = make_world(8, 3, 21);
  for (const auto rule :
       {core::ChargingRule::kFirstPrice, core::ChargingRule::kSecondPrice}) {
    core::LppaConfig cfg = make_config(3, crypto::BidBackendId::kPaillier);
    cfg.charging_rule = rule;
    core::TrustedThirdParty ttp(cfg.bid, kTtpSeed, rule);
    cfg.backend = &ttp.bid_backend();

    proto::AuctioneerSession session(cfg, w.locations.size());
    Rng boot(kRoundSeed);
    Rng su_master = boot.fork();
    for (std::size_t i = 0; i < w.locations.size(); ++i) {
      Rng r = su_master.fork();
      const proto::SuClient client(i, cfg, ttp.su_keys());
      EXPECT_EQ(session.try_ingest(client.location_envelope(w.locations[i], r)),
                proto::AuctioneerSession::IngestResult::kAccepted);
      EXPECT_EQ(session.try_ingest(client.bid_envelope(w.bids[i], r)),
                proto::AuctioneerSession::IngestResult::kAccepted);
    }
    proto::RoundReport report;
    session.finalize_participants(report);
    Rng master(kRoundSeed);
    (void)master.fork();
    session.run_allocation(master);
    proto::TtpService svc(ttp);
    for (const Bytes& q : session.charge_query_envelopes()) {
      session.ingest_charge_results(svc.handle(q));
    }
    ASSERT_TRUE(session.charging_complete());
    const Bytes snap = session.snapshot();
    const Bytes ann = session.winner_announcement();

    for (const auto& a : session.awards()) {
      if (!a.valid) continue;
      EXPECT_LE(a.charge, w.bids[a.user][a.channel]);
    }

    // Restore into a fresh session and finish charging there.
    proto::AuctioneerSession restored(cfg, w.locations.size());
    restored.restore_from(snap);
    EXPECT_EQ(restored.snapshot(), snap);
    proto::TtpService svc2(ttp);
    for (const Bytes& q : restored.charge_query_envelopes()) {
      restored.ingest_charge_results(svc2.handle(q));
    }
    EXPECT_EQ(restored.winner_announcement(), ann);
  }
}

// ---------------------------------------------------------------------------
// 6. Homomorphic-property and oracle sweeps on the TTP-held key.
// ---------------------------------------------------------------------------

TEST(PaillierOracle, ComparisonSweepMatchesPlaintextOrder) {
  core::PpbsBidConfig bid = core::PpbsBidConfig::advanced(
      15, 3, 4, core::ZeroDisguisePolicy::none(15));
  bid.backend = crypto::BidBackendId::kPaillier;
  core::TrustedThirdParty ttp(bid, kTtpSeed);
  const auto* oracle = ttp.paillier_oracle();
  ASSERT_NE(oracle, nullptr);
  const auto& pub = oracle->pub();
  const std::uint64_t smax = bid.enc.scaled_max();
  ASSERT_GT(pub.n, 128 * smax) << "oracle exactness bound";

  Rng rng(555);
  const std::size_t before = oracle->compares();
  std::size_t queried = 0;
  for (std::uint64_t a = 0; a <= smax; a += 3) {
    for (std::uint64_t b = 0; b <= smax; b += 5) {
      const std::uint64_t ct_a = pub.encrypt(a, rng);
      const std::uint64_t ct_b = pub.encrypt(b, rng);
      EXPECT_EQ(oracle->ge(ct_a, ct_b), a >= b) << a << " vs " << b;
      ++queried;
    }
  }
  EXPECT_EQ(oracle->compares(), before + queried);
}

TEST(PaillierOracle, HomomorphismsHoldOnOracleDecrypts) {
  core::PpbsBidConfig bid = core::PpbsBidConfig::advanced(
      15, 3, 4, core::ZeroDisguisePolicy::none(15));
  bid.backend = crypto::BidBackendId::kPaillier;
  core::TrustedThirdParty ttp(bid, kTtpSeed);
  const auto* oracle = ttp.paillier_oracle();
  ASSERT_NE(oracle, nullptr);
  const auto& pub = oracle->pub();

  Rng rng(777);
  const std::size_t before = oracle->decrypts();
  std::size_t decrypted = 0;
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t a = rng.below(pub.n);
    const std::uint64_t b = rng.below(pub.n);
    const std::uint64_t k = rng.below(1000);
    EXPECT_EQ(oracle->decrypt(pub.add(pub.encrypt(a, rng),
                                      pub.encrypt(b, rng))),
              (a + b) % pub.n);
    EXPECT_EQ(oracle->decrypt(pub.scale(pub.encrypt(a, rng), k)),
              static_cast<std::uint64_t>(
                  (static_cast<__uint128_t>(a) * k) % pub.n));
    decrypted += 2;
  }
  EXPECT_EQ(oracle->decrypts(), before + decrypted);
}

// ---------------------------------------------------------------------------
// 7. Validator: the Paillier cell-shape checks are typed and named.
// ---------------------------------------------------------------------------

TEST(PaillierValidator, RejectsHmacShapedCellsAndDegenerateCiphertexts) {
  core::LppaConfig cfg = make_config(2, crypto::BidBackendId::kPaillier);
  core::TrustedThirdParty ttp(cfg.bid, kTtpSeed);
  cfg.backend = &ttp.bid_backend();
  const core::SubmissionValidator validator(cfg);

  // An honest Paillier submission passes.
  auto subs = make_submissions(ttp, 1, 2, 3);
  EXPECT_EQ(validator.validate_bid(subs[0]), std::nullopt);

  // A cell carrying HMAC prefix digests under the Paillier config is a
  // backend mismatch.
  core::PpbsBidConfig hmac_bid = cfg.bid;
  hmac_bid.backend = crypto::BidBackendId::kHmacPrefix;
  core::TrustedThirdParty hmac_ttp(hmac_bid, kTtpSeed);
  const auto hmac_subs = make_submissions(hmac_ttp, 1, 2, 3);
  const auto mismatch = validator.validate_bid(hmac_subs[0]);
  ASSERT_TRUE(mismatch.has_value());
  EXPECT_NE(mismatch->find("backend mismatch"), std::string::npos)
      << *mismatch;

  // A zero ciphertext is outside Z*_{n^2}.
  auto degenerate = subs[0];
  degenerate.channels[0].paillier_ct = 0;
  const auto zero_ct = validator.validate_bid(degenerate);
  ASSERT_TRUE(zero_ct.has_value());
  EXPECT_NE(zero_ct->find("Z*_{n^2}"), std::string::npos) << *zero_ct;
}

}  // namespace
}  // namespace lppa
