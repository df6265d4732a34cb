#include "core/encrypted_bid_table.h"

#include <gtest/gtest.h>

#include <bit>
#include <numeric>
#include <set>

#include "auction/bid_matrix.h"
#include "core/lppa_auction.h"
#include "counting_backend.h"
#include "crypto/sealed_box.h"
#include "oracles.h"

namespace lppa::core {
namespace {

struct EncryptedTableTest : ::testing::Test {
  Rng rng{31337};
  crypto::SecretKey gb = crypto::SecretKey::generate(rng);
  crypto::SecretKey gc = crypto::SecretKey::generate(rng);
  PpbsBidConfig cfg = PpbsBidConfig::advanced(15, 3, 4,
                                              ZeroDisguisePolicy::none(15));
  BidSubmitter submitter{cfg, gb, gc};

  std::vector<BidSubmission> make(const std::vector<auction::BidVector>& bids) {
    std::vector<BidSubmission> subs;
    for (const auto& bv : bids) subs.push_back(submitter.submit(bv, rng));
    return subs;
  }
};

TEST_F(EncryptedTableTest, ShapeValidation) {
  const auto subs = make({{1, 2}, {3, 4}});
  EXPECT_NO_THROW(EncryptedBidTable(subs, 2));
  EXPECT_THROW(EncryptedBidTable(subs, 3), LppaError);
  const std::vector<BidSubmission> empty;
  EXPECT_THROW(EncryptedBidTable(empty, 2), LppaError);
}

TEST_F(EncryptedTableTest, ArgmaxMatchesPlaintext) {
  const std::vector<auction::BidVector> bids = {
      {5, 0, 9}, {7, 2, 9}, {1, 8, 0}};
  const auto subs = make(bids);
  EncryptedBidTable table(subs, 3);
  EXPECT_EQ(table.argmax_in_column(0), auction::UserId{1});
  EXPECT_EQ(table.argmax_in_column(1), auction::UserId{2});
}

TEST_F(EncryptedTableTest, RemoveSemanticsMatchBidMatrix) {
  const std::vector<auction::BidVector> bids = {{5, 1}, {9, 2}, {3, 8}};
  const auto subs = make(bids);
  EncryptedBidTable table(subs, 2);
  table.remove(1, 0);
  EXPECT_FALSE(table.has(1, 0));
  EXPECT_TRUE(table.has(1, 1));
  EXPECT_EQ(table.argmax_in_column(0), auction::UserId{0});
  table.remove_user(0);
  EXPECT_EQ(table.argmax_in_column(0), auction::UserId{2});
  EXPECT_FALSE(table.empty());
  table.remove_user(1);
  table.remove_user(2);
  EXPECT_TRUE(table.empty());
}

TEST_F(EncryptedTableTest, EmptyColumnReturnsNullopt) {
  const auto subs = make({{4}});
  EncryptedBidTable table(subs, 1);
  table.remove(0, 0);
  EXPECT_EQ(table.argmax_in_column(0), std::nullopt);
}

TEST_F(EncryptedTableTest, EntryAccessorReturnsSubmission) {
  const auto subs = make({{4, 6}});
  EncryptedBidTable table(subs, 2);
  EXPECT_EQ(&table.entry(0, 1), &subs[0].channels[1]);
  EXPECT_THROW(table.entry(1, 0), LppaError);
  EXPECT_THROW(table.entry(0, 2), LppaError);
}

TEST_F(EncryptedTableTest, FullAllocationParityWithPlaintext) {
  // The same allocation randomness over (a) true bids in a BidMatrix and
  // (b) masked bids in an EncryptedBidTable must award identically when
  // no zero-disguise is active, because the masked encoding is
  // order-preserving within each column.
  // Ties would let the two tables pick different (equally-priced) winners
  // whose conflict neighbourhoods differ, so give every column distinct
  // bids: then the award sequences must agree exactly.
  Rng world(7);
  for (int round = 0; round < 10; ++round) {
    std::vector<auction::SuLocation> locs;
    const std::size_t n = 12, k = 4;
    std::vector<auction::BidVector> bids(n, auction::BidVector(k));
    for (std::size_t r = 0; r < k; ++r) {
      std::vector<auction::Money> column(n);
      for (std::size_t u = 0; u < n; ++u) column[u] = u;  // distinct 0..n-1
      world.shuffle(column);
      for (std::size_t u = 0; u < n; ++u) bids[u][r] = column[u];
    }
    for (std::size_t i = 0; i < n; ++i) {
      locs.push_back({world.below(400), world.below(400)});
    }
    const auto g = auction::ConflictGraph::from_locations(locs, 60);

    auction::BidMatrix plain(bids, k);
    Rng rng_plain(round + 100);
    const auto plain_awards = auction::greedy_allocate(plain, g, rng_plain);

    const auto subs = make(bids);
    EncryptedBidTable masked(subs, k);
    Rng rng_masked(round + 100);
    const auto masked_awards = auction::greedy_allocate(masked, g, rng_masked);

    EXPECT_EQ(plain_awards, masked_awards) << "round " << round;
  }
}

TEST_F(EncryptedTableTest, SerializeRestoreRoundTripsByteIdentically) {
  // Property sweep over random scenarios: any mid-allocation table state
  // (varying population, channel count, padding level, and a random set
  // of consumed cells) must serialize -> deserialize -> serialize into
  // byte-identical images, with the restored table answering every query
  // like the original — including the O(1) empty() via the live counter.
  Rng sweep(2024);
  for (int scenario = 0; scenario < 12; ++scenario) {
    const std::size_t n = 1 + sweep.below(7);
    const std::size_t k = 1 + sweep.below(5);
    // Vary the padding parameters so the submission wire sizes differ
    // across scenarios (rd in [1,4], cr in [k, k+4]).
    const PpbsBidConfig scenario_cfg = PpbsBidConfig::advanced(
        15, 1 + sweep.below(4), k + sweep.below(5),
        ZeroDisguisePolicy::none(15));
    BidSubmitter scenario_submitter{scenario_cfg, gb, gc};
    std::vector<BidSubmission> subs;
    for (std::size_t u = 0; u < n; ++u) {
      auction::BidVector bv(k);
      for (auto& b : bv) b = sweep.below(16);
      subs.push_back(scenario_submitter.submit(bv, sweep));
    }

    EncryptedBidTable table(subs, k);
    const std::size_t removals = sweep.below(n * k + 1);
    for (std::size_t i = 0; i < removals; ++i) {
      table.remove(sweep.below(n), sweep.below(k));
    }
    if (sweep.bernoulli(0.3)) table.remove_user(sweep.below(n));

    const Bytes image = table.serialize();
    const EncryptedBidTable restored = EncryptedBidTable::deserialize(image);
    EXPECT_EQ(restored.serialize(), image) << "scenario " << scenario;
    EXPECT_EQ(restored.num_users(), n);
    EXPECT_EQ(restored.num_channels(), k);
    EXPECT_EQ(restored.empty(), table.empty()) << "scenario " << scenario;
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t r = 0; r < k; ++r) {
        ASSERT_EQ(restored.has(u, r), table.has(u, r))
            << "scenario " << scenario << " cell " << u << "," << r;
      }
    }
    for (std::size_t r = 0; r < k; ++r) {
      EXPECT_EQ(restored.argmax_in_column(r), table.argmax_in_column(r))
          << "scenario " << scenario << " column " << r;
    }

    // Draining the restored copy keeps the live counter consistent all
    // the way to empty() — the property that guards the allocation loop.
    EncryptedBidTable drained = EncryptedBidTable::deserialize(image);
    for (std::size_t u = 0; u < n; ++u) drained.remove_user(u);
    EXPECT_TRUE(drained.empty()) << "scenario " << scenario;
  }
}

TEST_F(EncryptedTableTest, RemoveUserRestoreDifferentialUnderBothStrategies) {
  // Churn removal-path audit: random interleavings of remove /
  // remove_user / argmax (cursor advancement) / insert_user
  // (re-activation with cursor pull-back), then serialize -> restore into
  // the sorted table and the tournament-scan oracle (tests/oracles.h).
  // Four tables — live sorted, live scan, restored sorted, restored scan
  // — must agree with each other AND with the plaintext oracle on every
  // query, and the bitmap / live counter / image must match cell-for-cell
  // and byte-for-byte throughout.
  Rng sweep(4477);
  for (int scenario = 0; scenario < 10; ++scenario) {
    const std::size_t n = 2 + sweep.below(6);
    const std::size_t k = 1 + sweep.below(4);
    std::vector<auction::BidVector> bids(n);
    std::vector<BidSubmission> subs;
    for (std::size_t u = 0; u < n; ++u) {
      bids[u].assign(k, 0);
      for (auto& b : bids[u]) b = sweep.below(16);
      subs.push_back(submitter.submit(bids[u], sweep));
    }

    EncryptedBidTable sorted(subs, k);
    oracles::TournamentScanTable scan(subs, k);
    std::vector<std::vector<bool>> present(n, std::vector<bool>(k, true));

    // Equal plaintext bids compare in an arbitrary (deterministic)
    // order in the masked domain, so the oracle checks the winner's
    // VALUE, not its identity — winner identity is pinned separately by
    // the four-way agreement between live/restored × sorted/scan.
    const auto oracle_max = [&](std::size_t r) -> std::optional<long> {
      std::optional<long> best;
      for (std::size_t u = 0; u < n; ++u) {
        if (present[u][r] && (!best || bids[u][r] > *best)) best = bids[u][r];
      }
      return best;
    };
    const auto check_all = [&](const auto& t, const char* label) {
      std::size_t live = 0;
      for (std::size_t u = 0; u < n; ++u) {
        for (std::size_t r = 0; r < k; ++r) {
          ASSERT_EQ(t.has(u, r), static_cast<bool>(present[u][r]))
              << label << " scenario " << scenario << " cell " << u << ","
              << r;
          live += present[u][r] ? 1 : 0;
        }
      }
      ASSERT_EQ(t.live_cells(), live) << label << " scenario " << scenario;
      ASSERT_EQ(t.empty(), live == 0) << label << " scenario " << scenario;
      for (std::size_t r = 0; r < k; ++r) {
        const auto winner = t.argmax_in_column(r);
        const auto best = oracle_max(r);
        ASSERT_EQ(winner.has_value(), best.has_value())
            << label << " scenario " << scenario << " column " << r;
        if (winner) {
          ASSERT_TRUE(present[*winner][r])
              << label << " scenario " << scenario << " column " << r
              << " crowned a tombstoned cell";
          ASSERT_EQ(static_cast<long>(bids[*winner][r]), *best)
              << label << " scenario " << scenario << " column " << r;
        }
      }
    };

    const std::size_t ops = 4 + sweep.below(3 * n);
    for (std::size_t i = 0; i < ops; ++i) {
      const std::size_t u = sweep.below(n);
      switch (sweep.below(4)) {
        case 0: {
          const std::size_t r = sweep.below(k);
          if (sorted.has(u, r)) {
            sorted.remove(u, r);
            scan.remove(u, r);
            present[u][r] = false;
          }
          break;
        }
        case 1:
          sorted.remove_user(u);
          scan.remove_user(u);
          for (std::size_t r = 0; r < k; ++r) present[u][r] = false;
          break;
        case 2: {
          // Advance the sorted cursors so serialization happens with
          // memoised heads mid-column (they must not leak into the
          // image or the restored answers).
          const std::size_t r = sweep.below(k);
          ASSERT_EQ(sorted.argmax_in_column(r), scan.argmax_in_column(r));
          break;
        }
        case 3: {
          // Re-activate a fully tombstoned row (the churn arrival path).
          bool any = false;
          for (std::size_t r = 0; r < k; ++r) any = any || present[u][r];
          if (!any) {
            sorted.insert_user(u);
            scan.insert_user(u);
            for (std::size_t r = 0; r < k; ++r) present[u][r] = true;
          }
          break;
        }
      }
    }

    check_all(sorted, "live sorted");
    check_all(scan, "live scan");
    const Bytes image = sorted.serialize();
    ASSERT_EQ(scan.serialize(), image)
        << "strategies disagree on the wire image, scenario " << scenario;
    const EncryptedBidTable restored_sorted =
        EncryptedBidTable::deserialize(image);
    const auto restored_scan = oracles::TournamentScanTable::deserialize(image);
    ASSERT_EQ(restored_sorted.serialize(), image);
    ASSERT_EQ(restored_scan.serialize(), image);
    check_all(restored_sorted, "restored sorted");
    check_all(restored_scan, "restored scan");
    for (std::size_t r = 0; r < k; ++r) {
      const auto winner = sorted.argmax_in_column(r);
      ASSERT_EQ(scan.argmax_in_column(r), winner)
          << "scenario " << scenario << " column " << r;
      ASSERT_EQ(restored_sorted.argmax_in_column(r), winner)
          << "scenario " << scenario << " column " << r;
      ASSERT_EQ(restored_scan.argmax_in_column(r), winner)
          << "scenario " << scenario << " column " << r;
    }
  }
}

TEST_F(EncryptedTableTest, SortedAndScanStrategiesAgreeOnEveryQuery) {
  // The sorted-column index is a pure acceleration structure: for any
  // submission set and any interleaving of removals, every
  // argmax_in_column answer must match the seed tournament scan
  // (tests/oracles.h) bit-for-bit (ties included — the sort is stable on
  // user id, which is exactly the scan's first-seen-wins rule).
  Rng sweep(4242);
  for (int scenario = 0; scenario < 15; ++scenario) {
    const std::size_t n = 2 + sweep.below(10);
    const std::size_t k = 1 + sweep.below(4);
    std::vector<auction::BidVector> bids(n, auction::BidVector(k));
    for (auto& bv : bids) {
      // below(4) forces heavy ties; below(16) gives near-distinct columns.
      const auction::Money hi = sweep.bernoulli(0.5) ? 4 : 16;
      for (auto& b : bv) b = sweep.below(hi);
    }
    const auto subs = make(bids);
    EncryptedBidTable sorted(subs, k);
    oracles::TournamentScanTable scan(subs, k);
    for (int step = 0; step < 40 && !sorted.empty(); ++step) {
      const std::size_t r = sweep.below(k);
      ASSERT_EQ(sorted.argmax_in_column(r), scan.argmax_in_column(r))
          << "scenario " << scenario << " step " << step << " column " << r;
      if (sweep.bernoulli(0.5)) {
        const std::size_t u = sweep.below(n);
        sorted.remove_user(u);
        scan.remove_user(u);
      } else {
        const std::size_t u = sweep.below(n);
        sorted.remove(u, r);
        scan.remove(u, r);
      }
    }
    EXPECT_EQ(sorted.empty(), scan.empty()) << "scenario " << scenario;
  }
}

TEST_F(EncryptedTableTest, SortedStrategyAllocationStreamMatchesScan) {
  // End-to-end differential over the greedy allocator: the full award
  // stream (winner order, channels, prices) must be identical on the
  // sorted table and the scan oracle for the same channel-draw
  // randomness.
  Rng world(99);
  for (int round = 0; round < 8; ++round) {
    const std::size_t n = 10, k = 3;
    std::vector<auction::SuLocation> locs;
    std::vector<auction::BidVector> bids(n, auction::BidVector(k));
    for (auto& bv : bids) {
      for (auto& b : bv) b = world.below(15);
    }
    for (std::size_t i = 0; i < n; ++i) {
      locs.push_back({world.below(300), world.below(300)});
    }
    const auto g = auction::ConflictGraph::from_locations(locs, 70);
    const auto subs = make(bids);

    EncryptedBidTable sorted(subs, k);
    Rng rng_sorted(round + 500);
    const auto sorted_awards = auction::greedy_allocate(sorted, g, rng_sorted);

    oracles::TournamentScanTable scan(subs, k);
    Rng rng_scan(round + 500);
    const auto scan_awards = auction::greedy_allocate(scan, g, rng_scan);

    EXPECT_EQ(sorted_awards, scan_awards) << "round " << round;
  }
}

TEST_F(EncryptedTableTest, MidAllocationSnapshotRestoresIdenticallyUnderBothStrategies) {
  // The PR 3 recovery path serializes a partially-consumed table and
  // resumes allocation after restart.  A snapshot taken mid-allocation
  // must restore into a sorted table whose remaining allocation stream
  // is identical to the scan oracle's restored from the same image — the
  // sorted index must rebuild around the already-consumed cells.
  Rng world(321);
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 9, k = 3;
    std::vector<auction::SuLocation> locs;
    std::vector<auction::BidVector> bids(n, auction::BidVector(k));
    for (auto& bv : bids) {
      for (auto& b : bv) b = world.below(15);
    }
    for (std::size_t i = 0; i < n; ++i) {
      locs.push_back({world.below(300), world.below(300)});
    }
    const auto g = auction::ConflictGraph::from_locations(locs, 70);
    const auto subs = make(bids);

    // Consume a prefix of the allocation by hand: pop some winners the
    // way greedy_allocate would (remove the winner row and one random
    // conflicting neighbour's cell), then snapshot.
    EncryptedBidTable live(subs, k);
    const std::size_t consumed = 1 + world.below(4);
    for (std::size_t i = 0; i < consumed && !live.empty(); ++i) {
      const std::size_t r = world.below(k);
      const auto winner = live.argmax_in_column(r);
      if (!winner) continue;
      live.remove_user(*winner);
      live.remove(world.below(n), world.below(k));
    }
    const Bytes image = live.serialize();

    EncryptedBidTable restored_sorted = EncryptedBidTable::deserialize(image);
    auto restored_scan = oracles::TournamentScanTable::deserialize(image);

    Rng rng_a(round + 900);
    Rng rng_b(round + 900);
    const auto awards_sorted =
        auction::greedy_allocate(restored_sorted, g, rng_a);
    const auto awards_scan = auction::greedy_allocate(restored_scan, g, rng_b);
    EXPECT_EQ(awards_sorted, awards_scan) << "round " << round;
  }
}

TEST_F(EncryptedTableTest, FullRoundOutcomeIdenticalAcrossStrategies) {
  // Highest-level differential: a complete LppaAuction round (submission,
  // conflict graph, allocation, TTP charging) must publish the awards AND
  // TTP-validated charges of the oracle round over the same masked
  // submissions (pairwise graph, scan table) — the sorted index may not
  // perturb anything downstream.
  for (int round = 0; round < 3; ++round) {
    const std::size_t n = 14, k = 3;
    Rng world(round + 77);
    std::vector<auction::SuLocation> locs;
    std::vector<auction::BidVector> bids(n, auction::BidVector(k));
    for (auto& bv : bids) {
      for (auto& b : bv) b = world.below(15);
    }
    for (std::size_t i = 0; i < n; ++i) {
      locs.push_back({world.below(1000), world.below(1000)});
    }

    core::LppaConfig cfg;
    cfg.num_channels = k;
    cfg.lambda = 100;
    cfg.coord_width = 12;
    cfg.bid = PpbsBidConfig::advanced(15, 3, 4, ZeroDisguisePolicy::none(15));

    core::LppaAuction auction_sorted(cfg, /*ttp_seed=*/round + 1);
    Rng rng_sorted(round + 5000);
    const auto out_sorted = auction_sorted.run(locs, bids, rng_sorted);

    core::LppaAuction auction_scan(cfg, /*ttp_seed=*/round + 1);
    const auto out_scan = oracles::reference_round(auction_scan,
                                                   out_sorted.view,
                                                   Rng(round + 5000));

    EXPECT_EQ(out_sorted.outcome.awards, out_scan.awards) << "round " << round;
    EXPECT_EQ(out_sorted.view.awards, out_scan.awards) << "round " << round;
    EXPECT_EQ(out_sorted.manipulations_detected,
              out_scan.manipulations_detected)
        << "round " << round;
  }
}

TEST_F(EncryptedTableTest, ParallelSortMatchesSerialSort) {
  // The column sort fans out across the ThreadPool when sort_threads > 1;
  // each column is sorted by exactly one worker, so the resulting order
  // (and hence every argmax answer) must be independent of thread count.
  const std::size_t n = 24, k = 6;
  Rng world(55);
  std::vector<auction::BidVector> bids(n, auction::BidVector(k));
  for (auto& bv : bids) {
    for (auto& b : bv) b = world.below(8);  // plenty of ties
  }
  const auto subs = make(bids);
  EncryptedBidTable serial(subs, k, ArgmaxStrategy::kSortedColumns, 1);
  EncryptedBidTable threaded(subs, k, ArgmaxStrategy::kSortedColumns, 4);
  for (std::size_t r = 0; r < k; ++r) {
    EXPECT_EQ(serial.argmax_in_column(r), threaded.argmax_in_column(r)) << r;
  }
  for (std::size_t u = 0; u < n; u += 2) {
    serial.remove_user(u);
    threaded.remove_user(u);
    for (std::size_t r = 0; r < k; ++r) {
      ASSERT_EQ(serial.argmax_in_column(r), threaded.argmax_in_column(r))
          << "after removing user " << u << " column " << r;
    }
  }
}

TEST_F(EncryptedTableTest, DeserializeRejectsDamagedImages) {
  const auto subs = make({{5, 1}, {9, 2}});
  EncryptedBidTable table(subs, 2);
  table.remove(0, 1);
  const Bytes image = table.serialize();

  // Truncation, garbage padding bits, and a lying live counter are all
  // typed protocol errors (the live counter is cross-checked against the
  // bitmap — trusting either side alone could stall the allocator).
  for (const std::size_t len : {std::size_t{0}, std::size_t{4},
                                image.size() - 1}) {
    try {
      EncryptedBidTable::deserialize(
          std::span<const std::uint8_t>(image.data(), len));
      FAIL() << "truncation at " << len << " accepted";
    } catch (const LppaError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
    }
  }
  Bytes lying_live = image;
  // The u64 live counter sits 9 bytes before the end (8 counter bytes +
  // one packed-bitmap byte for the 4 cells).
  lying_live[lying_live.size() - 9] ^= 1;
  try {
    EncryptedBidTable::deserialize(lying_live);
    FAIL() << "live-counter mismatch accepted";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
  Bytes garbage_padding = image;
  garbage_padding.back() |= 0xF0;  // bits past the 4 real cells
  try {
    EncryptedBidTable::deserialize(garbage_padding);
    FAIL() << "garbage padding bits accepted";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
}

TEST_F(EncryptedTableTest, SerializeImageMatchesMemberSerialize) {
  const std::vector<auction::BidVector> bids = {{5, 1}, {9, 2}, {3, 8}};
  const auto subs = make(bids);
  EncryptedBidTable table(subs, 2);
  table.remove(0, 1);
  std::vector<bool> present = {true, false, true, true, true, true};
  EXPECT_EQ(EncryptedBidTable::serialize_image(subs, 2, present, 5),
            table.serialize());
  // Dimension mismatch between bitmap and submissions is rejected.
  EXPECT_THROW(EncryptedBidTable::serialize_image(subs, 2, {true}, 1),
               LppaError);
}

/// Every column's full order, read by popping argmax and removing the
/// winner until the column is empty (on a copy: the table is consumed).
template <typename Table>
std::vector<std::vector<auction::UserId>> drain_columns(Table table) {
  std::vector<std::vector<auction::UserId>> columns(table.num_channels());
  for (std::size_t r = 0; r < table.num_channels(); ++r) {
    while (const auto top = table.argmax_in_column(r)) {
      columns[r].push_back(*top);
      table.remove(*top, r);
    }
  }
  return columns;
}

TEST_F(EncryptedTableTest, InsertUserSpendsLogarithmicMaskedCompares) {
  // The splice is a binary search: at most ⌈log₂ n⌉ + 1 probes per
  // column, each at most two masked tests.  A counting backend measures
  // the tests actually issued and reconciles them with insert_user's own
  // count; a drain of every column checks the slot it picked is the one
  // a rebuild's stable sort gives.
  constexpr std::size_t kChannels = 3;
  const testing_support::CountingBackend counting(crypto::hmac_backend());
  Rng sweep(6021);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                              std::size_t{64}, std::size_t{300}}) {
    const auto random_bids = [&] {
      auction::BidVector bv(kChannels);
      for (auto& b : bv) b = sweep.below(16);
      return bv;
    };
    std::vector<BidSubmission> subs;
    for (std::size_t u = 0; u < n; ++u) {
      subs.push_back(submitter.submit(random_bids(), sweep));
    }
    EncryptedBidTable table(subs, kChannels, ArgmaxStrategy::kSortedColumns,
                            /*sort_threads=*/1, &counting);
    const std::size_t ceil_log2 = n <= 1 ? 0 : std::bit_width(n - 1);
    const std::size_t budget = 2 * kChannels * (ceil_log2 + 1);
    for (int event = 0; event < 12; ++event) {
      const std::size_t u = sweep.below(n);
      table.remove_user(u);
      subs[u] = submitter.submit(random_bids(), sweep);
      const std::size_t before = counting.ges();
      const std::size_t spent = table.insert_user(u);
      ASSERT_EQ(counting.ges() - before, spent) << "n=" << n;
      ASSERT_LE(spent, budget) << "n=" << n << " event " << event;
      const EncryptedBidTable rebuilt(subs, kChannels);
      ASSERT_EQ(drain_columns(table), drain_columns(rebuilt))
          << "n=" << n << " event " << event;
    }
  }
}

// --- Class-memoised column sort vs. the per-pair reference ----------------

/// The per-pair column sort: a bottom-up stable merge over `items`
/// (global ids) with one masked test per comparison.  This is the order
/// the memoised build must reproduce permutation for permutation — on
/// inconsistent (Byzantine) columns too, which is why it repeats the
/// table's merge schedule instead of calling std::stable_sort.
/// `tests`, when set, counts the comparisons.
std::vector<std::uint32_t> per_pair_order(
    const std::vector<BidSubmission>& subs, std::size_t r,
    std::vector<std::uint32_t> items, std::size_t* tests = nullptr) {
  const auto greater = [&](std::uint32_t u, std::uint32_t v) {
    if (tests != nullptr) ++*tests;
    return !crypto::hmac_backend().ge(subs[v].channels[r], subs[u].channels[r]);
  };
  const std::size_t n = items.size();
  std::vector<std::uint32_t> buf(n);
  for (std::size_t width = 1; width < n; width *= 2) {
    for (std::size_t lo = 0; lo + width < n; lo += 2 * width) {
      const std::size_t mid = lo + width, hi = std::min(n, mid + width);
      std::size_t a = lo, b = mid, o = lo;
      while (a < mid && b < hi) {
        buf[o++] = greater(items[b], items[a]) ? items[b++] : items[a++];
      }
      while (a < mid) buf[o++] = items[a++];
      while (b < hi) buf[o++] = items[b++];
      std::copy(buf.begin() + static_cast<std::ptrdiff_t>(lo),
                buf.begin() + static_cast<std::ptrdiff_t>(hi),
                items.begin() + static_cast<std::ptrdiff_t>(lo));
    }
  }
  return items;
}

/// A bid table answering argmax from per-pair reference orders, one per
/// column: the first still-present entry wins.
class PerPairTable final : public auction::BidTableView {
 public:
  PerPairTable(const std::vector<BidSubmission>& subs, std::size_t channels)
      : subs_(subs),
        channels_(channels),
        present_(subs.size() * channels, true),
        live_(subs.size() * channels) {
    std::vector<std::uint32_t> users(subs.size());
    std::iota(users.begin(), users.end(), 0u);
    for (std::size_t r = 0; r < channels; ++r) {
      orders_.push_back(per_pair_order(subs, r, users));
    }
  }

  std::size_t num_users() const noexcept override { return subs_.size(); }
  std::size_t num_channels() const noexcept override { return channels_; }
  bool has(UserId u, ChannelId r) const override {
    return present_[u * channels_ + r];
  }
  void remove(UserId u, ChannelId r) override {
    if (present_[u * channels_ + r]) {
      present_[u * channels_ + r] = false;
      --live_;
    }
  }
  void remove_user(UserId u) override {
    for (std::size_t r = 0; r < channels_; ++r) remove(u, r);
  }
  std::optional<UserId> argmax_in_column(ChannelId r) const override {
    const auto& ord = orders_[r];
    const auto top = std::find_if(ord.begin(), ord.end(), [&](auto u) {
      return present_[u * channels_ + r];
    });
    if (top == ord.end()) return std::nullopt;
    return UserId{*top};
  }
  bool empty() const noexcept override { return live_ == 0; }

  Bytes image() const {
    return EncryptedBidTable::serialize_image(subs_, channels_, present_,
                                              live_);
  }

 private:
  const std::vector<BidSubmission>& subs_;
  std::size_t channels_;
  /// orders_[r]: every user id, per-pair sorted.
  std::vector<std::vector<std::uint32_t>> orders_;
  std::vector<bool> present_;
  std::size_t live_;
};

/// Builds the production table over `subs` for threads {1, 4} and checks
/// the drained column orders, the awards of a full allocation and the
/// serialized image after it against the per-pair reference.
void expect_matches_per_pair(const std::vector<BidSubmission>& subs,
                             std::size_t k) {
  const std::size_t n = subs.size();
  // A sparse ring of conflicts, so allocation removes neighbour cells as
  // well as winner rows.
  auction::ConflictGraph graph(n);
  for (std::size_t u = 0; u + 3 < n; u += 2) graph.add_conflict(u, u + 3);
  PerPairTable reference(subs, k);
  const auto orders = drain_columns(reference);
  Rng ref_rng(7);
  const auto awards = auction::greedy_allocate(reference, graph, ref_rng);
  const Bytes image = reference.image();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Rng rng(7);
    EncryptedBidTable table(subs, k, ArgmaxStrategy::kSortedColumns,
                            threads);
    ASSERT_EQ(drain_columns(table), orders);
    EXPECT_EQ(auction::greedy_allocate(table, graph, rng), awards);
    EXPECT_EQ(table.serialize(), image);
  }
}

/// n users' submissions under `cfg`, bids uniform in [0, max_bid].
std::vector<BidSubmission> submit_random(const PpbsBidConfig& cfg,
                                         std::size_t n, std::size_t k,
                                         Money max_bid, std::uint64_t seed) {
  Rng rng(seed);
  const BidSubmitter submitter(cfg, crypto::SecretKey::generate(rng),
                               crypto::SecretKey::generate(rng));
  std::vector<BidSubmission> subs;
  for (std::size_t u = 0; u < n; ++u) {
    auction::BidVector bv(k);
    for (auto& b : bv) b = rng.below(max_bid + 1);
    subs.push_back(submitter.submit(bv, rng));
  }
  return subs;
}

/// g_F · g_R of column r: distinct families (byte-identical digest
/// lists) times distinct range-set traces R ∩ U on the union U of the
/// column's families.
std::size_t class_pairs(const std::vector<BidSubmission>& subs,
                        std::size_t r) {
  using Set = std::vector<crypto::Digest>;
  std::set<Set> families, traces;
  std::set<crypto::Digest> universe;
  for (const auto& s : subs) {
    const auto f = s.channels[r].value_family.digests();
    families.emplace(f.begin(), f.end());
    universe.insert(f.begin(), f.end());
  }
  for (const auto& s : subs) {
    std::set<crypto::Digest> trace;
    for (const auto& d : s.channels[r].range_set.digests()) {
      if (universe.count(d) != 0) trace.insert(d);
    }
    traces.emplace(trace.begin(), trace.end());
  }
  return families.size() * traces.size();
}

/// The masked tests a from-scratch build spends, per column, against the
/// class budget: counted ge == order_tests() ≤ g_F · g_R.  Columns are
/// built one at a time (one-channel copies) so each budget is checked on
/// its own.
void expect_within_class_budget(const std::vector<BidSubmission>& subs,
                                std::size_t k) {
  for (std::size_t r = 0; r < k; ++r) {
    std::vector<BidSubmission> column(subs.size());
    for (std::size_t u = 0; u < subs.size(); ++u) {
      column[u].channels = {subs[u].channels[r]};
    }
    const testing_support::CountingBackend counting(crypto::hmac_backend());
    const EncryptedBidTable table(column, 1, ArgmaxStrategy::kSortedColumns,
                                  1, &counting);
    EXPECT_EQ(counting.ges(), table.order_tests()) << "column " << r;
    EXPECT_LE(counting.ges(), class_pairs(subs, r)) << "column " << r;
  }
}

TEST(EncryptedTableClassMemo, DefaultConfigMatchesPerPairSort) {
  // bmax 15, rd 0, cr 1: at most 16 classes a side, so a column costs at
  // most 256 masked tests whatever n is.
  const auto subs = submit_random(PpbsBidConfig{}, 300, 3, 15, 1401);
  expect_matches_per_pair(subs, 3);
  expect_within_class_budget(subs, 3);
  const testing_support::CountingBackend counting(crypto::hmac_backend());
  const EncryptedBidTable table(subs, 3, ArgmaxStrategy::kSortedColumns, 1,
                                &counting);
  EXPECT_LE(counting.ges(), 3u * 16 * 16);
}

TEST(EncryptedTableClassMemo, AdvancedConfigMatchesPerPairSort) {
  // Offset, range-mapping factor and zero disguise: up to cr·(bmax+rd+1)
  // = 76 scaled values a column.  n = 700 keeps 76² under the per-pair
  // bound n·(⌈log₂ n⌉ + 1), so the memo path runs.
  const auto cfg = PpbsBidConfig::advanced(
      15, 3, 4, ZeroDisguisePolicy::uniform(15, 0.5));
  const auto subs = submit_random(cfg, 700, 2, 15, 1402);
  expect_matches_per_pair(subs, 2);
  expect_within_class_budget(subs, 2);
}

TEST(EncryptedTableClassMemo, TieHeavyColumnsMatchPerPairSort) {
  const auto cfg =
      PpbsBidConfig::advanced(3, 0, 1, ZeroDisguisePolicy::none(3));
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{9},
                              std::size_t{200}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto subs = submit_random(cfg, n, 3, 3, 1403 + n);
    expect_matches_per_pair(subs, 3);
    expect_within_class_budget(subs, 3);
  }
}

TEST(EncryptedTableClassMemo, UnpaddedRangeSetsMatchPerPairSort) {
  PpbsBidConfig cfg;
  cfg.pad_range_sets = false;
  const auto subs = submit_random(cfg, 250, 3, 15, 1404);
  expect_matches_per_pair(subs, 3);
  expect_within_class_budget(subs, 3);
}

TEST(EncryptedTableClassMemo, ByzantineCellsMatchPerPairSort) {
  // Forged cells make the masked relation inconsistent (not a preorder);
  // the memo must still answer exactly what the per-pair test answers,
  // so the merge sort produces the same scrambled permutation.
  constexpr std::size_t k = 3;
  auto subs = submit_random(PpbsBidConfig{}, 240, k, 15, 1405);
  Rng forge(99);
  const auto garbage = [&](std::size_t count) {
    std::vector<crypto::Digest> digests(count);
    for (auto& d : digests) {
      for (auto& byte : d.bytes) {
        byte = static_cast<std::uint8_t>(forge.below(256));
      }
    }
    return prefix::HashedPrefixSet::from_digests(std::move(digests));
  };
  for (std::size_t u = 0; u < subs.size(); u += 5) {
    for (std::size_t r = 0; r < k; ++r) {
      auto& cell = subs[u].channels[r];
      const auto& other = subs[forge.below(subs.size())].channels[r];
      switch ((u / 5 + r) % 5) {
        case 0:  // the family of one value with the range of another
          cell.range_set = other.range_set;
          break;
        case 1: {  // duplicated family digests
          const auto f = cell.value_family.digests();
          std::vector<crypto::Digest> twice(f.begin(), f.end());
          twice.insert(twice.end(), f.begin(), f.end());
          cell.value_family =
              prefix::HashedPrefixSet::from_digests(std::move(twice));
          break;
        }
        case 2:  // empty range set
          cell.range_set = prefix::HashedPrefixSet{};
          break;
        case 3:  // garbage range set
          cell.range_set = garbage(6);
          break;
        default:  // garbage family
          cell.value_family = garbage(5);
          break;
      }
    }
  }
  expect_matches_per_pair(subs, k);
  expect_within_class_budget(subs, k);
}

TEST(EncryptedTableClassMemo, FingerprintTwinCellsSplitClasses) {
  // The build groups cells by hashes of digest fingerprints (the first 8
  // bytes) and finds range digests in the column universe by
  // fingerprint.  Forged "twins" keep every fingerprint of an honest
  // digest and change a later byte, so they land in the same hash
  // buckets; only the ct_equal confirmation splits them into classes of
  // their own.  A merged class would answer with the honest twin's
  // order test and scramble the order against the per-pair reference.
  constexpr std::size_t k = 3;
  auto subs = submit_random(PpbsBidConfig{}, 240, k, 15, 1407);
  std::vector<std::size_t> honest_pairs(k);
  for (std::size_t r = 0; r < k; ++r) honest_pairs[r] = class_pairs(subs, r);
  Rng forge(77);
  const auto twin = [&](crypto::Digest d) {
    d.bytes[8 + forge.below(24)] ^=
        static_cast<std::uint8_t>(1 + forge.below(255));
    return d;
  };
  // Twins every digest of `set`, or only its last one.
  const auto twin_set = [&](const prefix::HashedPrefixSet& set, bool all) {
    std::vector<crypto::Digest> ds(set.digests().begin(),
                                   set.digests().end());
    for (std::size_t i = all ? 0 : ds.size() - 1; i < ds.size(); ++i) {
      ds[i] = twin(ds[i]);
    }
    return prefix::HashedPrefixSet::from_digests(std::move(ds));
  };
  for (std::size_t u = 0; u < subs.size(); u += 4) {
    for (std::size_t r = 0; r < k; ++r) {
      auto& cell = subs[u].channels[r];
      const auto& other = subs[forge.below(subs.size())].channels[r];
      switch ((u / 4 + r) % 4) {
        case 0:  // another user's family, every digest twinned
          cell.value_family = twin_set(other.value_family, true);
          break;
        case 1:  // this user's family with only its leaf twinned
          cell.value_family = twin_set(cell.value_family, false);
          break;
        case 2:  // another user's range set, every digest twinned
          cell.range_set = twin_set(other.range_set, true);
          break;
        default: {  // the range set plus twins of another family
          std::vector<crypto::Digest> ds(cell.range_set.digests().begin(),
                                         cell.range_set.digests().end());
          for (const auto& d : other.value_family.digests()) {
            ds.push_back(twin(d));
          }
          cell.range_set =
              prefix::HashedPrefixSet::from_digests(std::move(ds));
          break;
        }
      }
    }
  }
  for (std::size_t r = 0; r < k; ++r) {
    EXPECT_GT(class_pairs(subs, r), honest_pairs[r]) << "column " << r;
  }
  expect_matches_per_pair(subs, k);
  expect_within_class_budget(subs, k);
}

TEST(EncryptedTableClassMemo, ManyClassesFallBackToPerPairTests) {
  // Column 0 holds 64 distinct scaled values, column 1 holds 48 distinct
  // values plus 16 copies of one more.  Either way g_F · g_R (64², 49²)
  // exceeds n·(⌈log₂ n⌉ + 1) = 448, so the build keeps the per-pair
  // comparator and spends exactly the reference sort's comparisons — on
  // column 1 a memo would have answered the repeated pairs among the
  // copies for free.
  constexpr std::size_t n = 64, k = 2;
  const auto cfg =
      PpbsBidConfig::advanced(255, 0, 1, ZeroDisguisePolicy::none(255));
  Rng rng(1406);
  const BidSubmitter submitter(cfg, crypto::SecretKey::generate(rng),
                               crypto::SecretKey::generate(rng));
  std::vector<auction::BidVector> bids(n, auction::BidVector(k));
  for (std::size_t r = 0; r < k; ++r) {
    std::vector<Money> column(n);
    std::iota(column.begin(), column.end(), Money{100});
    if (r == 1) std::fill(column.begin() + 48, column.end(), Money{7});
    rng.shuffle(column);
    for (std::size_t u = 0; u < n; ++u) bids[u][r] = column[u];
  }
  std::vector<BidSubmission> subs;
  for (const auto& bv : bids) subs.push_back(submitter.submit(bv, rng));
  EXPECT_EQ(class_pairs(subs, 0), 64u * 64);
  EXPECT_EQ(class_pairs(subs, 1), 49u * 49);

  std::size_t reference_tests = 0;
  std::vector<std::uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  for (std::size_t r = 0; r < k; ++r) {
    per_pair_order(subs, r, ids, &reference_tests);
  }
  const testing_support::CountingBackend counting(crypto::hmac_backend());
  const EncryptedBidTable table(subs, k, ArgmaxStrategy::kSortedColumns, 1,
                                &counting);
  EXPECT_EQ(counting.ges(), reference_tests);
  EXPECT_EQ(table.order_tests(), reference_tests);
  expect_matches_per_pair(subs, k);
}

}  // namespace
}  // namespace lppa::core
