// Differential suite for the geo-sharded execution path, the only one the
// auction has: for EVERY shard count (1 included) and thread count, the
// auction must produce conflict graphs, awards, charges, and winner
// announcements byte-identical to the reference implementations in
// tests/oracles.h — the all-pairs graph and the tournament-scan table —
// including under adversarial placements (SUs on tile borders, everyone
// in one tile, tiles narrower than the 2λ halo, grid corners) and across
// snapshot/restore reconfigurations.  Shards tile the conflict build
// only; the one bid table is checked against the tournament scan under
// removals, churn re-insertions and snapshot round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <span>

#include "core/churn_state.h"
#include "core/encrypted_bid_table.h"
#include "core/lppa_auction.h"
#include "core/shard_conflict.h"
#include "obs/metrics.h"
#include "oracles.h"
#include "proto/session.h"
#include "shard/shard_plan.h"

namespace lppa {
namespace {

struct World {
  std::vector<auction::SuLocation> locations;
  std::vector<auction::BidVector> bids;
};

World random_world(std::size_t n, std::size_t k, std::uint64_t seed,
                   std::uint64_t side = 5000) {
  Rng rng(seed);
  World w;
  for (std::size_t i = 0; i < n; ++i) {
    w.locations.push_back({rng.below(side), rng.below(side)});
    auction::BidVector bv(k);
    for (auto& b : bv) b = rng.below(16);
    w.bids.push_back(bv);
  }
  return w;
}

core::LppaConfig base_config(std::size_t k, std::uint64_t lambda = 100,
                             int coord_width = 14) {
  core::LppaConfig cfg;
  cfg.num_channels = k;
  cfg.lambda = lambda;
  cfg.coord_width = coord_width;
  cfg.bid = core::PpbsBidConfig::advanced(
      15, 3, 4, core::ZeroDisguisePolicy::none(15));
  return cfg;
}

/// Runs the full auction and returns the outcome; the Rng seed is fixed
/// so any divergence between configurations is the configuration's.
core::LppaOutcome run_auction(const World& w, const core::LppaConfig& cfg,
                              std::uint64_t seed) {
  core::LppaAuction engine(cfg, /*ttp_seed=*/7);
  Rng rng(seed);
  return engine.run(w.locations, w.bids, rng);
}

/// The oracle round over `out`'s masked submissions: the pairwise graph
/// and the tournament-scan table through Algorithm 3 and TTP charging,
/// with run_auction's seeds.
struct Reference {
  auction::ConflictGraph conflicts{1};
  core::MaintainedRoundOutcome round;
};

Reference reference_of(const core::LppaOutcome& out,
                       const core::LppaConfig& cfg, std::uint64_t seed) {
  core::LppaAuction engine(cfg, /*ttp_seed=*/7);
  Reference ref;
  ref.round =
      oracles::reference_round(engine, out.view, Rng(seed), &ref.conflicts);
  return ref;
}

void expect_matches_reference(const core::LppaOutcome& out,
                              const Reference& ref) {
  EXPECT_EQ(out.view.conflicts, ref.conflicts);
  EXPECT_EQ(out.outcome.awards, ref.round.awards);
  EXPECT_EQ(out.view.awards, ref.round.awards);
  EXPECT_EQ(out.manipulations_detected, ref.round.manipulations_detected);
}

// --- ShardPlan geometry --------------------------------------------------

TEST(ShardPlan, GridFactorisationIsNearSquare) {
  using shard::ShardPlan;
  EXPECT_EQ(ShardPlan::make(14, 100, 1).tiles_x(), 1u);
  const ShardPlan p2 = ShardPlan::make(14, 100, 2);
  EXPECT_EQ(p2.tiles_x(), 1u);
  EXPECT_EQ(p2.tiles_y(), 2u);
  const ShardPlan p4 = ShardPlan::make(14, 100, 4);
  EXPECT_EQ(p4.tiles_x(), 2u);
  EXPECT_EQ(p4.tiles_y(), 2u);
  const ShardPlan p9 = ShardPlan::make(14, 100, 9);
  EXPECT_EQ(p9.tiles_x(), 3u);
  EXPECT_EQ(p9.tiles_y(), 3u);
  const ShardPlan p12 = ShardPlan::make(14, 100, 12);
  EXPECT_EQ(p12.tiles_x(), 3u);
  EXPECT_EQ(p12.tiles_y(), 4u);
  EXPECT_THROW(ShardPlan::make(14, 100, 0), LppaError);
  EXPECT_THROW(ShardPlan::make(0, 100, 1), LppaError);
  // More strips than coordinate columns cannot tile the square.
  EXPECT_THROW(ShardPlan::make(1, 1, 64), LppaError);
}

TEST(ShardPlan, TilesPartitionTheField) {
  const shard::ShardPlan plan = shard::ShardPlan::make(8, 10, 6);
  ASSERT_EQ(plan.num_shards(), 6u);
  // Every location maps to exactly one tile whose bounds contain it.
  Rng rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    const auction::SuLocation loc{rng.below(256), rng.below(256)};
    const std::uint32_t t = plan.tile_of(loc);
    ASSERT_LT(t, plan.num_shards());
    const auto b = plan.bounds(t);
    EXPECT_GE(loc.x, b.x_lo);
    EXPECT_LE(loc.x, b.x_hi);
    EXPECT_GE(loc.y, b.y_lo);
    EXPECT_LE(loc.y, b.y_hi);
  }
  // Tile bounds cover the square without overlap: total area matches.
  std::uint64_t area = 0;
  for (std::uint32_t t = 0; t < plan.num_shards(); ++t) {
    const auto b = plan.bounds(t);
    area += (b.x_hi - b.x_lo + 1) * (b.y_hi - b.y_lo + 1);
  }
  EXPECT_EQ(area, 256u * 256u);
}

TEST(ShardPlan, AssignmentMatchesOnBoundaryAndCoversEveryone) {
  const shard::ShardPlan plan = shard::ShardPlan::make(14, 100, 4);
  const World w = random_world(200, 1, 17, /*side=*/16000);
  const shard::ShardAssignment a = plan.assign(w.locations);
  ASSERT_EQ(a.shard_of.size(), w.locations.size());
  std::size_t members_total = 0;
  for (std::size_t s = 0; s < a.num_shards; ++s) {
    members_total += a.members[s].size();
    EXPECT_TRUE(std::is_sorted(a.members[s].begin(), a.members[s].end()));
    EXPECT_TRUE(std::is_sorted(a.halo[s].begin(), a.halo[s].end()));
    for (const std::uint32_t u : a.members[s]) {
      EXPECT_EQ(a.shard_of[u], s);
    }
    for (const std::uint32_t u : a.halo[s]) {
      EXPECT_NE(a.shard_of[u], s);  // halos hold only foreign SUs
    }
  }
  EXPECT_EQ(members_total, w.locations.size());
  // boundary_sus counts exactly the SUs the predicate flags.
  std::size_t boundary = 0;
  for (const auto& loc : w.locations) {
    if (plan.on_boundary(loc)) ++boundary;
  }
  EXPECT_EQ(a.boundary_sus, boundary);
  EXPECT_GT(a.halo_entries(), 0u);
}

// --- Conflict graph differential ----------------------------------------

TEST(ShardConflict, MatchesGlobalBuildAcrossShardAndThreadCounts) {
  // The reference is the all-pairs build; every shard count, one tile
  // included, runs the halo-exchange build.
  const core::LppaConfig cfg = base_config(1);
  Rng key_rng(42);
  const crypto::SecretKey g0 = crypto::SecretKey::generate(key_rng);
  const core::PpbsLocation proto(g0, cfg.coord_width, cfg.lambda, true);
  const World w = random_world(120, 1, 23, /*side=*/16000);
  Rng rng(9);
  std::vector<core::LocationSubmission> subs;
  for (const auto& loc : w.locations) subs.push_back(proto.submit(loc, rng));
  const auto reference = oracles::conflict_graph_pairwise(subs);
  EXPECT_EQ(core::PpbsLocation::build_conflict_graph(subs, 3), reference);
  for (const std::size_t shards : {1u, 2u, 4u, 9u}) {
    const auto plan =
        shard::ShardPlan::make(cfg.coord_width, cfg.lambda, shards);
    const auto assignment = plan.assign(w.locations);
    for (const std::size_t threads : {1u, 3u}) {
      core::ShardConflictStats stats;
      const auto sharded = core::build_conflict_graph_sharded(
          subs, assignment, threads, nullptr, &stats);
      EXPECT_EQ(sharded, reference)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(stats.halo_edges + stats.local_edges, reference.edge_count());
      if (shards == 1) {
        EXPECT_EQ(stats.halo_entries, 0u);
        EXPECT_EQ(stats.halo_edges, 0u);
      }
      EXPECT_GT(stats.peak_index_bytes, 0u);
    }
  }
}

TEST(ShardConflict, IndexAndProbeStepsComposeTheBuild) {
  // The two steps ChurnState reuses: each tile's index pair holds
  // exactly its member and halo x-range and y-range digests, probing the
  // pairs yields the one-shot build's graph, and probe_upper_partners of
  // SU i against its home pair is exactly i's higher-id neighbour list.
  const core::LppaConfig cfg = base_config(1);
  Rng key_rng(43);
  const crypto::SecretKey g0 = crypto::SecretKey::generate(key_rng);
  const core::PpbsLocation proto(g0, cfg.coord_width, cfg.lambda, true);
  const World w = random_world(90, 1, 29, /*side=*/16000);
  Rng rng(10);
  std::vector<core::LocationSubmission> subs;
  for (const auto& loc : w.locations) subs.push_back(proto.submit(loc, rng));
  const auto reference = oracles::conflict_graph_pairwise(subs);
  for (const std::size_t shards : {1u, 4u, 9u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto assignment =
        shard::ShardPlan::make(cfg.coord_width, cfg.lambda, shards)
            .assign(w.locations);
    const auto indexes =
        core::build_tile_indexes(subs, assignment, /*num_threads=*/2);
    ASSERT_EQ(indexes.size(), shards);
    for (std::size_t s = 0; s < shards; ++s) {
      std::size_t x_entries = 0;
      std::size_t y_entries = 0;
      for (const auto* tile : {&assignment.members[s], &assignment.halo[s]}) {
        for (const std::uint32_t j : *tile) {
          x_entries += subs[j].x_range.size();
          y_entries += subs[j].y_range.size();
        }
      }
      EXPECT_EQ(indexes[s].x_range.entry_count(), x_entries) << "tile " << s;
      EXPECT_EQ(indexes[s].y_range.entry_count(), y_entries) << "tile " << s;
    }
    EXPECT_EQ(core::probe_tile_indexes(subs, assignment, indexes, 2),
              reference);
    for (std::uint32_t i = 0; i < subs.size(); ++i) {
      std::vector<std::uint32_t> upper;
      for (const std::uint32_t j : reference.neighbors(i)) {
        if (j > i) upper.push_back(j);
      }
      const core::UpperPartners probed = core::probe_upper_partners(
          subs, indexes[assignment.shard_of[i]], i);
      EXPECT_EQ(probed.ids, upper) << "SU " << i;
      EXPECT_GE(probed.x_hits, upper.size()) << "SU " << i;
      EXPECT_GE(probed.y_hits, upper.size()) << "SU " << i;
    }
  }
}

/// Pads every digest set of `sub` to `target` with random digests: the
/// index and the oracle then compare mostly padding.
void pad_all(core::LocationSubmission& sub, std::size_t target, Rng& rng) {
  sub.x_family.pad_to(target, rng);
  sub.y_family.pad_to(target, rng);
  sub.x_range.pad_to(target, rng);
  sub.y_range.pad_to(target, rng);
}

TEST(ShardConflict, TwoAxisJoinMatchesOracleWhenOnlyOneAxisOverlaps) {
  // Rosters where one axis hits for (nearly) every pair and the other
  // almost never: the join must keep exactly the pairs hit on BOTH axes.
  // A one-axis roster puts every SU in one 2λ band on the overlapping
  // axis and spaces them > 2λ apart on the other, except every third SU,
  // which sits within 2λ of its predecessor so a few edges exist.
  const core::LppaConfig cfg = base_config(1);
  Rng key_rng(44);
  const crypto::SecretKey g0 = crypto::SecretKey::generate(key_rng);
  const core::PpbsLocation proto(g0, cfg.coord_width, cfg.lambda, true);
  const std::uint64_t band = 2 * cfg.lambda;
  for (const bool y_overlaps : {true, false}) {
    SCOPED_TRACE(y_overlaps ? "y bands overlap" : "x bands overlap");
    Rng rng(y_overlaps ? 71 : 72);
    std::vector<auction::SuLocation> locations;
    std::uint64_t spread = band;  // position on the separated axis
    for (std::size_t i = 0; i < 60; ++i) {
      spread += (i % 3 == 2) ? rng.below(band + 1) : band + 1 + rng.below(40);
      const std::uint64_t shared = 8000 + rng.below(cfg.lambda);
      locations.push_back(y_overlaps ? auction::SuLocation{spread, shared}
                                     : auction::SuLocation{shared, spread});
    }
    std::vector<core::LocationSubmission> subs;
    for (const auto& loc : locations) {
      subs.push_back(proto.submit(loc, rng));
      pad_all(subs.back(), 4 * static_cast<std::size_t>(cfg.coord_width), rng);
    }
    const auto reference = oracles::conflict_graph_pairwise(subs);
    ASSERT_GT(reference.edge_count(), 0u);
    ASSERT_LT(reference.edge_count(), subs.size());
    for (const std::size_t shards : {1u, 4u, 16u}) {
      const auto assignment =
          shard::ShardPlan::make(cfg.coord_width, cfg.lambda, shards)
              .assign(locations);
      for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads));
        obs::MetricsRegistry metrics;
        core::ShardConflictStats stats;
        EXPECT_EQ(core::build_conflict_graph_sharded(subs, assignment, threads,
                                                     &metrics, &stats),
                  reference);
        // The overlapping axis hits about every upper pair; the other
        // about only the edges.
        const std::size_t wide = y_overlaps ? stats.y_hits : stats.x_hits;
        const std::size_t narrow = y_overlaps ? stats.x_hits : stats.y_hits;
        EXPECT_GT(wide, 4 * narrow);
        EXPECT_GE(narrow, reference.edge_count());
        EXPECT_EQ(metrics.counter("shard.x_hits").value(), stats.x_hits);
        EXPECT_EQ(metrics.counter("shard.y_hits").value(), stats.y_hits);
        EXPECT_EQ(metrics.counter("shard.join_edges").value(),
                  reference.edge_count());
      }
    }
  }
}

// --- End-to-end byte identity --------------------------------------------

TEST(ShardDifferential, AuctionOutcomeIdenticalForEveryShardCount) {
  const World w = random_world(60, 3, 51, /*side=*/16000);
  std::optional<Reference> reference;
  std::optional<core::LppaOutcome> first;
  for (const std::size_t shards : {1u, 2u, 4u, 9u}) {
    for (const std::size_t threads : {1u, 3u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      core::LppaConfig cfg = base_config(3);
      cfg.num_shards = shards;
      cfg.num_threads = threads;
      const auto out = run_auction(w, cfg, 77);
      if (!reference) {
        reference = reference_of(out, cfg, 77);
        first = out;
        EXPECT_FALSE(reference->round.awards.empty());
      }
      // The masked submissions do not depend on the configuration, so
      // one oracle round covers every run.
      EXPECT_EQ(out.view.bids, first->view.bids);
      EXPECT_EQ(out.view.locations, first->view.locations);
      expect_matches_reference(out, *reference);
    }
  }
}

TEST(ShardDifferential, SortedTableMatchesScanOracle) {
  // The production table (sorted columns, one table whatever the shard
  // count) against the tournament-scan oracle: the same award stream on
  // a full round, and the same remaining stream after a serialize ->
  // restore hop taken mid-allocation, whichever side restores.
  const std::size_t k = 2;
  const World w = random_world(40, k, 53, /*side=*/16000);
  std::optional<core::LppaOutcome> first;
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    core::LppaConfig cfg = base_config(k);
    cfg.num_shards = shards;
    const auto out = run_auction(w, cfg, 13);
    expect_matches_reference(out, reference_of(out, cfg, 13));
    if (!first) first = out;
    EXPECT_EQ(out.view.bids, first->view.bids);
  }

  const auto& bids = first->view.bids;
  const auto& conflicts = first->view.conflicts;
  for (const std::size_t consumed : {1u, 5u, 12u}) {
    SCOPED_TRACE("consumed=" + std::to_string(consumed));
    // Pop `consumed` winners the way greedy_allocate would, on both
    // tables, then snapshot.
    core::EncryptedBidTable sorted(bids, k);
    oracles::TournamentScanTable scan(bids, k);
    Rng pops(consumed);
    for (std::size_t i = 0; i < consumed && !sorted.empty(); ++i) {
      const std::size_t r = pops.below(k);
      const auto winner = sorted.argmax_in_column(r);
      ASSERT_EQ(winner, scan.argmax_in_column(r));
      if (!winner) continue;
      for (const std::uint32_t v : conflicts.neighbors(*winner)) {
        sorted.remove(v, r);
        scan.remove(v, r);
      }
      sorted.remove_user(*winner);
      scan.remove_user(*winner);
    }
    const Bytes image = sorted.serialize();
    ASSERT_EQ(scan.serialize(), image);
    auto restored = core::EncryptedBidTable::deserialize(image);
    auto restored_scan = oracles::TournamentScanTable::deserialize(image);
    EXPECT_EQ(restored.serialize(), image);
    const auto finish = [&](auction::BidTableView& table) {
      Rng rng(consumed + 100);
      return auction::greedy_allocate(table, conflicts, rng);
    };
    const auto awards = finish(scan);
    EXPECT_EQ(finish(sorted), awards);
    EXPECT_EQ(finish(restored), awards);
    EXPECT_EQ(finish(restored_scan), awards);
  }
}

TEST(ShardDifferential, AdversarialPlacements) {
  // Each placement stresses one geometric corner of the halo logic.
  // PPBS requires every loc + 2λ to fit coord_width, so coordinates stay
  // within [0, 2047 - 2λ] of the 2048-wide field; the 2x2 grid's tile
  // border sits at x,y = 1023/1024.
  const std::size_t k = 2;
  const int width = 11;  // 2048-wide field
  struct Placement {
    const char* name;
    std::uint64_t lambda;
    std::vector<auction::SuLocation> locations;
  };
  std::vector<Placement> placements;

  // (a) SUs sitting exactly ON tile borders of the 2x2 grid and at the
  // shared centre corner.
  placements.push_back({"tile_borders",
                        20,
                        {{1023, 100},
                         {1024, 100},
                         {1023, 1900},
                         {1024, 1901},
                         {100, 1023},
                         {100, 1024},
                         {1023, 1023},
                         {1024, 1024},
                         {1023, 1024},
                         {1024, 1023}}});
  // (b) Everyone crammed into one tile: all other shards stay empty.
  placements.push_back(
      {"one_tile", 20, {{10, 10}, {12, 11}, {30, 40}, {5, 5}, {60, 60}}});
  // (c) λ so large that 2λ = 700 exceeds the 3x3 grid's 683-wide tiles —
  // every SU is a boundary SU and halos cover whole neighbouring tiles.
  placements.push_back({"narrow_tiles",
                        350,
                        {{100, 100},
                         {400, 380},
                         {600, 610},
                         {900, 880},
                         {1200, 1300},
                         {20, 1000}}});
  // (d) The corners of the PPBS-admissible region plus the grid centre.
  placements.push_back({"grid_corners",
                        50,
                        {{0, 0},
                         {1947, 0},
                         {0, 1947},
                         {1947, 1947},
                         {1023, 1023},
                         {1024, 1024}}});

  for (const auto& p : placements) {
    World w;
    w.locations = p.locations;
    Rng rng(99);
    for (std::size_t i = 0; i < w.locations.size(); ++i) {
      auction::BidVector bv(k);
      for (auto& b : bv) b = rng.below(16);
      w.bids.push_back(bv);
    }
    core::LppaConfig cfg = base_config(k, p.lambda, width);
    const auto reference = reference_of(run_auction(w, cfg, 31), cfg, 31);
    for (const std::size_t shards : {1u, 2u, 4u, 9u}) {
      core::LppaConfig sharded_cfg = cfg;
      sharded_cfg.num_shards = shards;
      sharded_cfg.num_threads = 3;
      const auto sharded = run_auction(w, sharded_cfg, 31);
      expect_matches_reference(sharded, reference);
      if (testing::Test::HasFailure()) {
        FAIL() << "placement " << p.name << " shards=" << shards;
      }
    }
  }
}

// --- The one bid table vs the tournament-scan oracle -----------------------

TEST(EncryptedTableOracle, MatchesScanUnderRemovalsInsertsAndRestores) {
  // Random remove / remove_user / insert_user sequences on both tables,
  // every answer compared, with serialize -> deserialize round trips in
  // between: each hop replaces both live tables by their restored images,
  // which must continue exactly where the snapshot left off.
  const std::size_t n = 30, k = 3;
  const World w = random_world(n, k, 61);
  core::TrustedThirdParty ttp(base_config(k).bid, 5);
  const core::SuKeyBundle keys = ttp.su_keys();
  const core::BidSubmitter submitter(ttp.config(), keys.gb_master, keys.gc);
  Rng rng(8);
  std::vector<core::BidSubmission> subs;
  for (const auto& bv : w.bids) subs.push_back(submitter.submit(bv, rng));

  for (const std::uint64_t seed : {1001u, 1003u, 1007u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    oracles::TournamentScanTable scan(subs, k);
    core::EncryptedBidTable table(subs, k);
    std::vector<bool> gone(n, false);
    std::size_t restores = 0, inserts = 0;
    Rng ops(seed);
    for (int step = 0; step < 400 && !scan.empty(); ++step) {
      for (std::size_t r = 0; r < k; ++r) {
        ASSERT_EQ(table.argmax_in_column(r), scan.argmax_in_column(r))
            << "step " << step << " channel " << r;
      }
      const std::size_t u = ops.below(n);
      const std::uint64_t op = ops.below(8);
      if (op < 4) {
        const std::size_t r = ops.below(k);
        scan.remove(u, r);
        table.remove(u, r);
        ASSERT_EQ(table.has(u, r), scan.has(u, r));
      } else if (op < 6) {
        scan.remove_user(u);
        table.remove_user(u);
        gone[u] = true;
      } else if (op < 7) {
        // Churn return: a fully tombstoned slot re-enters with the same
        // masked submission behind it.
        const auto back = std::find(gone.begin(), gone.end(), true);
        if (back != gone.end()) {
          const std::size_t v = static_cast<std::size_t>(back - gone.begin());
          scan.insert_user(v);
          table.insert_user(v);
          *back = false;
          ++inserts;
        }
      } else {
        const Bytes image = table.serialize();
        ASSERT_EQ(scan.serialize(), image) << "step " << step;
        table = core::EncryptedBidTable::deserialize(image);
        scan = oracles::TournamentScanTable::deserialize(image);
        ASSERT_EQ(table.serialize(), image);
        ++restores;
      }
      ASSERT_EQ(table.empty(), scan.empty());
      ASSERT_EQ(table.live_cells(), scan.live_cells());
    }
    EXPECT_GT(restores, 0u);
    EXPECT_GT(inserts, 0u);
    EXPECT_EQ(table.serialize(), scan.serialize());
  }
}

TEST(ShardChurn, BoundarySuRemovalLeavesNoStaleHaloState) {
  // Adversarial churn removal: the departing SU sits right on a tile
  // border, so its x-range digests live in a NEIGHBOUR tile's halo index,
  // and it is the table's top bidder.  After remove_su, nothing of it may
  // linger: no stale halo conflict edge, no stale winner in the table's
  // argmax, and the shard counters of a fresh rebuild must agree with the
  // maintained assignment.
  const std::size_t k = 2;
  core::LppaConfig cfg = base_config(k, /*lambda=*/100, /*coord_width=*/14);
  cfg.num_shards = 4;  // 2x2 tiles over [0, 16384)^2, borders at 8192

  // SU 0: boundary SU (x = 8190, within 2λ of the x border), top bidder
  // on channel 0.  SU 1: across the border in the east tile, conflicting
  // with SU 0.  SUs 2 and 3: interior of other tiles, no conflicts.
  const std::vector<auction::SuLocation> locations = {
      {8190, 4000}, {8290, 4040}, {2000, 2000}, {12000, 12000}};
  const std::vector<auction::BidVector> bids = {
      {15, 1}, {9, 7}, {5, 3}, {4, 2}};
  const std::size_t n = locations.size();

  core::TrustedThirdParty ttp(cfg.bid, 5);
  const core::SuKeyBundle keys = ttp.su_keys();
  const core::PpbsLocation location_protocol(keys.g0, cfg.coord_width,
                                             cfg.lambda,
                                             cfg.pad_location_ranges);
  const core::BidSubmitter submitter(ttp.config(), keys.gb_master, keys.gc);
  Rng rng(19);
  std::vector<core::LocationSubmission> loc_subs;
  std::vector<core::BidSubmission> bid_subs;
  for (std::size_t u = 0; u < n; ++u) {
    loc_subs.push_back(location_protocol.submit(locations[u], rng));
    bid_subs.push_back(submitter.submit(bids[u], rng));
  }

  const shard::ShardPlan plan =
      shard::ShardPlan::make(cfg.coord_width, cfg.lambda, cfg.num_shards);
  ASSERT_TRUE(plan.on_boundary(locations[0]));
  ASSERT_NE(plan.tile_of(locations[0]), plan.tile_of(locations[1]));

  obs::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  core::ChurnState state(cfg, locations, loc_subs, bid_subs,
                         std::vector<bool>(n, true));
  ASSERT_TRUE(state.graph().conflicts(0, 1));
  ASSERT_EQ(state.table().argmax_in_column(0), auction::UserId{0});

  // Departure of the boundary SU.
  state.remove_su(0);
  EXPECT_FALSE(state.graph().conflicts(0, 1));
  EXPECT_TRUE(state.graph() == state.rebuild_conflicts());
  EXPECT_TRUE(state.assignment() == state.rebuild_assignment());
  EXPECT_EQ(state.serialize_table(), state.rebuild_table().serialize());
  // No stale winner: the argmax moves on to the east tile's SU.
  EXPECT_EQ(state.table().argmax_in_column(0), auction::UserId{1});
  EXPECT_EQ(state.rebuild_table().argmax_in_column(0), auction::UserId{1});

  // A fresh sharded build over the post-departure roster must report
  // counters consistent with the maintained assignment: every halo index
  // entry accounted for by a live halo SU's x-range and y-range digests,
  // every edge classified local or halo.
  obs::MetricsRegistry rebuilt_metrics;
  const auction::ConflictGraph rebuilt = core::build_conflict_graph_sharded(
      state.locations(), state.assignment(), /*num_threads=*/1,
      &rebuilt_metrics);
  std::size_t expected_halo_entries = 0;
  for (const auto& halo : state.assignment().halo) {
    for (const std::uint32_t j : halo) {
      expected_halo_entries += state.locations()[j].x_range.size() +
                               state.locations()[j].y_range.size();
    }
  }
  EXPECT_EQ(rebuilt_metrics.counter("shard.halo_index_entries").value(),
            expected_halo_entries);
  EXPECT_EQ(rebuilt_metrics.counter("shard.local_edges").value() +
                rebuilt_metrics.counter("shard.halo_edges").value(),
            rebuilt.edge_count());

  // Arrival into the freed slot near the old border spot: if any of SU
  // 0's digests had survived in a halo index, the probe would resurrect
  // a phantom edge and diverge from the rebuild.
  Rng arrival_rng(23);
  const auction::SuLocation back = {8200, 4010};
  state.add_su(0, back, location_protocol.submit(back, arrival_rng),
               submitter.submit({6, 6}, arrival_rng));
  EXPECT_TRUE(state.graph().conflicts(0, 1));
  EXPECT_TRUE(state.graph() == state.rebuild_conflicts());
  EXPECT_TRUE(state.assignment() == state.rebuild_assignment());
  EXPECT_EQ(state.serialize_table(), state.rebuild_table().serialize());

  // Digest bookkeeping is halo-symmetric: the arrival inserted exactly
  // as many (digest, owner) pairs as its later departure erases.
  const std::uint64_t inserted =
      metrics.counter("churn.digests_inserted").value();
  const std::uint64_t erased_before =
      metrics.counter("churn.digests_erased").value();
  state.remove_su(0);
  const std::uint64_t arrival_pairs =
      metrics.counter("churn.digests_erased").value() - erased_before;
  EXPECT_GT(arrival_pairs, 0u);
  // The only link so far was that arrival, so total insertions == its
  // erasure count (home + halo copies both ways).
  EXPECT_EQ(arrival_pairs, inserted);
  EXPECT_TRUE(state.graph() == state.rebuild_conflicts());
}

TEST(ShardChurn, TwoAxisInterleavingEqualsRebuildAfterEveryEvent) {
  // Arrivals, moves and departures on rosters that straddle the tile
  // borders in one 2λ band per axis: most pairs hit on one axis only, so
  // a stale or missing entry in either maintained range index — home or
  // halo copy — flips an edge.  After every event the maintained graph
  // must equal the sharded rebuild and the all-pairs oracle.
  const std::size_t k = 2;
  core::LppaConfig cfg = base_config(k, /*lambda=*/100, /*coord_width=*/14);
  cfg.num_shards = 4;  // 2x2 tiles over [0, 16384)^2, borders at 8192
  const std::size_t capacity = 24;

  core::TrustedThirdParty ttp(cfg.bid, 5);
  const core::SuKeyBundle keys = ttp.su_keys();
  const core::PpbsLocation location_protocol(keys.g0, cfg.coord_width,
                                             cfg.lambda,
                                             cfg.pad_location_ranges);
  const core::BidSubmitter submitter(ttp.config(), keys.gb_master, keys.gc);

  // Half the spots share a y band across the x border, half an x band
  // across the y border; the free coordinate spans four bands.
  Rng scenario(61);
  const auto spot = [&] {
    const std::uint64_t band = 8192 - 150 + scenario.below(100);
    const std::uint64_t free = 8192 - 400 + scenario.below(800);
    return scenario.bernoulli(0.5) ? auction::SuLocation{free, band}
                                   : auction::SuLocation{band, free};
  };
  const auto bid = [&] {
    return auction::BidVector{scenario.below(16), scenario.below(16)};
  };

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cfg.num_threads = threads;
    Rng mask(62);
    std::vector<auction::SuLocation> locations(capacity);
    std::vector<core::LocationSubmission> loc_subs(capacity);
    std::vector<core::BidSubmission> bid_subs;
    std::vector<bool> live(capacity);
    for (std::size_t u = 0; u < capacity; ++u) {
      live[u] = u % 2 == 0;
      if (live[u]) {
        locations[u] = spot();
        loc_subs[u] = location_protocol.submit(locations[u], mask);
      }
      bid_subs.push_back(submitter.submit(bid(), mask));
    }
    core::ChurnState state(cfg, locations, loc_subs, bid_subs, live);
    ASSERT_GT(state.graph().edge_count(), 0u);

    for (int event = 0; event < 60; ++event) {
      const std::size_t u = scenario.below(capacity);
      std::string what;
      if (!state.live()[u]) {
        const auction::SuLocation loc = spot();
        state.add_su(u, loc, location_protocol.submit(loc, mask),
                     submitter.submit(bid(), mask));
        what = "add";
      } else if (state.live_count() > 1 && scenario.bernoulli(0.4)) {
        state.remove_su(u);
        what = "remove";
      } else {
        const auction::SuLocation loc = spot();
        state.move_su(u, loc, location_protocol.submit(loc, mask));
        what = "move";
      }
      SCOPED_TRACE("event " + std::to_string(event) + ": " + what + " SU " +
                   std::to_string(u));
      ASSERT_EQ(state.graph(), state.rebuild_conflicts());
      ASSERT_EQ(state.graph(),
                oracles::conflict_graph_pairwise(state.locations()));
    }
  }
}

TEST(EncryptedTableOracle, RestoredImagesContinueAndDamagedImagesThrow) {
  const std::size_t n = 12, k = 2;
  const World w = random_world(n, k, 67);
  core::TrustedThirdParty ttp(base_config(k).bid, 5);
  const core::SuKeyBundle keys = ttp.su_keys();
  const core::BidSubmitter submitter(ttp.config(), keys.gb_master, keys.gc);
  Rng rng(4);
  std::vector<core::BidSubmission> subs;
  for (const auto& bv : w.bids) subs.push_back(submitter.submit(bv, rng));

  oracles::TournamentScanTable scan(subs, k);
  core::EncryptedBidTable table(subs, k);
  // Identical wire images before and after identical removals.
  EXPECT_EQ(table.serialize(), scan.serialize());
  scan.remove(3, 1);
  table.remove(3, 1);
  scan.remove_user(7);
  table.remove_user(7);
  const Bytes image = scan.serialize();
  EXPECT_EQ(table.serialize(), image);

  // Answers continue exactly where the snapshot left off, on every
  // thread count the restore may sort with.
  for (const std::size_t threads : {1u, 3u}) {
    auto restored = core::EncryptedBidTable::deserialize(image, threads);
    EXPECT_EQ(restored.serialize(), image);
    for (std::size_t r = 0; r < k; ++r) {
      EXPECT_EQ(restored.argmax_in_column(r), scan.argmax_in_column(r));
    }
    EXPECT_FALSE(restored.has(3, 1));
    EXPECT_FALSE(restored.has(7, 0));
  }

  const auto expect_protocol_error = [](const auto& restore, const char* what) {
    try {
      restore();
      ADD_FAILURE() << what << " accepted";
    } catch (const LppaError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kProtocol) << what;
    }
  };
  // A truncated image is a typed protocol error, on both tables.
  const std::span<const std::uint8_t> truncated(image.data(),
                                                image.size() - 1);
  expect_protocol_error(
      [&] { core::EncryptedBidTable::deserialize(truncated); }, "truncated");
  expect_protocol_error(
      [&] { oracles::TournamentScanTable::deserialize(truncated); },
      "truncated (scan)");

  // So is an image of the other backend, in either direction.
  core::PpbsBidConfig paillier_bid = base_config(k).bid;
  paillier_bid.backend = crypto::BidBackendId::kPaillier;
  core::TrustedThirdParty paillier_ttp(paillier_bid, 5);
  const crypto::BidBackend* paillier = &paillier_ttp.bid_backend();
  expect_protocol_error(
      [&] { core::EncryptedBidTable::deserialize(image, 1, paillier); },
      "HMAC image under Paillier");
  expect_protocol_error(
      [&] { oracles::TournamentScanTable::deserialize(image, paillier); },
      "HMAC image under Paillier (scan)");
  const core::SuKeyBundle pkeys = paillier_ttp.su_keys();
  const core::BidSubmitter paillier_submitter(
      paillier_ttp.config(), pkeys.gb_master, pkeys.gc, pkeys.paillier);
  std::vector<core::BidSubmission> paillier_subs;
  for (std::size_t u = 0; u < 3; ++u) {
    paillier_subs.push_back(paillier_submitter.submit(w.bids[u], rng));
  }
  const Bytes paillier_image =
      core::EncryptedBidTable(paillier_subs, k,
                              core::ArgmaxStrategy::kSortedColumns, 1,
                              paillier)
          .serialize();
  EXPECT_EQ(core::EncryptedBidTable::deserialize(paillier_image, 1, paillier)
                .serialize(),
            paillier_image);
  expect_protocol_error(
      [&] { core::EncryptedBidTable::deserialize(paillier_image); },
      "Paillier image under HMAC");
  expect_protocol_error(
      [&] { oracles::TournamentScanTable::deserialize(paillier_image); },
      "Paillier image under HMAC (scan)");
}

// --- Session snapshot interop (PR 3 recovery compatibility) --------------

TEST(ShardSessionInterop, SnapshotsInterchangeAcrossShardReconfiguration) {
  const std::size_t n = 8, k = 3;
  const World w = random_world(n, k, 71);
  core::LppaConfig unsharded_cfg = base_config(k);
  core::LppaConfig sharded_cfg = unsharded_cfg;
  sharded_cfg.num_shards = 4;

  core::TrustedThirdParty ttp(unsharded_cfg.bid, 9);

  auto run_to_allocation = [&](const core::LppaConfig& cfg) {
    auto session = std::make_unique<proto::AuctioneerSession>(cfg, n);
    Rng rng(1);
    for (std::size_t u = 0; u < n; ++u) {
      const proto::SuClient client(u, cfg, ttp.su_keys());
      session->ingest(client.location_envelope(w.locations[u], rng));
      session->ingest(client.bid_envelope(w.bids[u], rng));
    }
    Rng alloc_rng(2);
    session->run_allocation(alloc_rng);
    return session;
  };

  const auto unsharded = run_to_allocation(unsharded_cfg);
  const auto sharded = run_to_allocation(sharded_cfg);

  // Same awards, same snapshot bytes: the sharded session's image IS the
  // unsharded one's.
  EXPECT_EQ(sharded->awards(), unsharded->awards());
  const Bytes snap = unsharded->snapshot();
  EXPECT_EQ(sharded->snapshot(), snap);

  // Restore the image under BOTH configurations and finish the round
  // through the TTP on each: byte-identical announcements throughout.
  proto::AuctioneerSession restored_sharded(sharded_cfg, n);
  restored_sharded.restore_from(snap);
  proto::AuctioneerSession restored_unsharded(unsharded_cfg, n);
  restored_unsharded.restore_from(snap);
  EXPECT_EQ(restored_sharded.snapshot(), snap);
  EXPECT_EQ(restored_unsharded.snapshot(), snap);

  proto::TtpService service(ttp);
  std::vector<proto::AuctioneerSession*> sessions = {
      unsharded.get(), sharded.get(), &restored_sharded, &restored_unsharded};
  const auto queries = unsharded->charge_query_envelopes();
  for (proto::AuctioneerSession* s : sessions) {
    EXPECT_EQ(s->charge_query_envelopes(), queries);
  }
  for (const auto& q : queries) {
    const Bytes result = service.handle(q);
    for (proto::AuctioneerSession* s : sessions) {
      s->ingest_charge_results(result);
    }
  }
  const Bytes announcement = unsharded->winner_announcement();
  for (proto::AuctioneerSession* s : sessions) {
    ASSERT_TRUE(s->charging_complete());
    EXPECT_EQ(s->winner_announcement(), announcement);
  }
}

}  // namespace
}  // namespace lppa
