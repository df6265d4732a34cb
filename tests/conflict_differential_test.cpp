// Differential suite for the one conflict build and the one bid table:
// for every thread count, the auction must produce conflict graphs,
// awards, charges, and winner announcements byte-identical to the
// reference implementations in tests/oracles.h — the all-pairs graph and
// the tournament-scan table — including under adversarial placements
// (SUs straddling a prefix boundary, grid corners, an interference box
// wider than a third of the field).  The two-axis join is checked in
// both cut directions, churn removal and interleavings against a
// rebuild, and the bid table against the tournament scan under
// removals, churn re-insertions and snapshot round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>

#include "core/churn_state.h"
#include "core/conflict_index.h"
#include "core/encrypted_bid_table.h"
#include "core/lppa_auction.h"
#include "obs/metrics.h"
#include "oracles.h"

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

// --- Conflict graph differential ----------------------------------------

TEST(ShardConflict, MatchesGlobalBuildAcrossShardAndThreadCounts) {
  // The reference is the all-pairs build; every thread count runs the
  // one index pair and the two-axis join.
  const core::LppaConfig cfg = base_config(1);
  Rng key_rng(42);
  const crypto::SecretKey g0 = crypto::SecretKey::generate(key_rng);
  const core::PpbsLocation proto(g0, cfg.coord_width, cfg.lambda, true);
  const World w = random_world(120, 1, 23, /*side=*/16000);
  Rng rng(9);
  std::vector<core::LocationSubmission> subs;
  for (const auto& loc : w.locations) subs.push_back(proto.submit(loc, rng));
  const auto reference = oracles::conflict_graph_pairwise(subs);
  ASSERT_GT(reference.edge_count(), 0u);
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 9u, 16u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(core::PpbsLocation::build_conflict_graph(subs, threads),
              reference);
    core::ConflictStats stats;
    EXPECT_EQ(core::build_conflict_graph(subs, threads, nullptr, &stats),
              reference);
    EXPECT_EQ(stats.join_edges, reference.edge_count());
    EXPECT_GE(stats.x_hits, stats.join_edges);
    EXPECT_GE(stats.y_hits, stats.join_edges);
    EXPECT_GT(stats.index_bytes, 0u);
  }
}

TEST(ShardConflict, IndexAndProbeStepsComposeTheBuild) {
  // The steps ChurnState reuses: the range pair holds exactly every x-range
  // and y-range digest, probing it yields the one-shot build's graph, and
  // join_partners in each direction is exactly one side of an SU's
  // neighbour list — its families against the range pair cut to j > i,
  // and its ranges against a family pair cut to j < i.
  const core::LppaConfig cfg = base_config(1);
  Rng key_rng(43);
  const crypto::SecretKey g0 = crypto::SecretKey::generate(key_rng);
  const core::PpbsLocation proto(g0, cfg.coord_width, cfg.lambda, true);
  const World w = random_world(90, 1, 29, /*side=*/16000);
  Rng rng(10);
  std::vector<core::LocationSubmission> subs;
  for (const auto& loc : w.locations) subs.push_back(proto.submit(loc, rng));
  const auto reference = oracles::conflict_graph_pairwise(subs);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const core::IndexPair ranges = core::build_index_pair(
        subs, &core::LocationSubmission::x_range,
        &core::LocationSubmission::y_range, threads);
    const core::IndexPair families = core::build_index_pair(
        subs, &core::LocationSubmission::x_family,
        &core::LocationSubmission::y_family, threads);
    std::size_t x_entries = 0, y_entries = 0;
    std::size_t x_family_entries = 0, y_family_entries = 0;
    for (const auto& sub : subs) {
      x_entries += sub.x_range.size();
      y_entries += sub.y_range.size();
      x_family_entries += sub.x_family.size();
      y_family_entries += sub.y_family.size();
    }
    EXPECT_EQ(ranges.x.entry_count(), x_entries);
    EXPECT_EQ(ranges.y.entry_count(), y_entries);
    EXPECT_EQ(families.x.entry_count(), x_family_entries);
    EXPECT_EQ(families.y.entry_count(), y_family_entries);
    EXPECT_EQ(core::probe_index_pair(subs, ranges, threads), reference);
    for (std::uint32_t i = 0; i < subs.size(); ++i) {
      std::vector<std::uint32_t> upper, lower;
      for (const std::uint32_t j : reference.neighbors(i)) {
        (j > i ? upper : lower).push_back(j);
      }
      const core::JoinResult above =
          core::join_partners(subs[i].x_family, subs[i].y_family, ranges, i,
                              core::JoinCut::kAbove);
      EXPECT_EQ(above.ids, upper) << "SU " << i;
      EXPECT_GE(above.x_hits, upper.size()) << "SU " << i;
      EXPECT_GE(above.y_hits, upper.size()) << "SU " << i;
      const core::JoinResult below =
          core::join_partners(subs[i].x_range, subs[i].y_range, families, i,
                              core::JoinCut::kBelow);
      EXPECT_EQ(below.ids, lower) << "SU " << i;
      EXPECT_GE(below.x_hits, lower.size()) << "SU " << i;
      EXPECT_GE(below.y_hits, lower.size()) << "SU " << i;
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
    for (const std::size_t threads : {1u, 4u, 16u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      obs::MetricsRegistry metrics;
      core::ConflictStats stats;
      EXPECT_EQ(
          core::build_conflict_graph(subs, threads, &metrics, &stats),
          reference);
      // The overlapping axis hits about every upper pair; the other
      // about only the edges.
      const std::size_t wide = y_overlaps ? stats.y_hits : stats.x_hits;
      const std::size_t narrow = y_overlaps ? stats.x_hits : stats.y_hits;
      EXPECT_GT(wide, 4 * narrow);
      EXPECT_GE(narrow, reference.edge_count());
      EXPECT_EQ(metrics.counter("conflict.x_hits").value(), stats.x_hits);
      EXPECT_EQ(metrics.counter("conflict.y_hits").value(), stats.y_hits);
      EXPECT_EQ(metrics.counter("conflict.join_edges").value(),
                reference.edge_count());
      EXPECT_EQ(metrics.gauge("conflict.index_bytes").value(),
                static_cast<double>(stats.index_bytes));
    }
  }
}

// --- End-to-end byte identity --------------------------------------------

TEST(ShardDifferential, AuctionOutcomeIdenticalForEveryShardCount) {
  const World w = random_world(60, 3, 51, /*side=*/16000);
  std::optional<Reference> reference;
  std::optional<core::LppaOutcome> first;
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 9u, 16u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    core::LppaConfig cfg = base_config(3);
    cfg.num_threads = threads;
    const auto out = run_auction(w, cfg, 77);
    if (!reference) {
      reference = reference_of(out, cfg, 77);
      first = out;
      EXPECT_FALSE(reference->round.awards.empty());
    }
    // The masked submissions do not depend on the thread count, so one
    // oracle round covers every run.
    EXPECT_EQ(out.view.bids, first->view.bids);
    EXPECT_EQ(out.view.locations, first->view.locations);
    expect_matches_reference(out, *reference);
  }
}

TEST(ShardDifferential, SortedTableMatchesScanOracle) {
  // The production table (sorted columns) against the tournament-scan
  // oracle: the same award stream on a full round, and the same
  // remaining stream after a serialize -> restore hop taken
  // mid-allocation, whichever side restores.
  const std::size_t k = 2;
  const World w = random_world(40, k, 53, /*side=*/16000);
  std::optional<core::LppaOutcome> first;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    core::LppaConfig cfg = base_config(k);
    cfg.num_threads = threads;
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
  // Each placement stresses one geometric corner of the prefix encoding.
  // PPBS requires every loc + 2λ to fit coord_width, so coordinates stay
  // within [0, 2047 - 2λ] of the 2048-wide field.  x,y = 1023/1024 is
  // where the leading coordinate bit flips: the prefix families of
  // neighbours across it diverge at the first bit, and range covers
  // split there.
  const std::size_t k = 2;
  const int width = 11;  // 2048-wide field
  struct Placement {
    const char* name;
    std::uint64_t lambda;
    std::vector<auction::SuLocation> locations;
  };
  std::vector<Placement> placements;

  // (a) SUs sitting exactly on the top-level prefix boundary of either
  // axis and at the centre corner where both flip.
  placements.push_back({"prefix_borders",
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
  // (b) Everyone crammed into one corner of the field.
  placements.push_back(
      {"one_corner", 20, {{10, 10}, {12, 11}, {30, 40}, {5, 5}, {60, 60}}});
  // (c) λ so large that 2λ = 700 exceeds a third of the field: range
  // covers span several top-level prefixes.
  placements.push_back({"wide_boxes",
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
    for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
      core::LppaConfig threaded_cfg = cfg;
      threaded_cfg.num_threads = threads;
      expect_matches_reference(run_auction(w, threaded_cfg, 31), reference);
      if (testing::Test::HasFailure()) {
        FAIL() << "placement " << p.name << " threads=" << threads;
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

/// The PPBS submitters a hand-placed churn roster needs.
struct ChurnParties {
  core::TrustedThirdParty ttp;
  core::SuKeyBundle keys;
  core::PpbsLocation location_protocol;
  core::BidSubmitter submitter;

  explicit ChurnParties(const core::LppaConfig& cfg)
      : ttp(cfg.bid, 5),
        keys(ttp.su_keys()),
        location_protocol(keys.g0, cfg.coord_width, cfg.lambda,
                          cfg.pad_location_ranges),
        submitter(ttp.config(), keys.gb_master, keys.gc) {}
};

/// Σ of the four digest sets a churn link publishes (or an unlink erases).
std::size_t linked_digests(const core::LocationSubmission& sub) {
  return sub.x_range.size() + sub.y_range.size() + sub.x_family.size() +
         sub.y_family.size();
}

TEST(ShardChurn, BoundarySuRemovalLeavesNoStaleHaloState) {
  // Adversarial churn removal: the departing SU sits just below x = 8192,
  // where the leading coordinate bit flips, so its x-range cover splits
  // across that boundary; it conflicts with an SU on the other side and is
  // the table's top bidder.  After remove_su nothing of it may linger: no
  // stale conflict edge, no stale winner in the table's argmax, and no
  // digest in either index pair — a re-arrival next to the old spot must
  // match a rebuild, and its digest bookkeeping must be symmetric.
  const std::size_t k = 2;
  core::LppaConfig cfg = base_config(k, /*lambda=*/100, /*coord_width=*/14);

  // SU 0: x = 8190, top bidder on channel 0.  SU 1: across x = 8192,
  // conflicting with SU 0.  SUs 2 and 3: far away, no conflicts.
  const std::vector<auction::SuLocation> locations = {
      {8190, 4000}, {8290, 4040}, {2000, 2000}, {12000, 12000}};
  const std::vector<auction::BidVector> bids = {
      {15, 1}, {9, 7}, {5, 3}, {4, 2}};
  const std::size_t n = locations.size();

  const ChurnParties parties(cfg);
  Rng rng(19);
  std::vector<core::LocationSubmission> loc_subs;
  std::vector<core::BidSubmission> bid_subs;
  for (std::size_t u = 0; u < n; ++u) {
    loc_subs.push_back(parties.location_protocol.submit(locations[u], rng));
    bid_subs.push_back(parties.submitter.submit(bids[u], rng));
  }

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
  EXPECT_EQ(state.serialize_table(), state.rebuild_table().serialize());
  // No stale winner: the argmax moves on to the SU across the boundary.
  EXPECT_EQ(state.table().argmax_in_column(0), auction::UserId{1});
  EXPECT_EQ(state.rebuild_table().argmax_in_column(0), auction::UserId{1});
  // A fresh build over the post-departure roster counts every join edge.
  obs::MetricsRegistry rebuilt_metrics;
  const auction::ConflictGraph rebuilt = core::build_conflict_graph(
      state.locations(), /*num_threads=*/1, &rebuilt_metrics);
  EXPECT_EQ(rebuilt_metrics.counter("conflict.join_edges").value(),
            rebuilt.edge_count());

  // Arrival into the freed slot near the old spot: if any of SU 0's
  // digests had survived in an index, a join would resurrect a phantom
  // edge and diverge from the rebuild.
  Rng arrival_rng(23);
  const auction::SuLocation back = {8200, 4010};
  state.add_su(0, back,
               parties.location_protocol.submit(back, arrival_rng),
               parties.submitter.submit({6, 6}, arrival_rng));
  EXPECT_TRUE(state.graph().conflicts(0, 1));
  EXPECT_TRUE(state.graph() == state.rebuild_conflicts());
  EXPECT_EQ(state.serialize_table(), state.rebuild_table().serialize());

  // Digest bookkeeping is symmetric: the arrival inserted exactly its
  // x-range, y-range, x-family and y-family digests, and its later
  // departure erases exactly as many (digest, owner) pairs.
  const std::uint64_t inserted =
      metrics.counter("churn.digests_inserted").value();
  EXPECT_EQ(inserted, linked_digests(state.locations()[0]));
  const std::uint64_t erased_before =
      metrics.counter("churn.digests_erased").value();
  state.remove_su(0);
  const std::uint64_t arrival_pairs =
      metrics.counter("churn.digests_erased").value() - erased_before;
  EXPECT_GT(arrival_pairs, 0u);
  // The only link so far was that arrival, so total insertions == its
  // erasure count.
  EXPECT_EQ(arrival_pairs, inserted);
  EXPECT_TRUE(state.graph() == state.rebuild_conflicts());
}

TEST(ShardChurn, TwoAxisInterleavingEqualsRebuildAfterEveryEvent) {
  // Arrivals, moves and departures on rosters packed into one 2λ band per
  // axis: most pairs hit on one axis only, so a stale or missing entry in
  // any maintained index — range or family, x or y — flips an edge.
  // After every event the maintained graph must equal the rebuild and
  // the all-pairs oracle.
  const std::size_t k = 2;
  core::LppaConfig cfg = base_config(k, /*lambda=*/100, /*coord_width=*/14);
  const std::size_t capacity = 24;
  const ChurnParties parties(cfg);
  const auto& location_protocol = parties.location_protocol;
  const auto& submitter = parties.submitter;

  // Half the spots share a y band, half an x band, both straddling
  // 8192; the free coordinate spans four bands.
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

  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cfg.num_threads = threads;
    Rng mask(62);

    // Lower partners that overlap on one axis only.  Slot 0 is live;
    // slots 1 and 2 arrive overlapping it on x only, then on y only, so
    // an arrival's lower-partner join that confirms only one axis
    // reports a phantom edge.  Slot 3 overlaps it on both axes, so a
    // join that finds no lower partner misses a real one.
    {
      Rng one_axis_mask(63);
      const std::vector<auction::SuLocation> arrivals = {
          {5050, 9000}, {9000, 5050}, {5100, 4900}};
      std::vector<auction::SuLocation> locations(4);
      std::vector<core::LocationSubmission> loc_subs(4);
      std::vector<core::BidSubmission> bid_subs;
      locations[0] = {5000, 5000};
      loc_subs[0] = location_protocol.submit(locations[0], one_axis_mask);
      for (std::size_t u = 0; u < 4; ++u) {
        bid_subs.push_back(submitter.submit({3, 4}, one_axis_mask));
      }
      core::ChurnState state(cfg, locations, loc_subs, bid_subs,
                             {true, false, false, false});
      for (std::size_t u = 1; u < 4; ++u) {
        const auction::SuLocation& loc = arrivals[u - 1];
        state.add_su(u, loc, location_protocol.submit(loc, one_axis_mask),
                     submitter.submit({3, 4}, one_axis_mask));
        SCOPED_TRACE("one-axis arrival " + std::to_string(u));
        ASSERT_EQ(state.graph(), state.rebuild_conflicts());
        ASSERT_EQ(state.graph(),
                  oracles::conflict_graph_pairwise(state.locations()));
        EXPECT_EQ(state.graph().conflicts(0, u), u == 3);
      }
    }

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

}  // namespace
}  // namespace lppa
