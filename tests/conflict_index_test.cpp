// Differential tests for the indexed conflict-graph build.
//
// The digest hash-join (prefix::DigestIndex) must reproduce the
// all-pairs reference graph (tests/oracles.h) *exactly* — not merely
// with high probability — because both compare the same digest
// multisets;
// and the thread count must be observationally irrelevant everywhere it
// appears (conflict-graph probing, full auction rounds).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/conflict_index.h"
#include "core/lppa_auction.h"
#include "core/ppbs_location.h"
#include "oracles.h"
#include "prefix/digest_index.h"

namespace lppa::core {
namespace {

TEST(DigestIndexTest, CollectReturnsAllOwnersOfADigest) {
  Rng rng(7);
  const auto key = crypto::SecretKey::generate(rng);
  prefix::DigestIndex index;
  const auto set_a = prefix::HashedPrefixSet::of_value(key, 42, 10);
  const auto set_b = prefix::HashedPrefixSet::of_value(key, 42, 10);
  const auto set_c = prefix::HashedPrefixSet::of_value(key, 999, 10);
  index.insert_all(set_a, 0);
  index.insert_all(set_b, 1);
  index.insert_all(set_c, 2);

  // Every digest of value 42's family is owned by 0 and 1; value 999
  // shares only the short prefixes with 42.
  std::vector<std::uint32_t> owners;
  index.collect(set_a.digests()[0], owners);
  std::sort(owners.begin(), owners.end());
  ASSERT_GE(owners.size(), 2u);
  EXPECT_EQ(owners[0], 0u);
  EXPECT_EQ(owners[1], 1u);
  EXPECT_EQ(index.entry_count(), set_a.size() + set_b.size() + set_c.size());
}

TEST(DigestIndexTest, MissingDigestCollectsNothing) {
  prefix::DigestIndex index;
  crypto::Digest d;
  d.bytes[0] = 0xab;
  std::vector<std::uint32_t> owners;
  EXPECT_EQ(index.collect(d, owners), 0u);
  index.insert(d, 5);
  crypto::Digest other = d;
  other.bytes[31] ^= 1;
  EXPECT_EQ(index.collect(other, owners), 0u);
  EXPECT_EQ(index.collect(d, owners), 1u);
  EXPECT_EQ(owners, std::vector<std::uint32_t>{5u});
}

TEST(DigestIndexTest, SurvivesRehashing) {
  Rng rng(11);
  prefix::DigestIndex index;  // no reserve: forces several growth steps
  std::vector<crypto::Digest> digests;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    crypto::Digest d;
    for (auto& b : d.bytes) b = static_cast<std::uint8_t>(rng.below(256));
    digests.push_back(d);
    index.insert(d, i);
  }
  EXPECT_EQ(index.distinct_digests(), 3000u);
  std::vector<std::uint32_t> owners;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    owners.clear();
    ASSERT_EQ(index.collect(digests[i], owners), 1u);
    EXPECT_EQ(owners[0], i);
  }
}

TEST(DigestIndexTest, ReservePreSizesSoInsertionsNeverRehash) {
  Rng rng(13);
  prefix::DigestIndex index;
  EXPECT_EQ(index.slot_capacity(), 0u);
  const std::size_t expected = 1777;  // deliberately not a power of two
  index.reserve(expected);
  const std::size_t capacity = index.slot_capacity();
  EXPECT_GE(capacity, 2 * expected);  // load factor stays <= 0.5
  // A slot is 8 bytes (chain head + key position); the 32-byte keys live
  // in a dense array with one entry per occupied slot, and reserve
  // pre-sizes it and the owner chains to `expected` as well.
  const std::size_t reserved = index.memory_bytes();
  EXPECT_GE(reserved, capacity * 8 + expected * (32 + 8));
  EXPECT_LT(reserved, capacity * 32);  // no key stored per empty slot
  for (std::uint32_t i = 0; i < expected; ++i) {
    crypto::Digest d;
    for (auto& b : d.bytes) b = static_cast<std::uint8_t>(rng.below(256));
    index.insert(d, i);
    // The conflict build pre-sizes each axis index from its exact
    // digest count; this pin is what makes that sizing a no-rehash,
    // no-reallocation guarantee rather than a heuristic.
    ASSERT_EQ(index.slot_capacity(), capacity) << "rehashed at insert " << i;
    ASSERT_EQ(index.memory_bytes(), reserved) << "regrew at insert " << i;
  }
  EXPECT_EQ(index.entry_count(), expected);
  EXPECT_LE(index.distinct_digests(), expected);
  // One insert beyond the reservation may legitimately grow the table.
  crypto::Digest extra;
  extra.bytes[0] = 0x5a;
  index.insert(extra, 0);
  EXPECT_GE(index.slot_capacity(), capacity);
  EXPECT_GE(index.memory_bytes(),
            index.slot_capacity() * 8 + index.distinct_digests() * 32);
}

TEST(DigestIndexTest, RehashCompactsKeysOfErasedDigests) {
  // Erased digests keep their key until a rehash drops the dead slot and
  // compacts the key array; every live digest must survive the move.
  Rng rng(17);
  prefix::DigestIndex index;
  std::vector<crypto::Digest> digests;
  for (std::uint32_t i = 0; i < 200; ++i) {
    crypto::Digest d;
    for (auto& b : d.bytes) b = static_cast<std::uint8_t>(rng.below(256));
    digests.push_back(d);
    index.insert(d, i);
  }
  for (std::uint32_t i = 0; i < 200; i += 2) {
    ASSERT_TRUE(index.erase(digests[i], i));
  }
  EXPECT_EQ(index.distinct_digests(), 200u);  // dead keys linger
  // Fresh digests until the table rehashes.
  const std::size_t capacity = index.slot_capacity();
  std::uint32_t owner = 1000;
  while (index.slot_capacity() == capacity) {
    crypto::Digest d;
    for (auto& b : d.bytes) b = static_cast<std::uint8_t>(rng.below(256));
    digests.push_back(d);
    index.insert(d, owner++);
  }
  EXPECT_EQ(index.distinct_digests(), digests.size() - 100);
  std::vector<std::uint32_t> owners;
  for (std::uint32_t i = 0; i < digests.size(); ++i) {
    owners.clear();
    const bool erased = i < 200 && i % 2 == 0;
    ASSERT_EQ(index.collect(digests[i], owners), erased ? 0u : 1u) << i;
    if (!erased) {
      EXPECT_EQ(owners[0], i < 200 ? i : 1000 + (i - 200));
    }
  }
}

TEST(DigestIndexTest, ReserveZeroIsSafeAndUsable) {
  // The churn layer sizes per-tile indexes from live digest counts,
  // which hit zero whenever a tile empties out — reserve(0) must neither
  // divide by zero nor leave the table unusable.
  prefix::DigestIndex index;
  index.reserve(0);
  const std::size_t capacity = index.slot_capacity();
  EXPECT_GT(capacity, 0u);
  EXPECT_EQ(capacity & (capacity - 1), 0u) << "capacity not a power of two";
  EXPECT_GT(index.memory_bytes(), 0u);
  EXPECT_EQ(index.entry_count(), 0u);
  EXPECT_EQ(index.distinct_digests(), 0u);

  crypto::Digest d;
  d.bytes[7] = 0x42;
  std::vector<std::uint32_t> owners;
  EXPECT_EQ(index.collect(d, owners), 0u);
  EXPECT_FALSE(index.erase(d, 3));
  index.insert(d, 3);
  ASSERT_EQ(index.collect(d, owners), 1u);
  EXPECT_EQ(owners, std::vector<std::uint32_t>{3u});
}

TEST(DigestIndexTest, AllDuplicateDigestsNeverRehash) {
  // Pathological input: every insertion carries the SAME digest (one
  // occupied slot, arbitrarily long owner chain).  The load factor is
  // measured in occupied slots, so no amount of duplicates may trigger a
  // rehash, and the capacity/footprint figures must stay sane.
  prefix::DigestIndex index;
  index.reserve(8);
  const std::size_t capacity = index.slot_capacity();
  crypto::Digest d;
  d.bytes[0] = 0xee;
  constexpr std::uint32_t kOwners = 10000;
  for (std::uint32_t owner = 0; owner < kOwners; ++owner) {
    index.insert(d, owner);
    ASSERT_EQ(index.slot_capacity(), capacity)
        << "duplicate insert " << owner << " rehashed";
  }
  EXPECT_EQ(index.distinct_digests(), 1u);
  EXPECT_EQ(index.entry_count(), kOwners);
  EXPECT_GT(index.memory_bytes(), kOwners * sizeof(std::uint32_t));
  std::vector<std::uint32_t> owners;
  EXPECT_EQ(index.collect(d, owners), static_cast<std::size_t>(kOwners));

  // Erasure walks the chain by owner and recycles entries; the slot
  // itself stays occupied (dead chain) so probing remains intact.
  for (std::uint32_t owner = 0; owner < kOwners; ++owner) {
    EXPECT_TRUE(index.erase(d, owner));
  }
  EXPECT_EQ(index.entry_count(), 0u);
  owners.clear();
  EXPECT_EQ(index.collect(d, owners), 0u);
  index.insert(d, 7);  // revives the dead chain in place
  ASSERT_EQ(index.collect(d, owners), 1u);
  EXPECT_EQ(owners, std::vector<std::uint32_t>{7u});
  EXPECT_EQ(index.distinct_digests(), 1u);
}

TEST(DigestIndexTest, EraseIsMultisetSymmetricWithInsert) {
  // An owner can legitimately hold the same digest twice (family and
  // range covers share short prefixes); erase must remove exactly one
  // pair per call, mirroring insert call-for-call.
  prefix::DigestIndex index;
  crypto::Digest d;
  d.bytes[3] = 0x99;
  index.insert(d, 5);
  index.insert(d, 5);
  EXPECT_EQ(index.entry_count(), 2u);
  EXPECT_TRUE(index.erase(d, 5));
  std::vector<std::uint32_t> owners;
  ASSERT_EQ(index.collect(d, owners), 1u);
  EXPECT_EQ(owners, std::vector<std::uint32_t>{5u});
  EXPECT_TRUE(index.erase(d, 5));
  EXPECT_FALSE(index.erase(d, 5));
  EXPECT_EQ(index.entry_count(), 0u);
}

/// Builds `index` from `sets` (owner j holds sets[j]) by the bulk
/// build or by insert_all of each set in turn.
void fill_index(prefix::DigestIndex& index,
                const std::vector<prefix::HashedPrefixSet>& sets, bool bulk) {
  if (bulk) {
    std::vector<const prefix::HashedPrefixSet*> ptrs;
    for (const auto& set : sets) ptrs.push_back(&set);
    index.build(ptrs);
  } else {
    for (std::uint32_t j = 0; j < sets.size(); ++j) {
      index.insert_all(sets[j], j);
    }
  }
}

std::vector<std::uint32_t> sorted_owners(const prefix::DigestIndex& index,
                                         const crypto::Digest& d) {
  std::vector<std::uint32_t> owners;
  index.collect(d, owners);
  std::sort(owners.begin(), owners.end());
  return owners;
}

TEST(DigestIndexTest, FingerprintTwinsStayDistinctKeys) {
  // Forged digests that agree on their first 8 bytes share a home slot
  // and a tag; only the ct_equal confirmation tells them apart.
  Rng rng(41);
  crypto::Digest base;
  for (auto& b : base.bytes) b = static_cast<std::uint8_t>(rng.below(256));
  std::vector<crypto::Digest> twins(6, base);
  for (std::size_t i = 1; i < twins.size(); ++i) {
    twins[i].bytes[8 + 5 * (i - 1)] ^= 0x01;  // bytes 8, 13, 18, 23, 28
  }
  crypto::Digest absent = base;
  absent.bytes[31] ^= 0x40;
  for (const auto& t : twins) ASSERT_EQ(t.fingerprint(), base.fingerprint());

  for (const bool bulk : {true, false}) {
    SCOPED_TRACE(bulk ? "bulk build" : "inserts");
    // Owner i holds twin i; owner 6 also holds twins 1 and 2.
    std::vector<prefix::HashedPrefixSet> sets;
    for (const auto& t : twins) {
      sets.push_back(prefix::HashedPrefixSet::from_digests({t}));
    }
    sets.push_back(prefix::HashedPrefixSet::from_digests({twins[1], twins[2]}));
    prefix::DigestIndex index;
    fill_index(index, sets, bulk);
    EXPECT_EQ(index.distinct_digests(), twins.size());
    EXPECT_EQ(index.entry_count(), twins.size() + 2);
    for (std::uint32_t i = 0; i < twins.size(); ++i) {
      const std::vector<std::uint32_t> expected =
          i == 1 || i == 2 ? std::vector<std::uint32_t>{i, 6}
                           : std::vector<std::uint32_t>{i};
      EXPECT_EQ(sorted_owners(index, twins[i]), expected) << "twin " << i;
    }
    EXPECT_TRUE(sorted_owners(index, absent).empty());

    // Erasing one twin's owners leaves every other twin untouched.
    EXPECT_FALSE(index.erase(twins[1], 2));
    EXPECT_TRUE(index.erase(twins[1], 1));
    EXPECT_EQ(sorted_owners(index, twins[1]), std::vector<std::uint32_t>{6});
    EXPECT_TRUE(index.erase(twins[1], 6));
    EXPECT_TRUE(sorted_owners(index, twins[1]).empty());
    EXPECT_FALSE(index.erase(twins[1], 1));
    EXPECT_EQ(sorted_owners(index, twins[2]),
              (std::vector<std::uint32_t>{2, 6}));
    for (std::uint32_t i : {0u, 3u, 4u, 5u}) {
      EXPECT_EQ(sorted_owners(index, twins[i]), std::vector<std::uint32_t>{i});
    }
    EXPECT_FALSE(index.erase(absent, 0));
    EXPECT_EQ(index.entry_count(), twins.size());
  }
}

TEST(DigestIndexTest, BulkBuildMatchesInsertsUnderChurn) {
  // A bulk-built index (contiguous owner runs) and an insert-built one
  // go through the same seeded erase/insert sequence; the pool of
  // digests keeps growing, so dead keys pile up until rehashes compact
  // them, and a final burst forces the slot array to grow.  Both must
  // report the same owner multiset for every digest after every step.
  Rng rng(2024);
  std::vector<crypto::Digest> pool;
  const auto add_fresh = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      crypto::Digest d;
      for (auto& b : d.bytes) b = static_cast<std::uint8_t>(rng.below(256));
      pool.push_back(d);
    }
  };
  // Sets draw with replacement from the pool: digests shared across
  // owners (long chains), repeated within one set, and empty sets.
  const auto random_set = [&] {
    std::vector<crypto::Digest> ds(rng.below(12));
    for (auto& d : ds) d = pool[rng.below(pool.size())];
    return prefix::HashedPrefixSet::from_digests(std::move(ds));
  };
  add_fresh(300);
  constexpr std::uint32_t kOwners = 80;
  std::vector<prefix::HashedPrefixSet> sets;
  for (std::uint32_t j = 0; j < kOwners; ++j) sets.push_back(random_set());

  prefix::DigestIndex bulk;
  prefix::DigestIndex inserted;
  fill_index(bulk, sets, true);
  fill_index(inserted, sets, false);
  const auto expect_same = [&](int step) {
    ASSERT_EQ(bulk.entry_count(), inserted.entry_count()) << "step " << step;
    for (const auto& d : pool) {
      ASSERT_EQ(sorted_owners(bulk, d), sorted_owners(inserted, d))
          << "step " << step;
    }
  };
  expect_same(-1);

  const std::size_t capacity = bulk.slot_capacity();
  bool compacted = false;
  for (int step = 0; step < 400; ++step) {
    if (step % 40 == 0) add_fresh(150);
    const auto o = static_cast<std::uint32_t>(rng.below(kOwners));
    const std::size_t keys_before = bulk.distinct_digests();
    ASSERT_EQ(bulk.erase_all(sets[o], o), inserted.erase_all(sets[o], o));
    sets[o] = random_set();
    bulk.insert_all(sets[o], o);
    inserted.insert_all(sets[o], o);
    compacted = compacted || bulk.distinct_digests() < keys_before;
    expect_same(step);
  }
  EXPECT_TRUE(compacted) << "no rehash compacted the bulk-built index";

  // Growth: one owner takes many fresh digests at once.
  const std::size_t first_fresh = pool.size();
  add_fresh(4 * capacity);
  for (std::size_t k = first_fresh; k < pool.size(); ++k) {
    bulk.insert(pool[k], 0);
    inserted.insert(pool[k], 0);
  }
  EXPECT_GT(bulk.slot_capacity(), capacity);
  expect_same(400);
}

TEST(ConflictIndexTest, IndexedMatchesPairwiseOver200RandomScenarios) {
  Rng rng(20130708);
  for (int scenario = 0; scenario < 220; ++scenario) {
    const int width = static_cast<int>(rng.uniform_int(8, 14));
    const std::uint64_t max_coord = (std::uint64_t{1} << width) - 1;
    const std::uint64_t lambda = rng.below(max_coord / 4 + 1);
    const bool pad = rng.bernoulli(0.5);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 40));

    const auto g0 = crypto::SecretKey::generate(rng);
    const PpbsLocation protocol(g0, width, lambda, pad);
    std::vector<LocationSubmission> subs;
    subs.reserve(n);
    const std::uint64_t hi = max_coord - 2 * lambda;
    for (std::size_t i = 0; i < n; ++i) {
      subs.push_back(protocol.submit({rng.below(hi + 1), rng.below(hi + 1)},
                                     rng));
    }

    const auto pairwise = oracles::conflict_graph_pairwise(subs);
    const auto indexed = PpbsLocation::build_conflict_graph(subs, 1);
    const auto indexed_mt = PpbsLocation::build_conflict_graph(subs, 3);
    ASSERT_EQ(indexed, pairwise)
        << "scenario " << scenario << " width=" << width
        << " lambda=" << lambda << " pad=" << pad << " n=" << n;
    ASSERT_EQ(indexed_mt, pairwise)
        << "scenario " << scenario << " (3 threads)";
  }
}

TEST(ConflictIndexTest, DegenerateInputsMatchPairwise) {
  Rng rng(99);
  const auto g0 = crypto::SecretKey::generate(rng);
  const int width = 10;
  const std::uint64_t lambda = 16;
  const PpbsLocation protocol(g0, width, lambda, /*pad_ranges=*/true);

  // Zero SUs: both builds reject identically (a conflict graph over an
  // empty population is a caller error, not an empty graph).
  const std::vector<LocationSubmission> none;
  EXPECT_THROW(oracles::conflict_graph_pairwise(none), LppaError);
  EXPECT_THROW(PpbsLocation::build_conflict_graph(none, 1), LppaError);
  EXPECT_THROW(PpbsLocation::build_conflict_graph(none, 4), LppaError);

  // One SU: a single node, no self-edge.
  const std::vector<LocationSubmission> one{protocol.submit({100, 100}, rng)};
  const auto one_pairwise = oracles::conflict_graph_pairwise(one);
  EXPECT_EQ(PpbsLocation::build_conflict_graph(one, 1), one_pairwise);
  EXPECT_EQ(one_pairwise.num_users(), 1u);
  EXPECT_FALSE(one_pairwise.conflicts(0, 0));

  // All-identical locations: every pair conflicts, and (crucially for
  // the hash-join) every digest bucket holds every SU.
  std::vector<LocationSubmission> same;
  for (int i = 0; i < 6; ++i) same.push_back(protocol.submit({64, 64}, rng));
  const auto same_pairwise = oracles::conflict_graph_pairwise(same);
  EXPECT_EQ(PpbsLocation::build_conflict_graph(same, 1), same_pairwise);
  EXPECT_EQ(PpbsLocation::build_conflict_graph(same, 3), same_pairwise);
  for (std::size_t i = 0; i < same.size(); ++i) {
    for (std::size_t j = i + 1; j < same.size(); ++j) {
      EXPECT_TRUE(same_pairwise.conflicts(i, j));
    }
  }

  // Grid boundary: corners of the coordinate space, where loc±2λ clamps
  // against 0 and the width limit.
  const std::uint64_t hi = ((std::uint64_t{1} << width) - 1) - 2 * lambda;
  std::vector<LocationSubmission> corners;
  for (const auto& loc : std::vector<auction::SuLocation>{
           {0, 0}, {0, hi}, {hi, 0}, {hi, hi}, {hi / 2, hi / 2}}) {
    corners.push_back(protocol.submit(loc, rng));
  }
  const auto corner_pairwise =
      oracles::conflict_graph_pairwise(corners);
  EXPECT_EQ(PpbsLocation::build_conflict_graph(corners, 1), corner_pairwise);
  EXPECT_EQ(PpbsLocation::build_conflict_graph(corners, 4), corner_pairwise);
}

LppaOutcome run_with_threads(std::size_t num_threads) {
  LppaConfig cfg;
  cfg.num_channels = 6;
  cfg.lambda = 60;
  cfg.coord_width = 14;
  cfg.num_threads = num_threads;
  cfg.charging_rule = ChargingRule::kSecondPrice;
  cfg.bid = PpbsBidConfig::advanced(15, 3, 4,
                                    ZeroDisguisePolicy::linear(15, 0.3));
  LppaAuction auction(cfg, /*ttp_seed=*/99);

  Rng rng(4242);
  const std::uint64_t hi = ((std::uint64_t{1} << 14) - 1) - 2 * cfg.lambda;
  std::vector<auction::SuLocation> locations;
  std::vector<BidVector> bids;
  for (int i = 0; i < 48; ++i) {
    locations.push_back({rng.below(hi + 1), rng.below(hi + 1)});
    BidVector bv(cfg.num_channels);
    for (auto& b : bv) b = rng.below(16);
    bids.push_back(bv);
  }
  return auction.run(locations, bids, rng);
}

TEST(ConflictIndexTest, JoinDedupesHitsAndCutsOutTheQueryingId) {
  // Hand-placed digests: the querying SU 1 hits SU 0 through two of its
  // x digests (one distinct hit), hits itself on both axes (never a
  // partner), and hits SU 3 on x only (a hit, not a partner).
  Rng rng(7);
  const auto digest = [&] {
    crypto::Digest d;
    for (auto& b : d.bytes) b = static_cast<std::uint8_t>(rng.below(256));
    return d;
  };
  const crypto::Digest a = digest(), b = digest(), c = digest(), d = digest();
  const auto set = [](std::vector<crypto::Digest> digests) {
    return prefix::HashedPrefixSet::from_digests(std::move(digests));
  };
  std::vector<LocationSubmission> subs(4);
  subs[0].x_range = set({a, b});
  subs[0].y_range = set({c});
  subs[1].x_range = set({a});
  subs[1].y_range = set({d});
  subs[2].x_range = set({b});
  subs[2].y_range = set({c, d});
  subs[3].x_range = set({a});
  const IndexPair index =
      build_index_pair(subs, &LocationSubmission::x_range,
                       &LocationSubmission::y_range, /*num_threads=*/1);
  const prefix::HashedPrefixSet x_query = set({a, b});
  const prefix::HashedPrefixSet y_query = set({c, d});

  const JoinResult above =
      join_partners(x_query, y_query, index, 1, JoinCut::kAbove);
  EXPECT_EQ(above.ids, std::vector<std::uint32_t>({2}));
  EXPECT_EQ(above.x_hits, 2u);  // SUs 2 and 3
  EXPECT_EQ(above.y_hits, 1u);  // SU 2

  const JoinResult below =
      join_partners(x_query, y_query, index, 1, JoinCut::kBelow);
  EXPECT_EQ(below.ids, std::vector<std::uint32_t>({0}));
  EXPECT_EQ(below.x_hits, 1u);  // SU 0, reached through a and b
  EXPECT_EQ(below.y_hits, 1u);
}

TEST(ConflictIndexTest, EmptySubmissionsIndexAndJoinNothing) {
  // The churn roster's dead slots hold empty submissions: the index
  // builder must skip them, a join from one must find nothing, and live
  // SUs around them keep exactly their pairwise edges.
  Rng rng(123);
  const auto g0 = crypto::SecretKey::generate(rng);
  const PpbsLocation protocol(g0, 10, 20, true);
  std::vector<LocationSubmission> subs(9);
  std::size_t x_ranges = 0, y_families = 0;
  for (std::size_t i = 0; i < subs.size(); i += 2) {
    subs[i] = protocol.submit({400 + 10 * i, 500 - 5 * i}, rng);
    x_ranges += subs[i].x_range.size();
    y_families += subs[i].y_family.size();
  }
  const IndexPair ranges =
      build_index_pair(subs, &LocationSubmission::x_range,
                       &LocationSubmission::y_range, /*num_threads=*/2);
  const IndexPair families =
      build_index_pair(subs, &LocationSubmission::x_family,
                       &LocationSubmission::y_family, /*num_threads=*/2);
  EXPECT_EQ(ranges.x.entry_count(), x_ranges);
  EXPECT_EQ(families.y.entry_count(), y_families);
  for (std::uint32_t dead = 1; dead < subs.size(); dead += 2) {
    for (const JoinCut cut : {JoinCut::kAbove, JoinCut::kBelow}) {
      const JoinResult hit = join_partners(subs[dead].x_family,
                                           subs[dead].y_family, ranges, dead,
                                           cut);
      EXPECT_TRUE(hit.ids.empty());
      EXPECT_EQ(hit.x_hits + hit.y_hits, 0u);
    }
  }
  const auto graph = build_conflict_graph(subs, /*num_threads=*/3);
  EXPECT_EQ(graph, oracles::conflict_graph_pairwise(subs));
  EXPECT_GT(graph.edge_count(), 0u);
  for (std::size_t dead = 1; dead < subs.size(); dead += 2) {
    EXPECT_TRUE(graph.neighbors(dead).empty()) << "slot " << dead;
  }
}

TEST(ConflictIndexTest, ThreadCountIsObservationallyIrrelevant) {
  const LppaOutcome serial = run_with_threads(1);
  const LppaOutcome parallel = run_with_threads(4);

  EXPECT_EQ(parallel.view.locations, serial.view.locations);
  EXPECT_EQ(parallel.view.bids, serial.view.bids);
  EXPECT_EQ(parallel.view.conflicts, serial.view.conflicts);
  EXPECT_EQ(parallel.view.awards, serial.view.awards);
  EXPECT_EQ(parallel.view.location_wire_bytes,
            serial.view.location_wire_bytes);
  EXPECT_EQ(parallel.view.bid_wire_bytes, serial.view.bid_wire_bytes);
  EXPECT_EQ(parallel.outcome.awards, serial.outcome.awards);
  EXPECT_EQ(parallel.manipulations_detected, serial.manipulations_detected);

  // Byte-identical on the wire, too.
  ASSERT_EQ(parallel.view.locations.size(), serial.view.locations.size());
  for (std::size_t i = 0; i < serial.view.locations.size(); ++i) {
    EXPECT_EQ(parallel.view.locations[i].serialize(),
              serial.view.locations[i].serialize());
    EXPECT_EQ(parallel.view.bids[i].serialize(),
              serial.view.bids[i].serialize());
  }
}

}  // namespace
}  // namespace lppa::core
