#include "auction/conflict.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace lppa::auction {
namespace {

TEST(LocationsConflict, InclusiveThreshold) {
  const std::uint64_t lambda = 5;  // conflict iff both deltas <= 10
  EXPECT_TRUE(locations_conflict({100, 100}, {100, 100}, lambda));
  EXPECT_TRUE(locations_conflict({100, 100}, {110, 100}, lambda));
  EXPECT_TRUE(locations_conflict({100, 100}, {110, 110}, lambda));
  EXPECT_FALSE(locations_conflict({100, 100}, {111, 100}, lambda));
  EXPECT_FALSE(locations_conflict({100, 100}, {100, 111}, lambda));
}

TEST(LocationsConflict, RequiresBothAxes) {
  const std::uint64_t lambda = 5;
  // Close in x, far in y.
  EXPECT_FALSE(locations_conflict({0, 0}, {1, 100}, lambda));
  // Close in y, far in x.
  EXPECT_FALSE(locations_conflict({0, 0}, {100, 1}, lambda));
}

TEST(LocationsConflict, Symmetric) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const SuLocation a{rng.below(1000), rng.below(1000)};
    const SuLocation b{rng.below(1000), rng.below(1000)};
    const std::uint64_t lambda = rng.below(50) + 1;
    EXPECT_EQ(locations_conflict(a, b, lambda),
              locations_conflict(b, a, lambda));
  }
}

TEST(ConflictGraph, RejectsEmpty) {
  EXPECT_THROW(ConflictGraph g(0), LppaError);
}

TEST(ConflictGraph, AddAndQuery) {
  ConflictGraph g(4);
  g.add_conflict(0, 2);
  EXPECT_TRUE(g.conflicts(0, 2));
  EXPECT_TRUE(g.conflicts(2, 0));
  EXPECT_FALSE(g.conflicts(0, 1));
  EXPECT_FALSE(g.conflicts(0, 0));  // no self conflicts
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(ConflictGraph, RejectsSelfAndOutOfRange) {
  ConflictGraph g(3);
  EXPECT_THROW(g.add_conflict(1, 1), LppaError);
  EXPECT_THROW(g.add_conflict(0, 3), LppaError);
  EXPECT_THROW(g.conflicts(3, 0), LppaError);
  EXPECT_THROW(g.neighbors(3), LppaError);
}

TEST(ConflictGraph, NeighborsAreSortedIds) {
  ConflictGraph g(5);
  g.add_conflict(0, 3);
  g.add_conflict(0, 1);
  g.add_conflict(1, 0);  // an edge added twice is one edge
  const auto n0 = g.neighbors(0);
  EXPECT_EQ(std::vector<std::uint32_t>(n0.begin(), n0.end()),
            (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(g.neighbors(2).size(), 0u);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(ConflictGraph, RemoveSuDetachesOnlyItsEdgesAndKeepsEquality) {
  // Sparse lists are canonical (sorted, duplicate-free), so a graph that
  // reached an edge set by deltas equals one built directly.
  ConflictGraph g(6);
  g.add_conflict(4, 1);
  g.add_conflict(2, 4);
  g.add_conflict(1, 2);
  g.add_conflict(5, 0);
  g.remove_su(4);
  EXPECT_TRUE(g.neighbors(4).empty());
  ConflictGraph want(6);
  want.add_conflict(1, 2);
  want.add_conflict(0, 5);
  EXPECT_EQ(g, want);
  g.add_su(4, {5, 1});
  want.add_conflict(1, 4);
  want.add_conflict(4, 5);
  EXPECT_EQ(g, want);
  EXPECT_NE(g, ConflictGraph(6));
  EXPECT_THROW(g.add_su(4, {0}), LppaError);  // 4 is not isolated
}

TEST(ConflictGraph, FromLocationsMatchesPredicate) {
  Rng rng(17);
  std::vector<SuLocation> locs;
  for (int i = 0; i < 40; ++i) {
    locs.push_back({rng.below(500), rng.below(500)});
  }
  const std::uint64_t lambda = 30;
  const ConflictGraph g = ConflictGraph::from_locations(locs, lambda);
  for (std::size_t i = 0; i < locs.size(); ++i) {
    for (std::size_t j = 0; j < locs.size(); ++j) {
      if (i == j) continue;
      EXPECT_EQ(g.conflicts(i, j),
                locations_conflict(locs[i], locs[j], lambda))
          << i << "," << j;
    }
  }
}

TEST(ConflictGraph, SweepVariantMatchesQuadraticExactly) {
  Rng rng(23);
  for (int round = 0; round < 20; ++round) {
    std::vector<SuLocation> locs;
    const std::size_t n = 1 + rng.below(60);
    for (std::size_t i = 0; i < n; ++i) {
      locs.push_back({rng.below(2000), rng.below(2000)});
    }
    const std::uint64_t lambda = rng.below(200);
    EXPECT_EQ(ConflictGraph::from_locations_sweep(locs, lambda),
              ConflictGraph::from_locations(locs, lambda))
        << "round " << round;
  }
}

TEST(ConflictGraph, SweepHandlesDuplicatesAndTies) {
  // Identical coordinates and exact-2λ gaps are the sweep's edge cases.
  std::vector<SuLocation> locs = {{10, 10}, {10, 10}, {30, 10}, {31, 10}};
  const std::uint64_t lambda = 10;  // conflict iff gap <= 20
  EXPECT_EQ(ConflictGraph::from_locations_sweep(locs, lambda),
            ConflictGraph::from_locations(locs, lambda));
}

TEST(ConflictGraph, DenseClusterFullyConnected) {
  // All users in one tiny cluster conflict pairwise.
  std::vector<SuLocation> locs = {{10, 10}, {11, 12}, {12, 11}, {9, 9}};
  const ConflictGraph g = ConflictGraph::from_locations(locs, 10);
  EXPECT_EQ(g.edge_count(), 6u);  // complete K4
}

TEST(ConflictGraph, SparseUsersHaveNoEdges) {
  std::vector<SuLocation> locs = {{0, 0}, {1000, 0}, {0, 1000}, {1000, 1000}};
  const ConflictGraph g = ConflictGraph::from_locations(locs, 10);
  EXPECT_EQ(g.edge_count(), 0u);
}

}  // namespace
}  // namespace lppa::auction
