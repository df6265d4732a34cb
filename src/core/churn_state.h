// ChurnState: incrementally maintained auctioneer round state under SU
// churn and mobility (arrivals, departures, moves, re-bids).
//
// The from-scratch pipeline rebuilds the shard assignment, the conflict
// graph, and the encrypted bid table from all n submissions every round
// — O(n·w) digest work even when only Δ ≪ n users changed.  ChurnState
// keeps all three structures live across rounds and applies per-SU delta
// updates: O(Δ·w) expected digest work for the graph and indexes, and
// for the k-column table O(Δ·k·log n) masked compares plus an O(Δ·k·n)
// id memmove:
//
//   * the roster is a fixed slot universe of `capacity` SUs.  A dead
//     slot holds an empty LocationSubmission (no digests — it can never
//     intersect anything) and a stale but shape-valid BidSubmission
//     (fully tombstoned in the table), so every maintained structure is
//     comparable by == / byte equality to a from-scratch rebuild over
//     the same roster;
//   * per tile, the construction's conflict build leaves a TileIndex —
//     the x-range and y-range digests of members + halo — and ChurnState
//     keeps it live, next to a churn-only family index (x-family digests
//     of members only).  An arriving SU u finds its conflicts (u, j)
//     with j > u exactly as the build's probe step does — the two-axis
//     join of probe_upper_partners against its home tile's index pair —
//     and probes its x-range against the family indexes of every tile
//     its interference box touches to find conflicts (i, u) with i < u,
//     y-confirming those with the sorted-merge i.y_family ∩ u.y_range.
//     Together these test exactly the digest multisets the rebuild
//     tests for every pair involving u, so the maintained graph is
//     IDENTICAL to the rebuilt one (not merely equal w.h.p.);
//   * the conflict graph applies add_su/remove_su/move_su deltas, the
//     shard assignment applies ShardPlan::reassign, and the one bid
//     table over every slot re-activates tombstoned slots in place via
//     EncryptedBidTable::insert_user — its column orders stay the exact
//     (value-descending, id-ascending) canonical order a fresh sort
//     produces, because entries only ever leave or enter at their
//     canonical position (found by binary search) and no in-place value
//     mutation occurs;
//   * every masked comparison — the splice's binary search included —
//     runs through config.backend, so a Paillier roster is ordered by
//     the Paillier test exactly as its rebuild is.
//
// Allocation consumes a table, so a churn round copies the pristine
// maintained table (table_for_allocation) and allocates on the copy.
// The rebuild_* oracles recompute each structure from scratch over the
// current roster; bench/abl_churn asserts bit-equality every round for
// thousands of rounds.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/encrypted_bid_table.h"
#include "core/lppa_auction.h"
#include "core/shard_conflict.h"
#include "core/sharded_bid_table.h"
#include "prefix/digest_index.h"
#include "shard/shard_plan.h"

namespace lppa::core {

class ChurnState {
 public:
  /// Builds the maintained state over an initial roster.  All four
  /// vectors must have the same size (the roster capacity, >= 1); slots
  /// with live[u] == false must carry an empty (default-constructed)
  /// LocationSubmission and a shape-valid placeholder BidSubmission
  /// covering every channel (e.g. a masked all-zero bid) — the table
  /// needs the shape, but the values are never consulted while dead.
  /// config.backend must resolve to config.bid.backend (null is the HMAC
  /// backend; a Paillier roster passes the TTP's bid_backend()).  With
  /// config.metrics set, the build records a "churn.build" span with the
  /// shard.* index and probe spans and one shard.table_build span under
  /// it.
  ChurnState(const LppaConfig& config,
             std::vector<auction::SuLocation> locations,
             std::vector<LocationSubmission> loc_subs,
             std::vector<BidSubmission> bid_subs, std::vector<bool> live);

  /// An SU arrives into dead slot u with a fresh masked submission pair.
  void add_su(std::size_t u, const auction::SuLocation& loc,
              LocationSubmission loc_sub, BidSubmission bid_sub);

  /// Live SU u departs: its edges, digests, tile membership, and table
  /// row are retired; the slot becomes dead (and reusable).
  void remove_su(std::size_t u);

  /// Live SU u moves: location/graph/indexes/assignment update; its bid
  /// row is untouched (a move without a re-bid keeps the old bids).
  void move_su(std::size_t u, const auction::SuLocation& loc,
               LocationSubmission loc_sub);

  /// Live SU u replaces its bid submission (fresh masks each round, as
  /// repeated participation requires).
  void rebid_su(std::size_t u, BidSubmission bid_sub);

  // --- Maintained state (the auctioneer's round inputs) ------------------
  std::size_t capacity() const noexcept { return locations_.size(); }
  std::size_t live_count() const noexcept { return live_count_; }
  const std::vector<bool>& live() const noexcept { return live_; }
  const std::vector<auction::SuLocation>& plain_locations() const noexcept {
    return locations_;
  }
  const std::vector<LocationSubmission>& locations() const noexcept {
    return loc_subs_;
  }
  const std::vector<BidSubmission>& bids() const noexcept { return bid_subs_; }
  const auction::ConflictGraph& graph() const noexcept { return graph_; }
  const shard::ShardAssignment& assignment() const noexcept {
    return assignment_;
  }
  const EncryptedBidTable& table() const noexcept { return *table_; }

  /// Copy of the pristine maintained table for one allocation pass.
  ShardedBidTable table_for_allocation() const {
    return ShardedBidTable(*table_);
  }

  /// Table image (EncryptedBidTable wire format) — the byte-level
  /// equality target against rebuild_table().serialize().
  Bytes serialize_table() const { return table_->serialize(); }

  // --- From-scratch oracles (differential / soak checks) -----------------
  /// Rebuilds the conflict graph from scratch over the current roster
  /// with the same sharded builder the full pipeline uses.
  auction::ConflictGraph rebuild_conflicts() const;

  /// Recomputes the shard assignment from scratch.
  shard::ShardAssignment rebuild_assignment() const;

  /// Rebuilds the bid table from scratch over the current submissions,
  /// then re-applies the dead-slot tombstones.
  EncryptedBidTable rebuild_table() const;

 private:
  /// Probes u's fresh submission against the live indexes, attaches its
  /// edges, and inserts its digests (probe strictly before insert, so u
  /// never discovers itself).
  void link_su(std::size_t u);

  /// Re-activates u's tombstoned table row over its current bid
  /// submission, counting the splice's masked compares.
  void insert_bid_row(std::size_t u);

  /// Detaches u's edges and erases its digests from every index that
  /// holds them (computed from its current location).
  void unlink_su(std::size_t u);

  LppaConfig config_;
  std::size_t channels_ = 0;
  shard::ShardPlan plan_;
  shard::ShardAssignment assignment_;
  std::vector<auction::SuLocation> locations_;
  std::vector<LocationSubmission> loc_subs_;
  std::vector<BidSubmission> bid_subs_;
  std::vector<bool> live_;
  std::size_t live_count_ = 0;
  auction::ConflictGraph graph_;
  /// Per tile: x-range and y-range digests of members + halo (what
  /// arrivals probe their families against, and what ships in the halo
  /// exchange) — the index pairs the construction's conflict build made.
  std::vector<TileIndex> tile_index_;
  /// Per tile: x-family digests of members only (what arrivals probe
  /// their range against, discovering lower-id partners).
  std::vector<prefix::DigestIndex> family_index_;
  std::optional<EncryptedBidTable> table_;
};

}  // namespace lppa::core
