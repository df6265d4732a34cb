// ChurnState: incrementally maintained auctioneer round state under SU
// churn and mobility (arrivals, departures, moves, re-bids).
//
// The from-scratch pipeline rebuilds the conflict graph and the
// encrypted bid table from all n submissions every round — O(n·w)
// digest work even when only Δ ≪ n users changed.  ChurnState keeps both
// structures live across rounds and applies per-SU delta updates:
// O(Δ·w) expected digest work for the graph and indexes, and for the
// k-column table O(Δ·k·log n) masked compares plus an O(Δ·k·n) id
// memmove:
//
//   * the roster is a fixed slot universe of `capacity` SUs.  A dead
//     slot holds an empty LocationSubmission (no digests — it can never
//     intersect anything) and a stale but shape-valid BidSubmission
//     (fully tombstoned in the table), so every maintained structure is
//     comparable by == / byte equality to a from-scratch rebuild over
//     the same roster;
//   * two IndexPairs (core/conflict_index.h) stay live: the range pair
//     the construction's conflict build made (x-range and y-range
//     digests of every live SU) and a family pair (their x-family and
//     y-family digests).  An arriving SU u finds its conflicts with one
//     join in each direction: its families against the range pair, cut
//     j > u, exactly as the build's probe step does; and its ranges
//     against the family pair, cut i < u.  For every pair involving u
//     both test family_i against range_u (i the lower id) on each axis —
//     the digest multisets the rebuild tests — so the maintained graph
//     is IDENTICAL to the rebuilt one (not merely equal w.h.p.);
//   * the conflict graph applies add_su/remove_su/move_su deltas, and
//     the one bid table over every slot re-activates tombstoned slots
//     in place via EncryptedBidTable::insert_user — its column orders
//     stay the exact
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

#include "core/conflict_index.h"
#include "core/encrypted_bid_table.h"
#include "core/lppa_auction.h"
#include "core/sharded_bid_table.h"

namespace lppa::core {

class ChurnState {
 public:
  /// Builds the maintained state over an initial roster.  The three
  /// named vectors must have the same size (the roster capacity, >= 1);
  /// slots with live[u] == false must carry an empty (default-constructed)
  /// LocationSubmission and a shape-valid placeholder BidSubmission
  /// covering every channel (e.g. a masked all-zero bid) — the table
  /// needs the shape, but the values are never consulted while dead.
  /// config.backend must resolve to config.bid.backend (null is the HMAC
  /// backend; a Paillier roster passes the TTP's bid_backend()).  With
  /// config.metrics set, the build records a "churn.build" span with the
  /// two conflict.index_build spans (range pair, family pair), the
  /// conflict.probe span and one table.build span under it.
  /// The SuLocation parameters here and in add_su / move_su are unused
  /// (the auctioneer holds no plaintext coordinates); callers pass them.
  ChurnState(const LppaConfig& config,
             std::vector<auction::SuLocation> /*locations*/,
             std::vector<LocationSubmission> loc_subs,
             std::vector<BidSubmission> bid_subs, std::vector<bool> live);

  /// An SU arrives into dead slot u with a fresh masked submission pair.
  void add_su(std::size_t u, const auction::SuLocation& /*loc*/,
              LocationSubmission loc_sub, BidSubmission bid_sub);

  /// Live SU u departs: its edges, digests and table row are retired;
  /// the slot becomes dead (and reusable).
  void remove_su(std::size_t u);

  /// Live SU u moves: location submission/graph/indexes update; its bid
  /// row is untouched (a move without a re-bid keeps the old bids).
  void move_su(std::size_t u, const auction::SuLocation& /*loc*/,
               LocationSubmission loc_sub);

  /// Live SU u replaces its bid submission (fresh masks each round, as
  /// repeated participation requires).
  void rebid_su(std::size_t u, BidSubmission bid_sub);

  // --- Maintained state (the auctioneer's round inputs) ------------------
  std::size_t capacity() const noexcept { return loc_subs_.size(); }
  std::size_t live_count() const noexcept { return live_count_; }
  const std::vector<bool>& live() const noexcept { return live_; }
  const std::vector<LocationSubmission>& locations() const noexcept {
    return loc_subs_;
  }
  const std::vector<BidSubmission>& bids() const noexcept { return bid_subs_; }
  const auction::ConflictGraph& graph() const noexcept { return graph_; }
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
  /// with the same builder the full pipeline uses.
  auction::ConflictGraph rebuild_conflicts() const;

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

  /// Detaches u's edges and erases its digests from both index pairs.
  void unlink_su(std::size_t u);

  LppaConfig config_;
  std::size_t channels_ = 0;
  std::vector<LocationSubmission> loc_subs_;
  std::vector<BidSubmission> bid_subs_;
  std::vector<bool> live_;
  std::size_t live_count_ = 0;
  auction::ConflictGraph graph_;
  /// x-range and y-range digests of every live SU — the index pair the
  /// construction's conflict build made; arrivals join their families
  /// against it to find upper partners.
  IndexPair range_index_;
  /// x-family and y-family digests of every live SU; arrivals join their
  /// ranges against it to find lower partners.
  IndexPair family_index_;
  std::optional<EncryptedBidTable> table_;
};

}  // namespace lppa::core
