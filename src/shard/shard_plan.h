// ShardPlan: geo-partitioning of the PPBS coordinate space into a grid
// of tiles, one auction partition (shard) per tile.
//
// The paper's interference predicate is strictly local (|Δx| <= 2λ and
// |Δy| <= 2λ, auction/conflict.h), and its evaluation already treats the
// map as four independent areas — so conflict discovery decomposes
// spatially almost for free (the bid table stays one table).  A
// ShardPlan makes that seam explicit: the 2^coord_width-wide square is
// cut into tiles_x × tiles_y near-equal tiles; every SU has one home
// tile, and the only cross-tile state is the HALO — for each tile, the
// foreign SUs whose interference box overlaps it.  Any conflicting pair
// either shares a tile or each endpoint sits in the other endpoint's
// tile halo, so per-tile digest indexes extended by halo entries
// discover exactly the global conflict edge set (core/shard_conflict.h
// carries the proof sketch).
//
// Routing and privacy: tile geometry is public (TTP-published), and each
// SU can derive its own tile id and halo memberships from its plaintext
// coordinates, so the auctioneer learns only tile-granular placement —
// the same coarsening sim/cloaking.h already models and quantifies.
// When the tile grid is a power of two per axis, the tile id is exactly
// the leading log2(tiles) bits of each coordinate — the value whose
// hashed prefix heads the SU's submitted x/y families — i.e. routing
// reads the prefix-range structure of the submission, never a raw
// coordinate.  In this in-process reproduction the plan computes
// assignments directly from the SU-side locations LppaAuction::run
// already holds on the SUs' behalf.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "auction/conflict.h"

namespace lppa::shard {

/// Which SUs each tile owns and which foreign SUs it must see (halo).
struct ShardAssignment {
  std::size_t num_shards = 1;
  /// SU -> home tile.
  std::vector<std::uint32_t> shard_of;
  /// Per tile: owned SU ids, ascending.
  std::vector<std::vector<std::uint32_t>> members;
  /// Per tile: foreign SU ids whose interference box overlaps the tile,
  /// ascending.  These are the entries the halo exchange ships.
  std::vector<std::vector<std::uint32_t>> halo;
  /// Distinct SUs that appear in at least one foreign halo (i.e. sit
  /// within 2λ of their own tile's edge).
  std::size_t boundary_sus = 0;

  /// Total halo list length across tiles (one SU may appear in up to
  /// three foreign halos at a tile corner).
  std::size_t halo_entries() const noexcept {
    std::size_t total = 0;
    for (const auto& h : halo) total += h.size();
    return total;
  }

  bool operator==(const ShardAssignment&) const = default;

  /// All n SUs in tile 0 with empty halos: what any one-tile plan's
  /// assign() returns, built without the locations (the auctioneer's
  /// masked-domain callers have none).
  static ShardAssignment single_tile(std::size_t n);
};

class ShardPlan {
 public:
  /// Tiles the [0, 2^coord_width) square into a tiles_x × tiles_y grid
  /// with tiles_x * tiles_y == num_shards (tiles_x is the divisor of
  /// num_shards closest to its square root from below, so 9 shards make
  /// a 3×3 grid and 2 shards a 1×2 split).  λ only parameterises halo
  /// membership; tile geometry is independent of it, so tiles narrower
  /// than 2λ are legal — the halos then simply cover whole neighbouring
  /// tiles and sharding degrades gracefully instead of miscomputing.
  static ShardPlan make(int coord_width, std::uint64_t lambda,
                        std::size_t num_shards);

  std::size_t num_shards() const noexcept { return tiles_x_ * tiles_y_; }
  std::size_t tiles_x() const noexcept { return tiles_x_; }
  std::size_t tiles_y() const noexcept { return tiles_y_; }
  std::uint64_t lambda() const noexcept { return lambda_; }

  /// Inclusive coordinate bounds of one tile.
  struct TileBounds {
    std::uint64_t x_lo = 0, x_hi = 0, y_lo = 0, y_hi = 0;
  };
  TileBounds bounds(std::uint32_t tile) const;

  /// Home tile of a location (row-major: tile = ty * tiles_x + tx).
  std::uint32_t tile_of(const auction::SuLocation& loc) const noexcept;

  /// True when `loc`'s interference box [loc ± 2λ] reaches outside its
  /// home tile (i.e. the SU is a boundary SU).
  bool on_boundary(const auction::SuLocation& loc) const noexcept;

  /// Foreign tiles touched by `loc`'s clamped interference box — the
  /// halos `loc` belongs to.  Empty iff the SU is not a boundary SU.
  /// The churn layer uses this to know which per-tile digest indexes
  /// hold (or must receive) an SU's x-range entries.
  std::vector<std::uint32_t> halo_tiles_of(
      const auction::SuLocation& loc) const;

  /// Computes the full partition: home tiles, per-tile member lists, and
  /// per-tile halos.  Deterministic — a pure function of the locations
  /// and the plan, independent of any thread count.
  ShardAssignment assign(
      const std::vector<auction::SuLocation>& locations) const;

  /// assign() restricted to the slots `live` marks true — the churn
  /// roster keeps a fixed slot universe where dead slots have no
  /// location.  Dead slots get shard_of = 0 and appear in no member or
  /// halo list, so an incrementally maintained assignment (reassign) is
  /// comparable by == to a from-scratch rebuild over the same roster.
  ShardAssignment assign_live(const std::vector<auction::SuLocation>& locations,
                              const std::vector<bool>& live) const;

  /// Incremental churn update of one SU's membership: `old_loc` →
  /// `new_loc`, where nullopt means absent (so arrival = nullopt→loc,
  /// departure = loc→nullopt, move = loc→loc).  Maintains the ascending
  /// order of every member/halo list and the exact boundary_sus count;
  /// after any event sequence the assignment equals assign_live over the
  /// resulting roster.  O(tiles touched · log n) per event.
  void reassign(ShardAssignment& a, std::uint32_t u,
                const std::optional<auction::SuLocation>& old_loc,
                const std::optional<auction::SuLocation>& new_loc) const;

 private:
  ShardPlan() = default;

  std::size_t tile_x_of(std::uint64_t x) const noexcept;
  std::size_t tile_y_of(std::uint64_t y) const noexcept;

  std::uint64_t side_ = 0;  ///< 2^coord_width
  std::uint64_t lambda_ = 0;
  std::size_t tiles_x_ = 1;
  std::size_t tiles_y_ = 1;
  std::uint64_t width_x_ = 0;  ///< ceil(side / tiles_x)
  std::uint64_t width_y_ = 0;
};

}  // namespace lppa::shard
