#include "shard/shard_plan.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"

namespace lppa::shard {

ShardPlan ShardPlan::make(int coord_width, std::uint64_t lambda,
                          std::size_t num_shards) {
  LPPA_REQUIRE(coord_width >= 1 && coord_width <= 62,
               "coordinate width out of range");
  LPPA_REQUIRE(num_shards >= 1, "shard plan requires at least one shard");

  ShardPlan plan;
  plan.side_ = std::uint64_t{1} << coord_width;
  plan.lambda_ = lambda;
  // tiles_x = the divisor of num_shards closest to sqrt from below, so
  // the grid is as square as the factorisation allows (9 -> 3x3,
  // 4 -> 2x2, 2 -> 1x2, primes -> 1xP strips).
  std::size_t tx = 1;
  for (std::size_t d = 1; d * d <= num_shards; ++d) {
    if (num_shards % d == 0) tx = d;
  }
  plan.tiles_x_ = tx;
  plan.tiles_y_ = num_shards / tx;
  LPPA_REQUIRE(plan.tiles_y_ <= plan.side_,
               "more shards than coordinate columns");
  plan.width_x_ = (plan.side_ + plan.tiles_x_ - 1) / plan.tiles_x_;
  plan.width_y_ = (plan.side_ + plan.tiles_y_ - 1) / plan.tiles_y_;
  return plan;
}

std::size_t ShardPlan::tile_x_of(std::uint64_t x) const noexcept {
  return std::min<std::size_t>(static_cast<std::size_t>(x / width_x_),
                               tiles_x_ - 1);
}

std::size_t ShardPlan::tile_y_of(std::uint64_t y) const noexcept {
  return std::min<std::size_t>(static_cast<std::size_t>(y / width_y_),
                               tiles_y_ - 1);
}

std::uint32_t ShardPlan::tile_of(const auction::SuLocation& loc) const noexcept {
  return static_cast<std::uint32_t>(tile_y_of(loc.y) * tiles_x_ +
                                    tile_x_of(loc.x));
}

ShardPlan::TileBounds ShardPlan::bounds(std::uint32_t tile) const {
  LPPA_REQUIRE(tile < num_shards(), "tile id out of range");
  const std::size_t tx = tile % tiles_x_;
  const std::size_t ty = tile / tiles_x_;
  TileBounds b;
  b.x_lo = static_cast<std::uint64_t>(tx) * width_x_;
  b.x_hi = std::min(side_ - 1, b.x_lo + width_x_ - 1);
  b.y_lo = static_cast<std::uint64_t>(ty) * width_y_;
  b.y_hi = std::min(side_ - 1, b.y_lo + width_y_ - 1);
  return b;
}

bool ShardPlan::on_boundary(const auction::SuLocation& loc) const noexcept {
  // Boundary iff the clamped interference box touches a second tile —
  // the exact condition under which assign() would put this SU into a
  // foreign halo (an SU hugging the FIELD edge has no neighbour there
  // and is not a boundary SU).
  const std::uint64_t r = 2 * lambda_;
  const std::uint64_t bx_lo = loc.x >= r ? loc.x - r : 0;
  const std::uint64_t bx_hi = std::min(side_ - 1, loc.x + r);
  const std::uint64_t by_lo = loc.y >= r ? loc.y - r : 0;
  const std::uint64_t by_hi = std::min(side_ - 1, loc.y + r);
  return tile_x_of(bx_lo) != tile_x_of(bx_hi) ||
         tile_y_of(by_lo) != tile_y_of(by_hi);
}

std::vector<std::uint32_t> ShardPlan::halo_tiles_of(
    const auction::SuLocation& loc) const {
  // The interference box [loc ± 2λ], clamped to the field.  Every tile
  // the box touches — except the home tile — receives the SU in its
  // halo: any foreign SU it conflicts with necessarily lives inside that
  // box, hence inside one of those tiles.
  const std::uint64_t r = 2 * lambda_;
  const std::uint64_t bx_lo = loc.x >= r ? loc.x - r : 0;
  const std::uint64_t bx_hi = std::min(side_ - 1, loc.x + r);
  const std::uint64_t by_lo = loc.y >= r ? loc.y - r : 0;
  const std::uint64_t by_hi = std::min(side_ - 1, loc.y + r);
  const std::uint32_t home = tile_of(loc);
  std::vector<std::uint32_t> tiles;
  for (std::size_t ty = tile_y_of(by_lo); ty <= tile_y_of(by_hi); ++ty) {
    for (std::size_t tx = tile_x_of(bx_lo); tx <= tile_x_of(bx_hi); ++tx) {
      const std::uint32_t t = static_cast<std::uint32_t>(ty * tiles_x_ + tx);
      if (t != home) tiles.push_back(t);
    }
  }
  return tiles;
}

ShardAssignment ShardAssignment::single_tile(std::size_t n) {
  ShardAssignment a;
  a.shard_of.assign(n, 0);
  a.members.resize(1);
  a.members[0].resize(n);
  std::iota(a.members[0].begin(), a.members[0].end(), 0u);
  a.halo.resize(1);
  return a;
}

ShardAssignment ShardPlan::assign(
    const std::vector<auction::SuLocation>& locations) const {
  return assign_live(locations,
                     std::vector<bool>(locations.size(), true));
}

ShardAssignment ShardPlan::assign_live(
    const std::vector<auction::SuLocation>& locations,
    const std::vector<bool>& live) const {
  LPPA_REQUIRE(live.size() == locations.size(),
               "live mask must cover every slot");
  const std::size_t n = locations.size();
  const std::size_t shards = num_shards();

  ShardAssignment a;
  a.num_shards = shards;
  a.shard_of.resize(n, 0);
  a.members.resize(shards);
  a.halo.resize(shards);

  for (std::size_t u = 0; u < n; ++u) {
    if (!live[u]) continue;  // dead slot: shard_of = 0, in no list
    const auction::SuLocation& loc = locations[u];
    LPPA_REQUIRE(loc.x < side_ && loc.y < side_,
                 "location outside the coordinate space");
    const std::uint32_t home = tile_of(loc);
    a.shard_of[u] = home;
    a.members[home].push_back(static_cast<std::uint32_t>(u));
    const auto tiles = halo_tiles_of(loc);
    for (const std::uint32_t t : tiles) {
      a.halo[t].push_back(static_cast<std::uint32_t>(u));
    }
    if (!tiles.empty()) ++a.boundary_sus;
  }
  // Members and halos are filled in one ascending sweep over u, so every
  // per-tile list is already sorted — the order reassign() maintains, so
  // a maintained assignment compares == to a rebuild.
  return a;
}

void ShardPlan::reassign(ShardAssignment& a, std::uint32_t u,
                         const std::optional<auction::SuLocation>& old_loc,
                         const std::optional<auction::SuLocation>& new_loc) const {
  LPPA_REQUIRE(u < a.shard_of.size(), "reassign: SU id outside the roster");
  LPPA_REQUIRE(a.num_shards == num_shards(),
               "reassign: assignment built by a different plan");
  // Sorted splice in/out keeps every list in the ascending order the
  // single-sweep assign() produces, so == against a rebuild stays exact.
  const auto sorted_erase = [u](std::vector<std::uint32_t>& v) {
    const auto it = std::lower_bound(v.begin(), v.end(), u);
    LPPA_REQUIRE(it != v.end() && *it == u,
                 "reassign: SU missing from a shard list");
    v.erase(it);
  };
  const auto sorted_insert = [u](std::vector<std::uint32_t>& v) {
    const auto it = std::lower_bound(v.begin(), v.end(), u);
    LPPA_REQUIRE(it == v.end() || *it != u,
                 "reassign: SU already present in a shard list");
    v.insert(it, u);
  };
  if (old_loc.has_value()) {
    sorted_erase(a.members[tile_of(*old_loc)]);
    const auto tiles = halo_tiles_of(*old_loc);
    for (const std::uint32_t t : tiles) sorted_erase(a.halo[t]);
    if (!tiles.empty()) --a.boundary_sus;
    a.shard_of[u] = 0;  // dead-slot convention, matching assign_live
  }
  if (new_loc.has_value()) {
    LPPA_REQUIRE(new_loc->x < side_ && new_loc->y < side_,
                 "location outside the coordinate space");
    const std::uint32_t home = tile_of(*new_loc);
    a.shard_of[u] = home;
    sorted_insert(a.members[home]);
    const auto tiles = halo_tiles_of(*new_loc);
    for (const std::uint32_t t : tiles) sorted_insert(a.halo[t]);
    if (!tiles.empty()) ++a.boundary_sus;
  }
}

}  // namespace lppa::shard
