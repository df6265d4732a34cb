#include "core/churn_state.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/span.h"

namespace lppa::core {

ChurnState::ChurnState(const LppaConfig& config,
                       std::vector<auction::SuLocation> locations,
                       std::vector<LocationSubmission> loc_subs,
                       std::vector<BidSubmission> bid_subs,
                       std::vector<bool> live)
    : config_(config),
      channels_(config.num_channels),
      plan_(shard::ShardPlan::make(config.coord_width, config.lambda,
                                   config.num_shards)),
      locations_(std::move(locations)),
      loc_subs_(std::move(loc_subs)),
      bid_subs_(std::move(bid_subs)),
      live_(std::move(live)),
      graph_(locations_.size()) {
  const std::size_t n = locations_.size();
  LPPA_REQUIRE(n >= 1, "churn roster requires at least one slot");
  LPPA_REQUIRE(crypto::resolve_backend(config_.backend).id() ==
                   config_.bid.backend,
               "ChurnState needs config.backend set to the TTP's backend "
               "for a non-HMAC bid config");
  LPPA_REQUIRE(loc_subs_.size() == n && bid_subs_.size() == n &&
                   live_.size() == n,
               "roster vectors must have equal size");
  for (std::size_t u = 0; u < n; ++u) {
    if (live_[u]) ++live_count_;
    LPPA_REQUIRE(live_[u] || loc_subs_[u] == LocationSubmission{},
                 "dead slots must hold an empty location submission");
  }

  obs::Span build_span(config_.metrics, "churn.build");
  assignment_ = plan_.assign_live(locations_, live_);
  // The build's per-tile index pairs are kept: they are exactly what an
  // arrival's upper-partner probe needs.  The family indexes (lower
  // partners) are churn-only and hold the members' x-family digests.
  tile_index_ = build_tile_indexes(loc_subs_, assignment_,
                                   config_.num_threads, config_.metrics,
                                   &build_span);
  graph_ = probe_tile_indexes(loc_subs_, assignment_, tile_index_,
                              config_.num_threads, config_.metrics, nullptr,
                              &build_span);
  family_index_.resize(plan_.num_shards());
  for (std::size_t s = 0; s < family_index_.size(); ++s) {
    std::size_t expected = 0;
    for (const std::uint32_t j : assignment_.members[s]) {
      expected += loc_subs_[j].x_family.size();
    }
    family_index_[s].reserve(expected);
    for (const std::uint32_t j : assignment_.members[s]) {
      family_index_[s].insert_all(loc_subs_[j].x_family, j);
    }
  }

  {
    obs::Span table_span(config_.metrics, "shard.table_build", &build_span);
    table_.emplace(bid_subs_, channels_, ArgmaxStrategy::kSortedColumns,
                   config_.num_threads, config_.backend);
  }
  for (std::size_t u = 0; u < n; ++u) {
    if (!live_[u]) table_->remove_user(u);
  }
}

void ChurnState::link_su(std::size_t u) {
  const auction::SuLocation& loc = locations_[u];
  const LocationSubmission& sub = loc_subs_[u];
  const std::uint32_t home = plan_.tile_of(loc);
  // Every tile whose index pair holds u's ranges: its halo tiles, then
  // its home.
  std::vector<std::uint32_t> tiles = plan_.halo_tiles_of(loc);
  tiles.push_back(home);

  // Upper partners (u, j) with j > u: in a rebuild, u itself probes its
  // home index pair.  The home pair holds exactly the members' + halo's
  // x-range and y-range digests, so the build's own probe reproduces
  // those tests digest for digest.
  const std::uint32_t uid = static_cast<std::uint32_t>(u);
  const UpperPartners upper =
      probe_upper_partners(loc_subs_, tile_index_[home], uid);
  std::vector<std::size_t> neighbors(upper.ids.begin(), upper.ids.end());

  // Lower partners (i, u) with i < u: in a rebuild, i probes ITS home
  // index, which holds u's x-range iff u is a member or halo entry of
  // i's tile — i.e. iff i's tile is u's home or one of u's halo tiles.
  // Probing u.x_range against those tiles' family indexes finds exactly
  // the i with i.x_family ∩ u.x_range non-empty; y-confirmation keeps
  // the rebuild's orientation (i.y_family ∩ u.y_range).
  std::vector<std::uint32_t> lower;
  for (const auto& d : sub.x_range.digests()) {
    for (const std::uint32_t t : tiles) family_index_[t].collect(d, lower);
  }
  std::sort(lower.begin(), lower.end());
  lower.erase(std::unique(lower.begin(), lower.end()), lower.end());
  for (const std::uint32_t i : lower) {
    if (i >= u) continue;
    if (loc_subs_[i].y_family.intersects(sub.y_range)) {
      neighbors.push_back(i);
    }
  }

  graph_.add_su(u, neighbors);

  // Only now publish u's own digests (probe-before-insert: u never
  // discovers itself, and the j > u candidates above cannot include u).
  for (const std::uint32_t t : tiles) {
    tile_index_[t].x_range.insert_all(sub.x_range, uid);
    tile_index_[t].y_range.insert_all(sub.y_range, uid);
  }
  family_index_[home].insert_all(sub.x_family, uid);

  if (config_.metrics != nullptr) {
    config_.metrics->counter("churn.edges_added").inc(neighbors.size());
    config_.metrics->counter("churn.digests_inserted")
        .inc((sub.x_range.size() + sub.y_range.size()) * tiles.size() +
             sub.x_family.size());
  }
}

void ChurnState::unlink_su(std::size_t u) {
  if (config_.metrics != nullptr) {
    config_.metrics->counter("churn.edges_removed")
        .inc(graph_.neighbors(u).size());
  }
  graph_.remove_su(u);

  const auction::SuLocation& loc = locations_[u];
  const LocationSubmission& sub = loc_subs_[u];
  const std::uint32_t home = plan_.tile_of(loc);
  const std::uint32_t uid = static_cast<std::uint32_t>(u);
  std::vector<std::uint32_t> tiles = plan_.halo_tiles_of(loc);
  tiles.push_back(home);
  std::size_t erased = 0;
  for (const std::uint32_t t : tiles) {
    erased += tile_index_[t].x_range.erase_all(sub.x_range, uid);
    erased += tile_index_[t].y_range.erase_all(sub.y_range, uid);
  }
  erased += family_index_[home].erase_all(sub.x_family, uid);
  if (config_.metrics != nullptr) {
    config_.metrics->counter("churn.digests_erased").inc(erased);
  }
}

void ChurnState::add_su(std::size_t u, const auction::SuLocation& loc,
                        LocationSubmission loc_sub, BidSubmission bid_sub) {
  LPPA_REQUIRE(u < capacity(), "churn slot out of range");
  LPPA_REQUIRE(!live_[u], "add_su requires a dead slot");
  LPPA_REQUIRE(bid_sub.channels.size() == channels_,
               "arriving bid must cover every channel");
  obs::Span span(config_.metrics, "churn.add_su");
  if (config_.metrics != nullptr) {
    config_.metrics->counter("churn.arrivals").inc();
  }

  live_[u] = true;
  ++live_count_;
  locations_[u] = loc;
  loc_subs_[u] = std::move(loc_sub);
  plan_.reassign(assignment_, static_cast<std::uint32_t>(u), std::nullopt,
                 loc);
  link_su(u);
  bid_subs_[u] = std::move(bid_sub);
  insert_bid_row(u);
}

void ChurnState::remove_su(std::size_t u) {
  LPPA_REQUIRE(u < capacity(), "churn slot out of range");
  LPPA_REQUIRE(live_[u], "remove_su requires a live slot");
  obs::Span span(config_.metrics, "churn.remove_su");
  if (config_.metrics != nullptr) {
    config_.metrics->counter("churn.departures").inc();
  }

  unlink_su(u);
  plan_.reassign(assignment_, static_cast<std::uint32_t>(u), locations_[u],
                 std::nullopt);
  table_->remove_user(u);
  // The slot reverts to the dead-roster convention: empty location
  // submission (no digests), origin location, stale-but-shape-valid bid
  // submission left in place for the table.
  locations_[u] = auction::SuLocation{};
  loc_subs_[u] = LocationSubmission{};
  live_[u] = false;
  --live_count_;
}

void ChurnState::move_su(std::size_t u, const auction::SuLocation& loc,
                         LocationSubmission loc_sub) {
  LPPA_REQUIRE(u < capacity(), "churn slot out of range");
  LPPA_REQUIRE(live_[u], "move_su requires a live slot");
  obs::Span span(config_.metrics, "churn.move_su");
  if (config_.metrics != nullptr) {
    config_.metrics->counter("churn.moves").inc();
  }

  unlink_su(u);
  plan_.reassign(assignment_, static_cast<std::uint32_t>(u), locations_[u],
                 loc);
  locations_[u] = loc;
  loc_subs_[u] = std::move(loc_sub);
  link_su(u);
}

void ChurnState::rebid_su(std::size_t u, BidSubmission bid_sub) {
  LPPA_REQUIRE(u < capacity(), "churn slot out of range");
  LPPA_REQUIRE(live_[u], "rebid_su requires a live slot");
  LPPA_REQUIRE(bid_sub.channels.size() == channels_,
               "re-bid must cover every channel");
  obs::Span span(config_.metrics, "churn.rebid_su");
  if (config_.metrics != nullptr) {
    config_.metrics->counter("churn.rebids").inc();
  }

  table_->remove_user(u);
  bid_subs_[u] = std::move(bid_sub);
  insert_bid_row(u);
}

void ChurnState::insert_bid_row(std::size_t u) {
  const std::size_t compares = table_->insert_user(u);
  if (config_.metrics != nullptr) {
    config_.metrics->counter("churn.splice_compares").inc(compares);
  }
}

auction::ConflictGraph ChurnState::rebuild_conflicts() const {
  const shard::ShardAssignment fresh = plan_.assign_live(locations_, live_);
  return build_conflict_graph_sharded(loc_subs_, fresh, config_.num_threads,
                                      nullptr);
}

shard::ShardAssignment ChurnState::rebuild_assignment() const {
  return plan_.assign_live(locations_, live_);
}

EncryptedBidTable ChurnState::rebuild_table() const {
  EncryptedBidTable fresh(bid_subs_, channels_, ArgmaxStrategy::kSortedColumns,
                          config_.num_threads, config_.backend);
  for (std::size_t u = 0; u < capacity(); ++u) {
    if (!live_[u]) fresh.remove_user(u);
  }
  return fresh;
}

}  // namespace lppa::core
