#include "core/churn_state.h"

#include "obs/metrics.h"
#include "obs/span.h"

namespace lppa::core {

ChurnState::ChurnState(const LppaConfig& config,
                       std::vector<auction::SuLocation> /*locations*/,
                       std::vector<LocationSubmission> loc_subs,
                       std::vector<BidSubmission> bid_subs,
                       std::vector<bool> live)
    : config_(config),
      channels_(config.num_channels),
      loc_subs_(std::move(loc_subs)),
      bid_subs_(std::move(bid_subs)),
      live_(std::move(live)),
      graph_(loc_subs_.size()) {
  const std::size_t n = loc_subs_.size();
  LPPA_REQUIRE(n >= 1, "churn roster requires at least one slot");
  LPPA_REQUIRE(crypto::resolve_backend(config_.backend).id() ==
                   config_.bid.backend,
               "ChurnState needs config.backend set to the TTP's backend "
               "for a non-HMAC bid config");
  LPPA_REQUIRE(bid_subs_.size() == n && live_.size() == n,
               "roster vectors must have equal size");
  for (std::size_t u = 0; u < n; ++u) {
    if (live_[u]) ++live_count_;
    LPPA_REQUIRE(live_[u] || loc_subs_[u] == LocationSubmission{},
                 "dead slots must hold an empty location submission");
  }

  obs::Span build_span(config_.metrics, "churn.build");
  // The build's range index pair is kept: it is exactly what an
  // arrival's upper-partner join needs.  The family pair (lower
  // partners) comes from the same builder over the family sets.
  range_index_ = build_index_pair(loc_subs_, &LocationSubmission::x_range,
                                  &LocationSubmission::y_range,
                                  config_.num_threads, config_.metrics,
                                  &build_span);
  graph_ = probe_index_pair(loc_subs_, range_index_, config_.num_threads,
                            config_.metrics, nullptr, &build_span);
  family_index_ = build_index_pair(loc_subs_, &LocationSubmission::x_family,
                                   &LocationSubmission::y_family,
                                   config_.num_threads, config_.metrics,
                                   &build_span);

  {
    obs::Span table_span(config_.metrics, "table.build", &build_span);
    table_.emplace(bid_subs_, channels_, ArgmaxStrategy::kSortedColumns,
                   config_.num_threads, config_.backend);
  }
  for (std::size_t u = 0; u < n; ++u) {
    if (!live_[u]) table_->remove_user(u);
  }
}

void ChurnState::link_su(std::size_t u) {
  const LocationSubmission& sub = loc_subs_[u];
  const std::uint32_t uid = static_cast<std::uint32_t>(u);
  // Upper partners (u, j), j > u: in a rebuild u probes its families
  // against the range pair — the same join.  Lower partners (i, u),
  // i < u: in a rebuild i probes ITS families against u's ranges, so u's
  // ranges join the family pair, which tests the same digest multisets
  // from the other side.
  const JoinResult upper = join_partners(sub.x_family, sub.y_family,
                                         range_index_, uid, JoinCut::kAbove);
  const JoinResult lower = join_partners(sub.x_range, sub.y_range,
                                         family_index_, uid, JoinCut::kBelow);
  std::vector<std::size_t> neighbors(lower.ids.begin(), lower.ids.end());
  neighbors.insert(neighbors.end(), upper.ids.begin(), upper.ids.end());
  graph_.add_su(u, neighbors);

  // Only now publish u's own digests (probe-before-insert: u never
  // discovers itself).
  range_index_.x.insert_all(sub.x_range, uid);
  range_index_.y.insert_all(sub.y_range, uid);
  family_index_.x.insert_all(sub.x_family, uid);
  family_index_.y.insert_all(sub.y_family, uid);

  if (config_.metrics != nullptr) {
    config_.metrics->counter("churn.edges_added").inc(neighbors.size());
    config_.metrics->counter("churn.digests_inserted")
        .inc(sub.x_range.size() + sub.y_range.size() + sub.x_family.size() +
             sub.y_family.size());
  }
}

void ChurnState::unlink_su(std::size_t u) {
  if (config_.metrics != nullptr) {
    config_.metrics->counter("churn.edges_removed")
        .inc(graph_.neighbors(u).size());
  }
  graph_.remove_su(u);

  const LocationSubmission& sub = loc_subs_[u];
  const std::uint32_t uid = static_cast<std::uint32_t>(u);
  const std::size_t erased = range_index_.x.erase_all(sub.x_range, uid) +
                             range_index_.y.erase_all(sub.y_range, uid) +
                             family_index_.x.erase_all(sub.x_family, uid) +
                             family_index_.y.erase_all(sub.y_family, uid);
  if (config_.metrics != nullptr) {
    config_.metrics->counter("churn.digests_erased").inc(erased);
  }
}

void ChurnState::add_su(std::size_t u, const auction::SuLocation& /*loc*/,
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
  loc_subs_[u] = std::move(loc_sub);
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
  table_->remove_user(u);
  // The slot reverts to the dead-roster convention: empty location
  // submission (no digests), stale-but-shape-valid bid submission left
  // in place for the table.
  loc_subs_[u] = LocationSubmission{};
  live_[u] = false;
  --live_count_;
}

void ChurnState::move_su(std::size_t u, const auction::SuLocation& /*loc*/,
                         LocationSubmission loc_sub) {
  LPPA_REQUIRE(u < capacity(), "churn slot out of range");
  LPPA_REQUIRE(live_[u], "move_su requires a live slot");
  obs::Span span(config_.metrics, "churn.move_su");
  if (config_.metrics != nullptr) {
    config_.metrics->counter("churn.moves").inc();
  }

  unlink_su(u);
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
  return build_conflict_graph(loc_subs_, config_.num_threads);
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
