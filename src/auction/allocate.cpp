#include "auction/allocate.h"

#include <algorithm>

#include "common/error.h"

namespace lppa::auction {

std::vector<Award> greedy_allocate(BidTableView& table,
                                   const ConflictGraph& conflicts, Rng& rng) {
  LPPA_REQUIRE(conflicts.num_users() == table.num_users(),
               "conflict graph and bid table disagree on user count");
  const std::size_t k = table.num_channels();

  std::vector<Award> awards;
  std::vector<ChannelId> rotation;  // the set R of Algorithm 3
  auto refill = [&] {
    rotation.resize(k);
    for (std::size_t r = 0; r < k; ++r) rotation[r] = r;
  };
  refill();

  while (!table.empty()) {
    if (rotation.empty()) refill();
    // Draw a channel uniformly from R and remove it from the rotation.
    const std::size_t pick = static_cast<std::size_t>(rng.below(rotation.size()));
    const ChannelId r = rotation[pick];
    rotation.erase(rotation.begin() + static_cast<std::ptrdiff_t>(pick));

    const auto winner = table.argmax_in_column(r);
    if (!winner) continue;  // column already empty; rotate on

    awards.push_back(Award{*winner, r, /*charge=*/0, /*valid=*/true});

    // Delete the conflicting neighbours' entries for this channel, then the
    // winner's whole row (the winner only wanted one channel).
    for (const std::uint32_t neighbor : conflicts.neighbors(*winner)) {
      table.remove(neighbor, r);
    }
    table.remove_user(*winner);
  }
  return awards;
}

std::vector<Award> global_greedy_allocate(const std::vector<BidVector>& bids,
                                          const ConflictGraph& conflicts) {
  LPPA_REQUIRE(!bids.empty(), "auction requires at least one bidder");
  LPPA_REQUIRE(conflicts.num_users() == bids.size(),
               "conflict graph and bid table disagree on user count");
  const std::size_t k = bids.front().size();
  for (const auto& bv : bids) {
    LPPA_REQUIRE(bv.size() == k, "ragged bid matrix");
  }

  struct Entry {
    Money bid;
    UserId user;
    ChannelId channel;
  };
  std::vector<Entry> entries;
  entries.reserve(bids.size() * k);
  for (UserId u = 0; u < bids.size(); ++u) {
    for (ChannelId r = 0; r < k; ++r) {
      entries.push_back({bids[u][r], u, r});
    }
  }
  // Decreasing bid; ties by (user, channel) for determinism.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.bid != b.bid) return a.bid > b.bid;
    if (a.user != b.user) return a.user < b.user;
    return a.channel < b.channel;
  });

  std::vector<bool> served(bids.size(), false);
  // winners_on[r]: users already granted channel r.
  std::vector<std::vector<UserId>> winners_on(k);
  std::vector<Award> awards;
  for (const auto& e : entries) {
    if (served[e.user]) continue;
    bool blocked = false;
    for (UserId w : winners_on[e.channel]) {
      if (conflicts.conflicts(e.user, w)) {
        blocked = true;
        break;
      }
    }
    if (blocked) continue;
    served[e.user] = true;
    winners_on[e.channel].push_back(e.user);
    awards.push_back(Award{e.user, e.channel, /*charge=*/0, /*valid=*/true});
  }
  return awards;
}

}  // namespace lppa::auction
