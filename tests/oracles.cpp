#include "oracles.h"

#include <utility>

#include "common/error.h"
#include "core/encrypted_bid_table.h"

namespace lppa::oracles {

auction::ConflictGraph conflict_graph_pairwise(
    const std::vector<core::LocationSubmission>& submissions) {
  auction::ConflictGraph g(submissions.size());
  for (std::size_t i = 0; i < submissions.size(); ++i) {
    for (std::size_t j = i + 1; j < submissions.size(); ++j) {
      if (core::PpbsLocation::conflicts(submissions[i], submissions[j])) {
        g.add_conflict(i, j);
      }
    }
  }
  return g;
}

TournamentScanTable::TournamentScanTable(
    const std::vector<core::BidSubmission>& submissions,
    std::size_t num_channels, const crypto::BidBackend* backend)
    : subs_(&submissions),
      channels_(num_channels),
      backend_(&crypto::resolve_backend(backend)),
      present_(submissions.size() * num_channels, true),
      live_(submissions.size() * num_channels) {
  LPPA_REQUIRE(!submissions.empty() && num_channels > 0,
               "TournamentScanTable requires users and channels");
  for (const auto& s : submissions) {
    LPPA_REQUIRE(s.channels.size() == num_channels,
                 "every submission must cover every channel");
  }
}

TournamentScanTable TournamentScanTable::deserialize(
    std::span<const std::uint8_t> image, const crypto::BidBackend* backend) {
  const core::EncryptedBidTable decoded =
      core::EncryptedBidTable::deserialize(image, 1, backend);
  auto subs = std::make_shared<std::vector<core::BidSubmission>>(
      decoded.num_users());
  for (std::size_t u = 0; u < subs->size(); ++u) {
    for (std::size_t r = 0; r < decoded.num_channels(); ++r) {
      (*subs)[u].channels.push_back(decoded.entry(u, r));
    }
  }
  TournamentScanTable table(*subs, decoded.num_channels(), backend);
  table.owned_ = std::move(subs);
  for (std::size_t u = 0; u < table.num_users(); ++u) {
    for (std::size_t r = 0; r < table.channels_; ++r) {
      if (!decoded.has(u, r)) table.remove(u, r);
    }
  }
  return table;
}

bool TournamentScanTable::has(auction::UserId u, auction::ChannelId r) const {
  LPPA_REQUIRE(u < num_users() && r < channels_, "scan table index range");
  return present_[u * channels_ + r];
}

void TournamentScanTable::remove(auction::UserId u, auction::ChannelId r) {
  if (has(u, r)) {
    present_[u * channels_ + r] = false;
    --live_;
  }
}

void TournamentScanTable::remove_user(auction::UserId u) {
  for (std::size_t r = 0; r < channels_; ++r) remove(u, r);
}

void TournamentScanTable::insert_user(auction::UserId u) {
  for (std::size_t r = 0; r < channels_; ++r) {
    LPPA_REQUIRE(!has(u, r), "insert_user requires a fully tombstoned slot");
    present_[u * channels_ + r] = true;
  }
  live_ += channels_;
}

std::optional<auction::UserId> TournamentScanTable::argmax_in_column(
    auction::ChannelId r) const {
  std::optional<auction::UserId> best;
  for (std::size_t u = 0; u < num_users(); ++u) {
    if (!has(u, r)) continue;
    // Strictly greater replaces, so ties keep the first-seen user.
    if (!best ||
        !backend_->ge((*subs_)[*best].channels[r], (*subs_)[u].channels[r])) {
      best = u;
    }
  }
  return best;
}

Bytes TournamentScanTable::serialize() const {
  return core::EncryptedBidTable::serialize_image(*subs_, channels_, present_,
                                                  live_, backend_);
}

core::MaintainedRoundOutcome reference_round(core::LppaAuction& auction,
                                             const core::AuctioneerView& view,
                                             Rng rng,
                                             auction::ConflictGraph* graph) {
  (void)rng.fork();  // run()'s SU-side fork
  const auction::ConflictGraph pairwise =
      conflict_graph_pairwise(view.locations);
  TournamentScanTable table(view.bids, auction.config().num_channels,
                            auction.config().backend);
  core::MaintainedRoundOutcome out = auction.allocate_and_charge(
      view.bids, pairwise, table, std::vector<bool>(view.bids.size(), true),
      rng);
  if (graph != nullptr) *graph = pairwise;
  return out;
}

}  // namespace lppa::oracles
