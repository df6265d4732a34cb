// Reference implementations the production auction paths are
// differential-tested against.  None of this ships in the library: the
// production conflict build is core::build_conflict_graph
// (core/conflict_index.h) and the production bid table is one
// core::EncryptedBidTable.  These are the seed algorithms, kept
// deliberately naive so a differential check never compares the
// production code with itself:
//
//   * conflict_graph_pairwise — PpbsLocation::conflicts on every pair
//     i < j, O(n²·w) masked set intersections, no index;
//   * TournamentScanTable — a fresh O(n) masked tournament per argmax
//     query, no column orders, no cursors;
//   * reference_round — both of them through Algorithm 3 and the TTP
//     charging of LppaAuction::allocate_and_charge.
//
// bench/perf_scaling and bench/micro_ops link this library too: the
// oracles double as the perf baselines of the phases they replaced.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "auction/allocate.h"
#include "common/rng.h"
#include "core/lppa_auction.h"

namespace lppa::oracles {

/// The all-pairs conflict graph over masked location submissions.
/// Throws LppaError on an empty population, like the production build.
auction::ConflictGraph conflict_graph_pairwise(
    const std::vector<core::LocationSubmission>& submissions);

/// The seed argmax: every query re-runs a masked tournament over the
/// column's present entries, keeping the first-seen user on ties (the
/// lowest id, the tie-break the sorted columns reproduce).
class TournamentScanTable final : public auction::BidTableView {
 public:
  /// References `submissions`; the caller keeps them alive.  `backend`
  /// null = the HMAC backend.
  TournamentScanTable(const std::vector<core::BidSubmission>& submissions,
                      std::size_t num_channels,
                      const crypto::BidBackend* backend = nullptr);

  /// The table an EncryptedBidTable serialize() image describes, owning
  /// a copy of its submissions.
  static TournamentScanTable deserialize(
      std::span<const std::uint8_t> image,
      const crypto::BidBackend* backend = nullptr);

  std::size_t num_users() const noexcept override { return subs_->size(); }
  std::size_t num_channels() const noexcept override { return channels_; }
  bool has(auction::UserId u, auction::ChannelId r) const override;
  void remove(auction::UserId u, auction::ChannelId r) override;
  void remove_user(auction::UserId u) override;
  std::optional<auction::UserId> argmax_in_column(
      auction::ChannelId r) const override;
  bool empty() const noexcept override { return live_ == 0; }

  /// Re-activates a fully tombstoned slot (the churn arrival path).
  void insert_user(auction::UserId u);
  std::size_t live_cells() const noexcept { return live_; }

  /// The EncryptedBidTable wire image of the current state.
  Bytes serialize() const;

 private:
  std::shared_ptr<const std::vector<core::BidSubmission>> owned_;
  const std::vector<core::BidSubmission>* subs_;
  std::size_t channels_;
  const crypto::BidBackend* backend_;
  std::vector<bool> present_;  ///< row-major, users × channels
  std::size_t live_;
};

/// The reference tail of one LppaAuction::run round: the pairwise graph
/// over `view.locations` and a TournamentScanTable over `view.bids`,
/// through auction.allocate_and_charge.  `rng` is the generator exactly
/// as the caller handed it to run(); the reference first consumes run()'s
/// one SU fork so the channel draws line up.  `graph`, when set,
/// receives the pairwise graph.
core::MaintainedRoundOutcome reference_round(
    core::LppaAuction& auction, const core::AuctioneerView& view, Rng rng,
    auction::ConflictGraph* graph = nullptr);

}  // namespace lppa::oracles
