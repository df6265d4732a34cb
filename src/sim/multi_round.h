// Repeated participation and ID mixing (paper §V-C.3).
//
// An SU's position is fixed for the lease duration, but it may enter the
// auction many times.  Without fresh pseudonyms, the curious auctioneer
// can link a bidder's submissions across rounds and VOTE over its
// per-round inferred availability sets: genuine channels recur every
// round while disguised zeros are independent noise, so a majority
// filter strips the zero-disguise defence.  The paper's countermeasure —
// mixing the buyers' IDs between auctions — caps the attacker at
// single-round knowledge.
//
// run_multi_round() simulates both worlds and returns the attack quality
// after R rounds; the abl_id_mixing bench sweeps R.
#pragma once

#include "core/adversary.h"
#include "sim/scenario.h"

namespace lppa::sim {

struct MultiRoundConfig {
  std::size_t rounds = 5;
  bool mix_ids = true;        ///< fresh pseudonyms every round
  double replace_prob = 0.5;  ///< zero-disguise level (linear policy)
  /// Mobility churn: per-round probability that each SU moves to a fresh
  /// position (and re-senses its bids there) before the round runs.
  /// Movement breaks cross-round evidence accumulation for the moved SU
  /// the same way ID mixing does — the linking attacker votes over
  /// availability sets of DIFFERENT cells.  0 keeps the paper's
  /// fixed-lease setting.
  double move_prob = 0.0;
  auction::Money rd = 3;
  std::uint64_t cr = 4;
  double top_fraction = 0.5;  ///< attacker's per-column selection
};

struct MultiRoundResult {
  core::AggregateMetrics metrics;  ///< attack quality against each victim
  /// Mean number of channels the attacker ended up intersecting per
  /// victim (accumulated evidence without mixing; last round with).
  double mean_channels_used = 0.0;
};

/// Runs R auction rounds over a fixed user population (positions pinned,
/// bids redrawn per round) and attacks with the linking adversary.
MultiRoundResult run_multi_round(Scenario& scenario,
                                 const MultiRoundConfig& config,
                                 std::uint64_t seed);

}  // namespace lppa::sim
