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
#include "proto/fault.h"
#include "proto/round_report.h"
#include "proto/session.h"
#include "sim/scenario.h"

namespace lppa::sim {

/// Optional fault layer: when enabled, every round additionally runs as
/// a wire auction (proto::run_recoverable_wire_auction) over a
/// per-round MessageBus with a seeded FaultInjector attached, and the
/// resulting RoundReports land in MultiRoundResult::reports.  A fresh
/// bus per round models session-scoped channels — stale delayed traffic
/// from round k cannot masquerade as a round-k+1 submission.
/// Optional crash layer on top of the fault layer: when enabled, each
/// wire round runs with a per-round seeded CrashInjector and the
/// deadline / quorum policy below, so the auctioneer dies and recovers
/// mid-round on a
/// reproducible schedule.  Per-round recovery counts, journal sizes and
/// degradations land in the round's RoundReport.
struct MultiRoundCrashes {
  bool enabled = false;
  std::uint64_t seed = 7;          ///< crash-schedule Rng seed base
  double crash_prob = 0.0;         ///< per-checkpoint crash probability
  std::size_t max_per_round = 1;   ///< crash budget per round
  std::size_t deadline_ticks = 0;  ///< round deadline (0 = none)
  std::size_t min_quorum = 1;      ///< degraded-commit quorum floor
  std::size_t recovery_cost_ticks = 1;  ///< ticks each restart costs
};

struct MultiRoundFaults {
  bool enabled = false;
  std::uint64_t seed = 99;               ///< injector Rng seed base
  proto::FaultSpec link;                 ///< default per-sender fault rates
  std::vector<std::size_t> byzantine;    ///< SU indices that always corrupt
  proto::HardenedSessionConfig session;  ///< retry / backoff policy
  MultiRoundCrashes crashes;             ///< auctioneer crash schedule
};

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
  MultiRoundFaults faults;    ///< wire-round fault injection (off by default)
};

struct MultiRoundResult {
  core::AggregateMetrics metrics;  ///< attack quality against each victim
  /// Mean number of channels the attacker ended up intersecting per
  /// victim (accumulated evidence without mixing; last round with).
  double mean_channels_used = 0.0;
  /// One report per round when faults are enabled (empty otherwise).
  std::vector<proto::RoundReport> reports;
};

/// Runs R auction rounds over a fixed user population (positions pinned,
/// bids redrawn per round) and attacks with the linking adversary.
MultiRoundResult run_multi_round(Scenario& scenario,
                                 const MultiRoundConfig& config,
                                 std::uint64_t seed);

}  // namespace lppa::sim
