// LppaAuction: the end-to-end Location Privacy Preserving Dynamic
// Spectrum Auction — PPBS (masked location + bid submission) followed by
// PSD (greedy allocation in the masked domain + TTP-assisted charging).
//
// run() plays all three roles (SUs, auctioneer, TTP) in-process but keeps
// their information sets separate: everything the curious-but-honest
// auctioneer observes during the round is captured in AuctioneerView,
// which is exactly the input the LppaAdversary attacks get.
#pragma once

#include <cstdint>
#include <vector>

#include "auction/allocate.h"
#include "auction/plain_auction.h"
#include "core/encrypted_bid_table.h"
#include "core/ppbs_location.h"
#include "core/ttp.h"

namespace lppa::obs {
class MetricsRegistry;
class Span;
}  // namespace lppa::obs

namespace lppa::core {

struct LppaConfig {
  std::size_t num_channels = 1;
  std::uint64_t lambda = 1;   ///< half interference-square side
  int coord_width = 20;       ///< bits per location coordinate
  PpbsBidConfig bid;          ///< advanced-scheme parameters
  bool pad_location_ranges = true;
  std::size_t ttp_batch_size = 16;  ///< charge queries per TTP flush
  ChargingRule charging_rule = ChargingRule::kFirstPrice;
  /// Worker threads for the SU submission loop, the conflict-graph
  /// build and the bid-table build (0 = hardware concurrency).  Each SU
  /// draws from its own pre-forked RNG stream and writes only its own
  /// output slot, so the outcome is byte-identical for every thread
  /// count.
  std::size_t num_threads = 0;
  /// Run every submission through core::SubmissionValidator before it
  /// enters the conflict-graph build / EncryptedBidTable.  In-process
  /// submissions are honest by construction, so this is defence in depth
  /// here; the wire session (proto/) relies on the same validator to
  /// reject Byzantine submissions.
  bool validate_submissions = true;
  /// Source-compatibility shim: ArgmaxStrategy has the one value
  /// kSortedColumns and nothing reads this field.  The bid table always
  /// sorts each column once and pops O(1) per query; the seed's
  /// per-query tournament scan is a test oracle (tests/oracles.h).
  ArgmaxStrategy argmax_strategy = ArgmaxStrategy::kSortedColumns;
  /// Source-compatibility shim, like argmax_strategy: nothing reads
  /// this field.  The conflict build is one index pair over every SU
  /// (core/conflict_index.h) for any value; geographic tiling would need
  /// each SU's plaintext tile, a coarse location the masked protocol
  /// never discloses (docs/performance.md, "Why no tiles").
  std::size_t num_shards = 1;
  /// The resolved crypto backend driving every masked comparison this
  /// round (bid-table sorts, the second-price runner-up scan).  Null means "resolve from bid.backend": LppaAuction's
  /// constructor fills it in from its own TTP, so embedders only ever
  /// set bid.backend.  Wire sessions that restore snapshots receive the
  /// TTP's backend explicitly through the same field.  Not owned.
  const crypto::BidBackend* backend = nullptr;
  /// Optional observability sink (obs/metrics.h): when set, every round
  /// records per-phase spans (auction.round > submit / validate /
  /// conflict_graph / table / allocate / charging, with the
  /// conflict.index_build and conflict.probe spans under conflict_graph
  /// and the one table.build span under table), phase counters
  /// (auction.table.order_tests: the masked tests the table build
  /// spent) and the conflict.* join counters into it.  Null (the default)
  /// makes every instrumentation site a branch-and-skip.  Not owned; the
  /// caller keeps the registry alive for the config's lifetime.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Everything the auctioneer (and hence a curious-but-honest attacker)
/// sees in one round.
struct AuctioneerView {
  std::vector<LocationSubmission> locations;
  std::vector<BidSubmission> bids;
  auction::ConflictGraph conflicts{1};
  std::vector<auction::Award> awards;  ///< published winners with validity

  std::size_t location_wire_bytes = 0;
  std::size_t bid_wire_bytes = 0;
};

struct LppaOutcome {
  auction::AuctionOutcome outcome;  ///< TTP-validated awards
  AuctioneerView view;
  std::size_t manipulations_detected = 0;
};

/// Result of one allocation+charging pass over an already-built round
/// state (the maintained-churn entry point below).
struct MaintainedRoundOutcome {
  std::vector<auction::Award> awards;  ///< TTP-validated awards
  std::size_t manipulations_detected = 0;
};

class LppaAuction {
 public:
  LppaAuction(LppaConfig config, std::uint64_t ttp_seed);

  /// Runs one complete round over the true locations/bids.
  LppaOutcome run(const std::vector<auction::SuLocation>& locations,
                  const std::vector<BidVector>& bids, Rng& rng);

  /// The auctioneer+TTP tail of a round over pre-built state: greedy
  /// allocation on `table` (which it consumes — pass a clone of a
  /// maintained table) followed by batched TTP charging through a
  /// core::ChargeLedger (core/charging.h), the charging path the wire
  /// session uses too.  `bids` backs the charge queries and the
  /// second-price runner-up; `live` marks which roster slots currently
  /// participate — dead slots hold stale masked submissions and are
  /// never runner-up candidates (they cannot win: the table has them
  /// tombstoned).  run() is exactly this helper applied to a freshly
  /// built all-live round, so maintained churn rounds and from-scratch
  /// rounds share one charging/validation path byte for byte.
  MaintainedRoundOutcome allocate_and_charge(
      const std::vector<BidSubmission>& bids,
      const auction::ConflictGraph& conflicts, auction::BidTableView& table,
      const std::vector<bool>& live, Rng& rng, obs::Span* parent = nullptr);

  const LppaConfig& config() const noexcept { return config_; }
  const TrustedThirdParty& ttp() const noexcept { return ttp_; }
  TrustedThirdParty& ttp() noexcept { return ttp_; }

 private:
  LppaConfig config_;
  TrustedThirdParty ttp_;
};

}  // namespace lppa::core
