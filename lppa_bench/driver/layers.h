// Per-layer measurement of one LPPA round from outside the program.
//
// replay_round() replays core::LppaAuction::run's exact call order and
// RNG discipline (the unsharded path) with a span and counters around
// every public call it makes, so its awards and charges must equal an
// untraced run() at the same seed byte for byte.  traced_tail() splits
// the allocation+charging tail the same way for any bid table; the
// maintained churn rounds use it too.
#pragma once

#include <vector>

#include "core/lppa_auction.h"
#include "core/sharded_bid_table.h"
#include "driver/common.h"

namespace lppa::bench_driver {

/// The allocation + charging split of one round.
struct TailSample {
  double allocate_ms = 0.0;  ///< greedy_allocate alone, on table/RNG copies
  std::size_t argmax_calls = 0;
  std::size_t removes = 0;
  std::size_t awards = 0;
  std::size_t valid_awards = 0;
  double allocate_and_charge_ms = 0.0;  ///< the round's own call
  double ttp_ms = 0.0;  ///< the round's charge queries re-issued to a TTP copy
  std::size_t ttp_queries = 0;
  std::size_t ttp_batches = 0;
};

/// Runs allocate_and_charge on `table` (consumed) — its outcome is the
/// round's — inside a span, and fills `sample`.  The two measurement
/// re-executions (allocation alone, TTP processing alone) run on copies
/// and their wall time is added to `extra_ms`, so a caller can exclude
/// it from the traced round time.
core::MaintainedRoundOutcome traced_tail(
    core::LppaAuction& auction, const std::vector<core::BidSubmission>& bids,
    const auction::ConflictGraph& graph, core::EncryptedBidTable& table,
    const std::vector<bool>& live, Rng& rng, obs::MetricsRegistry* trace, const obs::Span* parent,
    TailSample& sample, double& extra_ms);
core::MaintainedRoundOutcome traced_tail(
    core::LppaAuction& auction, const std::vector<core::BidSubmission>& bids,
    const auction::ConflictGraph& graph, core::ShardedBidTable& table,
    const std::vector<bool>& live, Rng& rng, obs::MetricsRegistry* trace, const obs::Span* parent,
    TailSample& sample, double& extra_ms);

/// Per-layer numbers of one replayed from-scratch round.
struct LayerSample {
  std::size_t users = 0;
  double location_submit_ms = 0.0;
  double bid_submit_ms = 0.0;
  std::size_t digests = 0;
  double bid_wire_bytes = 0.0;
  double theorem4_bytes = 0.0;  ///< h·k·N·(3w−1)(w+1) bits / 8
  double validate_ms = 0.0;
  std::size_t rejected = 0;
  double conflict_ms = 0.0;
  std::size_t index_entries = 0;
  std::size_t probes = 0;
  std::size_t edges = 0;
  std::size_t y_confirms = 0;
  double table_ms = 0.0;
  std::size_t compares = 0;
  TailSample tail;
};

struct ReplayOutcome {
  std::vector<auction::Award> awards;
  std::size_t manipulations = 0;
  double round_ms = 0.0;  ///< replay wall time minus the re-executions
  LayerSample layers;
};

ReplayOutcome replay_round(core::LppaAuction& auction, const PlainWorld& world,
                           Rng& rng, obs::MetricsRegistry* trace);

/// Pairs of SUs within 2λ of each other on the x axis — the candidates
/// the masked build must confirm on y — counted from the plaintext.
std::size_t count_x_window_pairs(
    const std::vector<auction::SuLocation>& locations, std::uint64_t lambda);

/// Medians over the samples, as the contract's per-layer metrics.
void report_layers(const std::vector<LayerSample>& samples, Result& result);
void report_tail(const std::vector<TailSample>& samples, Result& result);

}  // namespace lppa::bench_driver
