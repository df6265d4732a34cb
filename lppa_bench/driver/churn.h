// Maintained churn rounds on core::ChurnState: each round applies one
// round of sim::ChurnSchedule events (masking arrivals, moves and
// re-bids first) and then runs allocate_and_charge on
// table_for_allocation().
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/churn_state.h"
#include "driver/layers.h"
#include "sim/churn.h"

namespace lppa::bench_driver {

struct ChurnParams {
  std::size_t capacity = 0;
  std::size_t initial_live = 0;
  std::size_t channels = 0;
  int coord_width = 0;
  std::uint64_t lambda = 0;
  double arrive_prob = 0.0;
  double depart_prob = 0.0;
  double move_prob = 0.0;
  double rebid_prob = 0.0;
  std::size_t num_shards = 1;
  std::uint64_t seed = 0;
};

/// Per-layer numbers of one traced churn round (sums; the report divides).
struct ChurnLayerSample {
  std::size_t events = 0;
  double op_us[4] = {0, 0, 0, 0};  ///< by ChurnEvent::Kind, masking excluded
  std::size_t ops[4] = {0, 0, 0, 0};
  double mask_us = 0.0;
  std::size_t masked = 0;
  double table_clone_ms = 0.0;
};

class ChurnRun {
 public:
  /// The set-up: TTP keygen, the schedule's initial roster, masking of
  /// every slot, and the initial ChurnState build.
  explicit ChurnRun(const ChurnParams& params);

  struct RoundOut {
    double round_ms = 0.0;   ///< events applied + allocation + charging
    double commit_ms = 0.0;  ///< table clone + allocate_and_charge
    std::vector<double> submit_us;  ///< per masked event: mask + apply
    std::string failure;            ///< output-check violation, if any
  };

  /// One maintained round.  With `trace` set the round is traced: spans
  /// around every call, plus `layer` and `tail` filled.
  RoundOut round(std::size_t index, obs::MetricsRegistry* trace, ChurnLayerSample* layer,
                 TailSample* tail);

  /// The maintained graph and table image against from-scratch rebuilds;
  /// returns the first mismatch, or an empty string.
  std::string check_against_rebuild() const;

  /// Submission bytes (location + bid) per live SU of the initial roster.
  double wire_bytes_per_su() const { return wire_bytes_per_su_; }

  /// The live roster in plaintext (for the layer probes).
  PlainWorld live_world() const;

  /// Mean conflict degree over the live roster of the maintained graph.
  double mean_degree() const {
    return 2.0 * static_cast<double>(state_->graph().edge_count()) /
           static_cast<double>(state_->live_count());
  }

  const core::LppaConfig& config() const { return auction_.config(); }

 private:
  ChurnParams params_;
  core::LppaAuction auction_;
  core::SuKeyBundle keys_;
  core::PpbsLocation location_protocol_;
  core::BidSubmitter submitter_;
  Rng mask_master_;
  sim::ChurnSchedule schedule_;
  std::optional<core::ChurnState> state_;
  double wire_bytes_per_su_ = 0.0;
};

/// Reports churn.* per-layer metrics from traced rounds.
void report_churn_layers(const std::vector<ChurnLayerSample>& samples,
                         Result& result);

}  // namespace lppa::bench_driver
