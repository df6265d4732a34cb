// ChargeLedger: the charging step of PSD (paper §V-C), shared by
// LppaAuction::allocate_and_charge and proto::AuctioneerSession.
//
// A batch is validated whole before anything is applied, so a rejected
// batch changes nothing and a caller can journal between the two steps.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/lppa_auction.h"

namespace lppa::core {

class ChargeLedger {
 public:
  /// `candidates[u]` is bidder u's submission, or null when u is outside
  /// the round (a dead churn slot, an SU excluded at admission).  Award
  /// users index it; only non-null entries compete for the runner-up.
  /// `priced[a]` marks award a as already priced (a restored snapshot's
  /// charge progress); empty means none is.  Throws LppaError(kProtocol)
  /// when an award names a non-candidate or an unbid channel, or one SU
  /// holds two awards (the user→award index needs one channel per SU,
  /// which greedy allocation guarantees).  Reads the config's
  /// charging_rule, backend (null = HMAC) and ttp_batch_size.
  ChargeLedger(std::vector<auction::Award> awards,
               std::vector<const BidSubmission*> candidates,
               const LppaConfig& config, std::vector<bool> priced = {});

  /// ceil(awards / ttp_batch_size); zero when nobody won.
  std::size_t num_batches() const noexcept;

  /// The charge queries of batch `b`, in award order.  Built on demand,
  /// so a caller can stream batches without holding every query.
  std::vector<ChargeQuery> batch(std::size_t b) const;

  /// Throws LppaError(kProtocol) unless every result names an award's
  /// (user, channel).  True when the batch prices some award for the
  /// first time.
  bool validate(const std::vector<ChargeResult>& results) const;

  /// validate(), then prices each still-unpriced award of the batch:
  /// valid iff the TTP found the bid valid and unmanipulated, charge 0
  /// when manipulated.  A result for a priced award changes nothing, so
  /// a batch that validate() says does not advance needs no journaling.
  void commit(const std::vector<ChargeResult>& results);

  const std::vector<auction::Award>& awards() const noexcept {
    return awards_;
  }
  std::vector<auction::Award> take_awards() && { return std::move(awards_); }
  bool priced(std::size_t award) const { return priced_.at(award); }
  bool complete() const noexcept { return num_priced_ == awards_.size(); }

  /// Awards committed with the TTP's manipulation flag set.
  std::size_t manipulations() const noexcept { return manipulations_; }

 private:
  /// Index of the award `result` prices; throws on an unknown award.
  std::size_t award_of(const ChargeResult& result) const;

  std::vector<auction::Award> awards_;
  std::vector<const BidSubmission*> candidates_;
  std::vector<std::size_t> award_index_;  ///< user -> award index
  /// Per award under kSecondPrice, found once: the column's runner-up,
  /// a masked tournament over every candidate but the winner in
  /// ascending id order, ties keeping the lowest id (the allocator's
  /// column order); nullopt when the winner bid alone.  Every charge
  /// attempt re-sends the same queries, so none re-runs the tournament.
  std::vector<std::optional<auction::UserId>> runner_up_;
  std::vector<bool> priced_;
  std::size_t num_priced_ = 0;
  std::size_t manipulations_ = 0;
  std::size_t batch_size_;
};

}  // namespace lppa::core
