#include "core/charging.h"

#include <algorithm>

namespace lppa::core {

namespace {
constexpr std::size_t kNoAward = static_cast<std::size_t>(-1);
}  // namespace

ChargeLedger::ChargeLedger(std::vector<auction::Award> awards,
                           std::vector<const BidSubmission*> candidates,
                           const LppaConfig& config, std::vector<bool> priced)
    : awards_(std::move(awards)),
      candidates_(std::move(candidates)),
      award_index_(candidates_.size(), kNoAward),
      priced_(priced.empty() ? std::vector<bool>(awards_.size(), false)
                             : std::move(priced)),
      num_priced_(static_cast<std::size_t>(
          std::count(priced_.begin(), priced_.end(), true))),
      batch_size_(config.ttp_batch_size) {
  LPPA_REQUIRE(batch_size_ > 0, "TTP batch size must be positive");
  LPPA_REQUIRE(priced_.size() == awards_.size(),
               "one priced flag per award required");
  for (std::size_t a = 0; a < awards_.size(); ++a) {
    const auction::Award& award = awards_[a];
    LPPA_PROTOCOL_CHECK(
        award.user < candidates_.size() && candidates_[award.user] != nullptr &&
            award.channel < candidates_[award.user]->channels.size(),
        "award to a bidder or channel outside the round");
    LPPA_PROTOCOL_CHECK(award_index_[award.user] == kNoAward,
                        "one SU holds two awards");
    award_index_[award.user] = a;
  }
  if (config.charging_rule != ChargingRule::kSecondPrice) return;
  const crypto::BidBackend& backend = crypto::resolve_backend(config.backend);
  runner_up_.resize(awards_.size());
  for (std::size_t a = 0; a < awards_.size(); ++a) {
    const ChannelId r = awards_[a].channel;
    std::optional<auction::UserId>& second = runner_up_[a];
    for (auction::UserId u = 0; u < candidates_.size(); ++u) {
      if (u == awards_[a].user || candidates_[u] == nullptr) continue;
      if (!second || !backend.ge(candidates_[*second]->channels[r],
                                 candidates_[u]->channels[r])) {
        second = u;
      }
    }
  }
}

std::size_t ChargeLedger::num_batches() const noexcept {
  return (awards_.size() + batch_size_ - 1) / batch_size_;
}

std::vector<ChargeQuery> ChargeLedger::batch(std::size_t b) const {
  LPPA_REQUIRE(b < num_batches(), "charge batch index out of range");
  const std::size_t begin = b * batch_size_;
  const std::size_t end = std::min(begin + batch_size_, awards_.size());
  std::vector<ChargeQuery> queries;
  queries.reserve(end - begin);
  for (std::size_t a = begin; a < end; ++a) {
    const auction::Award& award = awards_[a];
    const ChannelBidSubmission& entry =
        candidates_[award.user]->channels[award.channel];
    ChargeQuery query{award.user,         award.channel, entry.sealed,
                      entry.value_family, entry.paillier_ct,
                      std::nullopt,       std::nullopt,  0};
    if (!runner_up_.empty() && runner_up_[a]) {
      const ChannelBidSubmission& runner =
          candidates_[*runner_up_[a]]->channels[award.channel];
      query.runner_up_sealed = runner.sealed;
      query.runner_up_family = runner.value_family;
      query.runner_up_ct = runner.paillier_ct;
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

std::size_t ChargeLedger::award_of(const ChargeResult& result) const {
  const std::size_t a =
      result.user < award_index_.size() ? award_index_[result.user] : kNoAward;
  LPPA_PROTOCOL_CHECK(a != kNoAward && awards_[a].channel == result.channel,
                      "charge result for an unknown award");
  return a;
}

bool ChargeLedger::validate(const std::vector<ChargeResult>& results) const {
  bool advances = false;
  for (const ChargeResult& res : results) {
    if (!priced_[award_of(res)]) advances = true;
  }
  return advances;
}

void ChargeLedger::commit(const std::vector<ChargeResult>& results) {
  validate(results);
  for (const ChargeResult& res : results) {
    const std::size_t a = award_of(res);
    if (priced_[a]) continue;
    awards_[a].valid = res.valid && !res.manipulated;
    awards_[a].charge = res.manipulated ? 0 : res.charge;
    if (res.manipulated) ++manipulations_;
    priced_[a] = true;
    ++num_priced_;
  }
}

}  // namespace lppa::core
