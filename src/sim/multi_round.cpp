#include "sim/multi_round.h"

#include <algorithm>
#include <map>

#include "core/bcm.h"
#include "sim/experiments.h"

namespace lppa::sim {

MultiRoundResult run_multi_round(Scenario& scenario,
                                 const MultiRoundConfig& config,
                                 std::uint64_t seed) {
  LPPA_REQUIRE(config.rounds >= 1, "need at least one round");
  const geo::Dataset& dataset = scenario.dataset();
  const std::size_t n = scenario.users().size();
  const core::LppaAdversary adversary(dataset);

  // evidence[u][r] = number of rounds in which the attacker linked
  // channel r to (the pseudonym it believes is) user u.
  std::vector<std::map<std::size_t, std::size_t>> evidence(n);
  std::vector<std::vector<std::size_t>> last_round_sets(n);

  for (std::size_t round = 0; round < config.rounds; ++round) {
    scenario.rebid(seed + 31 * round);
    if (config.move_prob > 0.0 && round > 0) {
      // Mobility strikes between rounds; round 0 runs over the initial
      // population.  The attack's ground truth (users()[u].cell, read
      // after the last round) is each SU's final position.
      scenario.move_users(seed + 977 * round, config.move_prob);
    }

    const auto policy = core::ZeroDisguisePolicy::linear(
        scenario.config().bmax, config.replace_prob);
    const auto bid_config = core::PpbsBidConfig::advanced(
        scenario.config().bmax, config.rd, config.cr, policy);
    // Fresh keys each auction, as the TTP would issue them.
    core::TrustedThirdParty ttp(bid_config, seed + 1000 * round);
    const auto submissions = make_submissions(scenario, bid_config,
                                              ttp.su_keys(), seed + round);

    const auto ranks = adversary.rank_columns(submissions);
    const auto ordered = core::LppaAdversary::infer_ordered_sets(
        ranks, n, config.top_fraction);

    // With ID mixing, each round's pseudonyms are an unknown fresh
    // permutation: cross-round accumulation is impossible and the
    // rational attacker keeps only per-round knowledge.  Without mixing,
    // submissions link by ID and evidence accumulates.
    for (std::size_t u = 0; u < n; ++u) {
      last_round_sets[u] = ordered[u];
      if (!config.mix_ids) {
        for (std::size_t r : ordered[u]) ++evidence[u][r];
      }
    }
  }

  const core::BcmAttack bcm(dataset);
  std::vector<core::AttackMetrics> metrics;
  metrics.reserve(n);
  double channels_used = 0.0;

  for (std::size_t u = 0; u < n; ++u) {
    std::vector<std::size_t> channels;
    if (config.mix_ids) {
      // Single-round knowledge only.
      channels = last_round_sets[u];
    } else {
      // Majority vote over the linked rounds: keep channels seen in more
      // than half of them, most-recurrent first.  Genuine channels recur;
      // disguised zeros are per-round noise and get voted out.
      const std::size_t threshold = config.rounds / 2 + 1;
      std::vector<std::pair<std::size_t, std::size_t>> counted;
      for (const auto& [channel, count] : evidence[u]) {
        if (count >= threshold) counted.emplace_back(count, channel);
      }
      std::sort(counted.rbegin(), counted.rend());
      for (const auto& [count, channel] : counted) {
        channels.push_back(channel);
      }
    }
    channels_used += static_cast<double>(channels.size());
    metrics.push_back(core::evaluate_attack(
        core::LocationEstimate::uniform_over(bcm.run_consistent(channels)),
        dataset.grid(), scenario.users()[u].cell));
  }

  MultiRoundResult result;
  result.metrics = core::aggregate(metrics);
  result.mean_channels_used = channels_used / static_cast<double>(n);
  return result;
}

}  // namespace lppa::sim
