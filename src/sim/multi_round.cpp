#include "sim/multi_round.h"

#include <algorithm>
#include <map>
#include <optional>

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
  std::vector<proto::RoundReport> reports;

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

    if (config.faults.enabled) {
      // Run the same round over the wire under injected faults.  The
      // bus and injector are per-round (session-scoped channels); the
      // wire Rng is independent of the attack-model streams above so
      // enabling faults never perturbs the privacy metrics.
      proto::MessageBus bus;
      proto::FaultInjector injector(config.faults.seed + round,
                                    config.faults.link);
      for (const std::size_t b : config.faults.byzantine) {
        if (b < n) injector.mark_byzantine(proto::Address::su(b));
      }
      bus.set_fault_injector(&injector);

      core::LppaConfig lppa;
      lppa.num_channels = scenario.users().front().bids.size();
      lppa.lambda = scenario.config().lambda_m;
      lppa.coord_width = scenario.coord_width();
      lppa.bid = bid_config;

      // Crash layer: the auctioneer dies at seeded checkpoints and
      // recovers from its journal; a crash-free schedule leaves the
      // outcome byte-identical to the round without the layer.
      const MultiRoundCrashes& cr = config.faults.crashes;
      proto::RecoverableSessionConfig recov;
      recov.hardened = config.faults.session;
      std::optional<proto::CrashInjector> crash_injector;
      if (cr.enabled) {
        crash_injector = proto::CrashInjector::seeded(
            cr.seed + round, cr.crash_prob, cr.max_per_round);
        recov.deadline_ticks = cr.deadline_ticks;
        recov.min_quorum = cr.min_quorum;
        recov.recovery_cost_ticks = cr.recovery_cost_ticks;
      }
      auto wire = proto::run_recoverable_wire_auction(
          lppa, ttp, scenario.locations(), scenario.bids(), bus,
          seed + 4242 * (round + 1), recov,
          crash_injector ? &*crash_injector : nullptr);
      wire.report.round = round;
      reports.push_back(std::move(wire.report));
    }

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
  result.reports = std::move(reports);
  return result;
}

}  // namespace lppa::sim
