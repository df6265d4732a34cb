#include "net/socket_fault.h"

#include <algorithm>

namespace lppa::net {

SocketFaultInjector::SocketFaultInjector(std::uint64_t seed,
                                         SocketFaultSpec spec)
    : seed_(seed), spec_(spec) {
  LPPA_REQUIRE(spec.truncate >= 0 && spec.reset >= 0 && spec.delay >= 0 &&
                   spec.duplicate >= 0 && spec.fragment >= 0,
               "fault probabilities must be non-negative");
  LPPA_REQUIRE(spec.truncate + spec.reset + spec.delay + spec.duplicate +
                       spec.fragment <=
                   1.0,
               "socket fault probabilities must sum to at most 1");
  LPPA_REQUIRE(spec.delay <= 0.0 || spec.max_delay_ticks > 0,
               "delay fault needs max_delay_ticks >= 1");
}

SocketFaultDecision SocketFaultInjector::decide(std::size_t su,
                                                std::size_t seq,
                                                std::size_t frame_bytes) {
  if (su >= charged_.size()) {
    charged_.resize(su + 1, 0);
    next_seq_.resize(su + 1, 0);
  }
  LPPA_REQUIRE(seq >= next_seq_[su],
               "socket fault seq must be strictly increasing per SU");
  next_seq_[su] = seq + 1;
  ++counters_.frames;

  SocketFaultDecision d;
  if (su == spec_.mute_su) {
    d.kind = SocketFaultDecision::Kind::kMute;
    ++counters_.mutes;
    return d;  // targeted and permanent — never charged to the budget
  }
  if (charged_[su] >= spec_.max_faults_per_su) return d;  // budget spent

  // One Rng per decision, domain-separated by (su, seq): the verdict is
  // independent of call interleaving across SUs.
  Rng rng(derive_stream_seed(seed_, (static_cast<std::uint64_t>(su) << 20) |
                                        static_cast<std::uint64_t>(seq)));
  const double u = rng.uniform01();
  double edge = spec_.truncate;
  if (u < edge && frame_bytes > 1) {
    d.kind = SocketFaultDecision::Kind::kTruncate;
    // Cut strictly inside the frame so the peer always sees a torn
    // prefix, never an accidental clean delivery.
    d.cut_at = 1 + static_cast<std::size_t>(rng.below(frame_bytes - 1));
    ++counters_.truncations;
  } else if (u < (edge += spec_.reset)) {
    d.kind = SocketFaultDecision::Kind::kReset;
    ++counters_.resets;
  } else if (u < (edge += spec_.delay)) {
    d.kind = SocketFaultDecision::Kind::kDelay;
    d.delay_ticks =
        1 + static_cast<std::size_t>(rng.below(spec_.max_delay_ticks));
    ++counters_.delays;
  } else if (u < (edge += spec_.duplicate)) {
    d.kind = SocketFaultDecision::Kind::kDuplicate;
    ++counters_.duplicates;
  } else if (u < (edge += spec_.fragment)) {
    d.kind = SocketFaultDecision::Kind::kFragment;
    // A few cuts strictly inside the frame, drawn like kTruncate's, so
    // the fault costs a handful of sends whatever the frame size.
    for (std::size_t i = 0;
         i < SocketFaultDecision::kMaxFragmentCuts && frame_bytes > 1; ++i) {
      d.fragment_cuts.push_back(
          1 + static_cast<std::size_t>(rng.below(frame_bytes - 1)));
    }
    std::sort(d.fragment_cuts.begin(), d.fragment_cuts.end());
    d.fragment_cuts.erase(
        std::unique(d.fragment_cuts.begin(), d.fragment_cuts.end()),
        d.fragment_cuts.end());
    ++counters_.fragments;
  }
  if (d.kind != SocketFaultDecision::Kind::kNone) ++charged_[su];
  return d;
}

void SocketFaultInjector::require_within_deadline(
    std::size_t deadline_ticks) const {
  proto::FaultSpec bridge;
  bridge.delay = spec_.delay;
  bridge.max_delay_ticks = spec_.max_delay_ticks;
  proto::require_delay_within_deadline(bridge, deadline_ticks);
}

}  // namespace lppa::net
