#include "proto/fault.h"

#include "obs/metrics.h"
#include "proto/bus.h"

namespace lppa::proto {

namespace {

std::pair<std::uint8_t, std::size_t> key_of(const Address& party) {
  return {static_cast<std::uint8_t>(party.kind), party.index};
}

}  // namespace

void require_delay_within_deadline(const FaultSpec& spec,
                                   std::size_t deadline_ticks) {
  if (deadline_ticks == 0 || spec.delay <= 0.0) return;
  LPPA_REQUIRE(spec.max_delay_ticks < deadline_ticks,
               "fault delay budget (" +
                   std::to_string(spec.max_delay_ticks) +
                   " ticks) reaches the session deadline (" +
                   std::to_string(deadline_ticks) +
                   " ticks): a delayed message could land after commit and "
                   "would be indistinguishable from a drop");
}

FaultInjector::FaultInjector(std::uint64_t seed, FaultSpec spec)
    : rng_(seed), default_spec_(spec) {}

void FaultInjector::set_party_spec(const Address& party, FaultSpec spec) {
  overrides_[key_of(party)] = spec;
}

void FaultInjector::mark_byzantine(const Address& party) {
  byzantine_.insert(key_of(party));
}

void FaultInjector::set_metrics(obs::MetricsRegistry* metrics) noexcept {
  metrics_ = metrics;
}

const FaultSpec& FaultInjector::spec_for(const Address& party) const {
  const auto it = overrides_.find(key_of(party));
  return it == overrides_.end() ? default_spec_ : it->second;
}

FaultDecision FaultInjector::decide(const Address& from, const Address&) {
  const FaultSpec& spec = spec_for(from);
  ++counters_.messages;

  FaultDecision d;
  d.corrupt = byzantine_.count(key_of(from)) > 0;

  // One uniform draw cascaded through the delivery faults keeps them
  // mutually exclusive and makes the probabilities read off the spec.
  double u = rng_.uniform01();
  if (u < spec.drop) {
    d.delivery = FaultDecision::Delivery::kDrop;
  } else if ((u -= spec.drop) < spec.duplicate) {
    d.delivery = FaultDecision::Delivery::kDuplicate;
  } else if ((u -= spec.duplicate) < spec.reorder) {
    d.delivery = FaultDecision::Delivery::kReorder;
  } else if ((u -= spec.reorder) < spec.corrupt) {
    d.corrupt = true;
  } else if ((u -= spec.corrupt) < spec.delay) {
    d.delivery = FaultDecision::Delivery::kDelay;
    d.delay_ticks =
        1 + rng_.below(spec.max_delay_ticks == 0 ? 1 : spec.max_delay_ticks);
  }

  switch (d.delivery) {
    case FaultDecision::Delivery::kDrop: ++counters_.drops; break;
    case FaultDecision::Delivery::kDuplicate: ++counters_.duplicates; break;
    case FaultDecision::Delivery::kReorder: ++counters_.reorders; break;
    case FaultDecision::Delivery::kDelay: ++counters_.delays; break;
    case FaultDecision::Delivery::kNormal: break;
  }
  if (d.corrupt) ++counters_.corruptions;
  if (metrics_ != nullptr) {
    metrics_->counter("fault.messages").inc();
    switch (d.delivery) {
      case FaultDecision::Delivery::kDrop:
        metrics_->counter("fault.drops").inc();
        break;
      case FaultDecision::Delivery::kDuplicate:
        metrics_->counter("fault.duplicates").inc();
        break;
      case FaultDecision::Delivery::kReorder:
        metrics_->counter("fault.reorders").inc();
        break;
      case FaultDecision::Delivery::kDelay:
        metrics_->counter("fault.delays").inc();
        break;
      case FaultDecision::Delivery::kNormal:
        break;
    }
    if (d.corrupt) metrics_->counter("fault.corruptions").inc();
  }
  return d;
}

void CrashInjector::arm(CrashPoint point, std::size_t nth) {
  armed_.push_back({point, nth, false});
}

void CrashInjector::checkpoint(CrashPoint point) {
  const std::size_t hit = hits_[static_cast<std::size_t>(point)]++;
  for (Armed& a : armed_) {
    if (!a.fired && a.point == point && a.nth == hit) {
      a.fired = true;
      ++crashes_;
      throw CrashSignal{point, hit};
    }
  }
}

std::size_t CrashInjector::total_hits() const noexcept {
  std::size_t total = 0;
  for (const std::size_t h : hits_) total += h;
  return total;
}

void FaultInjector::corrupt_in_place(Bytes& message) {
  if (message.empty()) {
    message.push_back(static_cast<std::uint8_t>(rng_.below(256)));
    return;
  }
  const std::size_t flips = 1 + rng_.below(4);
  for (std::size_t f = 0; f < flips; ++f) {
    const std::size_t pos = rng_.below(message.size());
    // XOR with a non-zero byte so every flip really changes the message.
    message[pos] ^= static_cast<std::uint8_t>(1 + rng_.below(255));
  }
}

}  // namespace lppa::proto
