#include "driver/churn.h"

namespace lppa::bench_driver {

namespace {

core::LppaConfig churn_config(const ChurnParams& p) {
  core::LppaConfig config;
  config.num_channels = p.channels;
  config.lambda = p.lambda;
  config.coord_width = p.coord_width;
  config.num_shards = p.num_shards;
  config.num_threads = 1;
  return config;
}

sim::ChurnScheduleConfig schedule_config(const ChurnParams& p,
                                         auction::Money bmax) {
  sim::ChurnScheduleConfig c;
  c.capacity = p.capacity;
  c.initial_live = p.initial_live;
  c.arrive_prob = p.arrive_prob;
  c.depart_prob = p.depart_prob;
  c.move_prob = p.move_prob;
  c.rebid_prob = p.rebid_prob;
  c.num_channels = p.channels;
  c.bmax = bmax;
  c.coord_width = p.coord_width;
  c.lambda = p.lambda;
  c.seed = stream_seed(p.seed, 11);
  return c;
}

constexpr std::size_t kArrive = 0, kDepart = 1, kMove = 2, kRebid = 3;

}  // namespace

ChurnRun::ChurnRun(const ChurnParams& params)
    : params_(params),
      auction_(churn_config(params), stream_seed(params.seed, 12)),
      keys_(auction_.ttp().su_keys()),
      location_protocol_(keys_.g0, params.coord_width, params.lambda,
                         auction_.config().pad_location_ranges),
      submitter_(auction_.ttp().config(), keys_.gb_master, keys_.gc,
                 keys_.paillier),
      mask_master_(stream_seed(params.seed, 13)),
      schedule_(schedule_config(params, auction_.ttp().config().enc.bmax)) {
  const std::size_t capacity = params.capacity;
  std::vector<auction::SuLocation> locations(capacity);
  std::vector<core::LocationSubmission> loc_subs(capacity);
  std::vector<core::BidSubmission> bid_subs(capacity);
  const auction::BidVector zero_bids(params.channels, 0);
  double wire_bytes = 0.0;
  for (std::size_t u = 0; u < capacity; ++u) {
    Rng su_rng = mask_master_.fork();
    if (schedule_.live()[u]) {
      locations[u] = schedule_.locations()[u];
      loc_subs[u] = location_protocol_.submit(locations[u], su_rng);
      bid_subs[u] = submitter_.submit(schedule_.bids()[u], su_rng);
      wire_bytes += static_cast<double>(loc_subs[u].wire_size() +
                                        bid_subs[u].wire_size());
    } else {
      // Dead slot: no location digests and a masked all-zero placeholder
      // bid, which ChurnState keeps tombstoned.
      bid_subs[u] = submitter_.submit(zero_bids, su_rng);
    }
  }
  wire_bytes_per_su_ = wire_bytes / static_cast<double>(schedule_.live_count());
  state_.emplace(auction_.config(), std::move(locations), std::move(loc_subs),
                 std::move(bid_subs), schedule_.live());
}

ChurnRun::RoundOut ChurnRun::round(std::size_t index, obs::MetricsRegistry* trace,
                                   ChurnLayerSample* layer, TailSample* tail) {
  RoundOut out;
  const std::vector<sim::ChurnEvent> events = schedule_.next_round();
  core::ChurnState& state = *state_;

  obs::Span round_span(trace, "round.churn");
  const auto t_round = Clock::now();
  {
    obs::Span events_span(trace, "core.churn_state.apply_events",
                          &round_span);
    for (const sim::ChurnEvent& ev : events) {
      const auto t0 = Clock::now();
      Rng su_rng = mask_master_.fork();
      std::optional<core::LocationSubmission> loc;
      std::optional<core::BidSubmission> bid;
      std::size_t kind = kDepart;
      switch (ev.kind) {
        case sim::ChurnEvent::Kind::kArrive:
          kind = kArrive;
          loc = location_protocol_.submit(ev.loc, su_rng);
          bid = submitter_.submit(ev.bids, su_rng);
          break;
        case sim::ChurnEvent::Kind::kDepart:
          break;
        case sim::ChurnEvent::Kind::kMove:
          kind = kMove;
          loc = location_protocol_.submit(ev.loc, su_rng);
          break;
        case sim::ChurnEvent::Kind::kRebid:
          kind = kRebid;
          bid = submitter_.submit(ev.bids, su_rng);
          break;
      }
      const auto t1 = Clock::now();
      switch (kind) {
        case kArrive:
          state.add_su(ev.user, ev.loc, std::move(*loc), std::move(*bid));
          break;
        case kDepart:
          state.remove_su(ev.user);
          break;
        case kMove:
          state.move_su(ev.user, ev.loc, std::move(*loc));
          break;
        case kRebid:
          state.rebid_su(ev.user, std::move(*bid));
          break;
      }
      const auto t2 = Clock::now();
      if (kind != kDepart) out.submit_us.push_back(us_between(t0, t2));
      if (layer != nullptr) {
        layer->op_us[kind] += us_between(t1, t2);
        ++layer->ops[kind];
        if (kind != kDepart) {
          layer->mask_us += us_between(t0, t1);
          ++layer->masked;
        }
      }
    }
  }
  if (layer != nullptr) layer->events = events.size();

  const auto t_commit = Clock::now();
  Rng alloc_rng(stream_seed(params_.seed, 1000 + index));
  core::MaintainedRoundOutcome result;
  double extra_ms = 0.0;
  if (trace == nullptr) {
    core::ShardedBidTable table = state.table_for_allocation();
    result = auction_.allocate_and_charge(state.bids(), state.graph(), table,
                                          state.live(), alloc_rng);
  } else {
    obs::Span commit_span(trace, "round.commit", &round_span);
    const auto t0 = Clock::now();
    std::optional<core::ShardedBidTable> table;
    {
      obs::Span span(trace, "core.churn_state.table_for_allocation",
                     &commit_span);
      table.emplace(state.table_for_allocation());
    }
    layer->table_clone_ms = ms_between(t0, Clock::now());
    result = traced_tail(auction_, state.bids(), state.graph(), *table,
                         state.live(), alloc_rng, trace, &commit_span, *tail,
                         extra_ms);
  }
  const auto t_end = Clock::now();
  round_span.end();
  out.round_ms = ms_between(t_round, t_end) - extra_ms;
  out.commit_ms = ms_between(t_commit, t_end) - extra_ms;

  out.failure = check_awards(result.awards, schedule_.locations(),
                             schedule_.bids(), params_.lambda, &state.live());
  if (out.failure.empty() && result.manipulations_detected != 0) {
    out.failure = "TTP detected manipulated bids";
  }
  return out;
}

std::string ChurnRun::check_against_rebuild() const {
  const core::ChurnState& state = *state_;
  if (!(state.graph() == state.rebuild_conflicts())) {
    return "maintained conflict graph differs from a rebuild";
  }
  if (state.serialize_table() != state.rebuild_table().serialize()) {
    return "maintained table image differs from a rebuild";
  }
  return {};
}

PlainWorld ChurnRun::live_world() const {
  PlainWorld world;
  for (std::size_t u = 0; u < params_.capacity; ++u) {
    if (!schedule_.live()[u]) continue;
    world.locations.push_back(schedule_.locations()[u]);
    world.bids.push_back(schedule_.bids()[u]);
  }
  return world;
}

void report_churn_layers(const std::vector<ChurnLayerSample>& samples,
                         Result& result) {
  ChurnLayerSample total;
  std::vector<double> clone_ms;
  for (const ChurnLayerSample& s : samples) {
    total.events += s.events;
    for (std::size_t k = 0; k < 4; ++k) {
      total.op_us[k] += s.op_us[k];
      total.ops[k] += s.ops[k];
    }
    total.mask_us += s.mask_us;
    total.masked += s.masked;
    clone_ms.push_back(s.table_clone_ms);
  }
  const auto mean = [](double sum, std::size_t count) {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  };
  result.set("churn.events_per_round",
             mean(static_cast<double>(total.events), samples.size()), "count");
  result.set("churn.add_us", mean(total.op_us[kArrive], total.ops[kArrive]), "us");
  result.set("churn.remove_us", mean(total.op_us[kDepart], total.ops[kDepart]),
             "us");
  result.set("churn.move_us", mean(total.op_us[kMove], total.ops[kMove]), "us");
  result.set("churn.rebid_us", mean(total.op_us[kRebid], total.ops[kRebid]),
             "us");
  result.set("churn.mask_us_per_event", mean(total.mask_us, total.masked), "us");
  result.set("churn.table_clone_ms", median(clone_ms), "ms");
}

}  // namespace lppa::bench_driver
