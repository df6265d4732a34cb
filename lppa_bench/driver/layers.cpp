#include "driver/layers.h"

#include <algorithm>

#include "common/error.h"
#include "core/submission_validator.h"
#include "core/theorems.h"
#include "driver/counting.h"

namespace lppa::bench_driver {

namespace {

core::EncryptedBidTable copy_of(const core::EncryptedBidTable& table) {
  return table;
}
core::ShardedBidTable copy_of(const core::ShardedBidTable& table) {
  return table.clone();
}

template <typename Table>
core::MaintainedRoundOutcome tail_impl(
    core::LppaAuction& auction, const std::vector<core::BidSubmission>& bids,
    const auction::ConflictGraph& graph, Table& table,
    const std::vector<bool>& live, Rng& rng, obs::MetricsRegistry* trace, const obs::Span* parent,
    TailSample& sample, double& extra_ms) {
  // Allocation alone, on copies of the table and the generator, through
  // the counting view: allocate_and_charge below consumes the same
  // inputs, so its time minus this one is the charging step.
  {
    const auto t0 = Clock::now();
    Table copy = copy_of(table);
    Rng rng_copy = rng;
    CountingTableView view(copy);
    obs::Span span(trace, "auction.greedy_allocate", parent);
    const auto t1 = Clock::now();
    (void)auction::greedy_allocate(view, graph, rng_copy);
    const auto t2 = Clock::now();
    span.end();
    sample.allocate_ms = ms_between(t1, t2);
    sample.argmax_calls = view.argmax_calls();
    sample.removes = view.removes();
    extra_ms += ms_between(t0, Clock::now());
  }

  const core::TrustedThirdParty& ttp = auction.ttp();
  const std::size_t queries0 = ttp.queries_processed();
  const std::size_t batches0 = ttp.batches_processed();
  core::MaintainedRoundOutcome out;
  {
    obs::Span span(trace, "auction.allocate_and_charge", parent);
    const auto t0 = Clock::now();
    out = auction.allocate_and_charge(bids, graph, table, live, rng);
    sample.allocate_and_charge_ms = ms_between(t0, Clock::now());
  }
  sample.ttp_queries = ttp.queries_processed() - queries0;
  sample.ttp_batches = ttp.batches_processed() - batches0;
  sample.awards = out.awards.size();
  sample.valid_awards = static_cast<std::size_t>(
      std::count_if(out.awards.begin(), out.awards.end(),
                    [](const auction::Award& a) { return a.valid; }));

  // The round's first-price charge queries, re-issued in the same batches
  // to a copy of the TTP: the TTP's share of the charging step.
  {
    const auto t0 = Clock::now();
    core::TrustedThirdParty ttp_copy = ttp;
    std::vector<std::vector<core::ChargeQuery>> batches;
    const std::size_t batch_size = auction.config().ttp_batch_size;
    for (const auction::Award& award : out.awards) {
      if (batches.empty() || batches.back().size() >= batch_size) {
        batches.emplace_back();
      }
      const core::ChannelBidSubmission& entry =
          bids[award.user].channels[award.channel];
      batches.back().push_back(core::ChargeQuery{
          award.user, award.channel, entry.sealed, entry.value_family,
          entry.paillier_ct, std::nullopt, std::nullopt, 0});
    }
    obs::Span span(trace, "ttp.process_batch", parent);
    const auto t1 = Clock::now();
    for (const auto& batch : batches) (void)ttp_copy.process_batch(batch);
    sample.ttp_ms = ms_between(t1, Clock::now());
    span.end();
    extra_ms += ms_between(t0, Clock::now());
  }
  return out;
}

}  // namespace

core::MaintainedRoundOutcome traced_tail(
    core::LppaAuction& auction, const std::vector<core::BidSubmission>& bids,
    const auction::ConflictGraph& graph, core::EncryptedBidTable& table,
    const std::vector<bool>& live, Rng& rng, obs::MetricsRegistry* trace, const obs::Span* parent,
    TailSample& sample, double& extra_ms) {
  return tail_impl(auction, bids, graph, table, live, rng, trace, parent, sample,
                   extra_ms);
}

core::MaintainedRoundOutcome traced_tail(
    core::LppaAuction& auction, const std::vector<core::BidSubmission>& bids,
    const auction::ConflictGraph& graph, core::ShardedBidTable& table,
    const std::vector<bool>& live, Rng& rng, obs::MetricsRegistry* trace, const obs::Span* parent,
    TailSample& sample, double& extra_ms) {
  return tail_impl(auction, bids, graph, table, live, rng, trace, parent, sample,
                   extra_ms);
}

std::size_t count_x_window_pairs(
    const std::vector<auction::SuLocation>& locations, std::uint64_t lambda) {
  std::vector<std::uint64_t> xs;
  xs.reserve(locations.size());
  for (const auto& loc : locations) xs.push_back(loc.x);
  std::sort(xs.begin(), xs.end());
  std::size_t pairs = 0;
  std::size_t lo = 0;
  for (std::size_t hi = 0; hi < xs.size(); ++hi) {
    while (xs[hi] - xs[lo] > 2 * lambda) ++lo;
    pairs += hi - lo;
  }
  return pairs;
}

ReplayOutcome replay_round(core::LppaAuction& auction, const PlainWorld& world,
                           Rng& rng, obs::MetricsRegistry* trace) {
  const core::LppaConfig& config = auction.config();
  LPPA_REQUIRE(config.num_shards == 1, "the replay mirrors the unsharded path");
  const std::size_t n = world.locations.size();
  ReplayOutcome result;
  LayerSample& layers = result.layers;
  layers.users = n;
  double extra_ms = 0.0;
  const auto t_round = Clock::now();
  obs::Span round_span(trace, "round.replay");

  // --- SU side: PPBS, with run()'s fork discipline -------------------------
  const core::SuKeyBundle keys = auction.ttp().su_keys();
  const core::PpbsLocation location_protocol(keys.g0, config.coord_width,
                                             config.lambda,
                                             config.pad_location_ranges);
  const core::BidSubmitter submitter(auction.ttp().config(), keys.gb_master,
                                     keys.gc, keys.paillier);
  Rng su_master = rng.fork();
  std::vector<Rng> su_rngs;
  su_rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) su_rngs.push_back(su_master.fork());

  std::vector<core::LocationSubmission> locations(n);
  std::vector<core::BidSubmission> bids(n);
  {
    obs::Span span(trace, "core.ppbs.submit", &round_span);
    for (std::size_t i = 0; i < n; ++i) {
      const auto t0 = Clock::now();
      locations[i] = location_protocol.submit(world.locations[i], su_rngs[i]);
      const auto t1 = Clock::now();
      bids[i] = submitter.submit(world.bids[i], su_rngs[i]);
      const auto t2 = Clock::now();
      layers.location_submit_ms += ms_between(t0, t1);
      layers.bid_submit_ms += ms_between(t1, t2);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const core::LocationSubmission& loc = locations[i];
    layers.digests += loc.x_family.size() + loc.y_family.size() +
                      loc.x_range.size() + loc.y_range.size();
    for (const auto& cell : bids[i].channels) {
      layers.digests += cell.value_family.size() + cell.range_set.size();
    }
    layers.bid_wire_bytes += static_cast<double>(bids[i].wire_size());
    layers.index_entries += loc.x_range.size();
    layers.probes += loc.x_family.size();
  }
  const int w = auction.ttp().config().enc.scaled_width();
  layers.theorem4_bytes =
      core::theorems::thm4_comm_bits(core::theorems::hmac_length_ratio(w),
                                     config.num_channels, n, w) /
      8.0;

  // --- Auctioneer side: PSD --------------------------------------------------
  if (config.validate_submissions) {
    obs::Span span(trace, "core.submission_validator", &round_span);
    const auto t0 = Clock::now();
    const core::SubmissionValidator validator(config);
    for (std::size_t i = 0; i < n; ++i) {
      try {
        validator.check_location(locations[i]);
        validator.check_bid(bids[i]);
      } catch (const LppaError&) {
        ++layers.rejected;
      }
    }
    layers.validate_ms = ms_between(t0, Clock::now());
  }

  auction::ConflictGraph graph(n);
  {
    obs::Span span(trace, "core.ppbs_location.build_conflict_graph",
                    &round_span);
    const auto t0 = Clock::now();
    graph = core::PpbsLocation::build_conflict_graph(locations,
                                                     config.num_threads);
    layers.conflict_ms = ms_between(t0, Clock::now());
  }
  layers.edges = graph.edge_count();

  const CountingBackend backend(crypto::resolve_backend(config.backend));
  std::optional<core::EncryptedBidTable> table;
  {
    obs::Span span(trace, "core.encrypted_bid_table.build", &round_span);
    const auto t0 = Clock::now();
    table.emplace(bids, config.num_channels, config.argmax_strategy,
                  config.num_threads, &backend);
    layers.table_ms = ms_between(t0, Clock::now());
  }
  layers.compares = backend.compares();

  const std::vector<bool> all_live(n, true);
  core::MaintainedRoundOutcome round =
      traced_tail(auction, bids, graph, *table, all_live, rng, trace,
                  &round_span, layers.tail, extra_ms);
  round_span.end();
  result.round_ms = ms_between(t_round, Clock::now()) - extra_ms;

  // Counted from the plaintext, outside the round time.
  layers.y_confirms = count_x_window_pairs(world.locations, config.lambda);
  result.awards = std::move(round.awards);
  result.manipulations = round.manipulations_detected;
  return result;
}

namespace {

template <typename Sample, typename Fn>
double median_of(const std::vector<Sample>& samples, Fn&& fn) {
  std::vector<double> values;
  for (const Sample& s : samples) values.push_back(fn(s));
  return median(values);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void report_layers(const std::vector<LayerSample>& samples, Result& result) {
  if (samples.empty()) return;
  using S = LayerSample;
  const auto per_su = [](double total, const S& s) {
    return ratio(total, static_cast<double>(s.users));
  };
  result.set("ppbs.location_submit.us_per_su", median_of(samples, [&](const S& s) {
               return per_su(1000.0 * s.location_submit_ms, s);
             }), "us");
  result.set("ppbs.bid_submit.us_per_su", median_of(samples, [&](const S& s) {
               return per_su(1000.0 * s.bid_submit_ms, s);
             }), "us");
  result.set("ppbs.digests_per_su", median_of(samples, [&](const S& s) {
               return per_su(static_cast<double>(s.digests), s);
             }), "count");
  result.set("ppbs.theorem4_ratio", median_of(samples, [](const S& s) {
               return ratio(s.bid_wire_bytes, s.theorem4_bytes);
             }), "ratio");
  result.set("validate.ms",
             median_of(samples, [](const S& s) { return s.validate_ms; }), "ms");
  double rejected = 0.0;
  for (const S& s : samples) rejected += static_cast<double>(s.rejected);
  result.set("validate.rejected", rejected, "count");
  result.set("conflict.build_ms",
             median_of(samples, [](const S& s) { return s.conflict_ms; }), "ms");
  result.set("conflict.index_entries", median_of(samples, [](const S& s) {
               return static_cast<double>(s.index_entries);
             }), "count");
  result.set("conflict.probes", median_of(samples, [](const S& s) {
               return static_cast<double>(s.probes);
             }), "count");
  result.set("conflict.ns_per_probe", median_of(samples, [](const S& s) {
               return ratio(1e6 * s.conflict_ms, static_cast<double>(s.probes));
             }), "ns");
  result.set("conflict.edges", median_of(samples, [](const S& s) {
               return static_cast<double>(s.edges);
             }), "count");
  result.set("conflict.mean_degree", median_of(samples, [&](const S& s) {
               return per_su(2.0 * static_cast<double>(s.edges), s);
             }), "count");
  result.set("conflict.y_confirms", median_of(samples, [](const S& s) {
               return static_cast<double>(s.y_confirms);
             }), "count");
  result.set("table.build_ms",
             median_of(samples, [](const S& s) { return s.table_ms; }), "ms");
  result.set("table.masked_compares", median_of(samples, [](const S& s) {
               return static_cast<double>(s.compares);
             }), "count");
  result.set("table.ns_per_compare", median_of(samples, [](const S& s) {
               return ratio(1e6 * s.table_ms, static_cast<double>(s.compares));
             }), "ns");
  std::vector<TailSample> tails;
  for (const S& s : samples) tails.push_back(s.tail);
  report_tail(tails, result);
}

void report_tail(const std::vector<TailSample>& samples, Result& result) {
  if (samples.empty()) return;
  using T = TailSample;
  result.set("allocate.ms",
             median_of(samples, [](const T& s) { return s.allocate_ms; }), "ms");
  result.set("allocate.argmax_calls", median_of(samples, [](const T& s) {
               return static_cast<double>(s.argmax_calls);
             }), "count");
  result.set("allocate.removes", median_of(samples, [](const T& s) {
               return static_cast<double>(s.removes);
             }), "count");
  result.set("allocate.awards", median_of(samples, [](const T& s) {
               return static_cast<double>(s.awards);
             }), "count");
  result.set("allocate.valid_ratio", median_of(samples, [](const T& s) {
               return ratio(static_cast<double>(s.valid_awards),
                            static_cast<double>(s.awards));
             }), "ratio");
  result.set("ttp.process_ms",
             median_of(samples, [](const T& s) { return s.ttp_ms; }), "ms");
  result.set("ttp.queries", median_of(samples, [](const T& s) {
               return static_cast<double>(s.ttp_queries);
             }), "count");
  result.set("ttp.batches", median_of(samples, [](const T& s) {
               return static_cast<double>(s.ttp_batches);
             }), "count");
  result.set("ttp.us_per_query", median_of(samples, [](const T& s) {
               return ratio(1000.0 * s.ttp_ms, static_cast<double>(s.ttp_queries));
             }), "us");
  result.set("charge.ms", median_of(samples, [](const T& s) {
               return s.allocate_and_charge_ms - s.allocate_ms;
             }), "ms");
  result.set("charge.bookkeeping_ms", median_of(samples, [](const T& s) {
               return s.allocate_and_charge_ms - s.allocate_ms - s.ttp_ms;
             }), "ms");
}

}  // namespace lppa::bench_driver
