#include "core/lppa_auction.h"

#include "common/thread_pool.h"
#include "core/charging.h"
#include "core/conflict_index.h"
#include "core/submission_validator.h"
#include "obs/span.h"

namespace lppa::core {

LppaAuction::LppaAuction(LppaConfig config, std::uint64_t ttp_seed)
    : config_(config), ttp_(config.bid, ttp_seed, config.charging_rule) {
  LPPA_REQUIRE(config_.num_channels > 0, "auction requires channels");
  LPPA_REQUIRE(config_.ttp_batch_size > 0, "TTP batch size must be positive");
  if (config_.backend == nullptr) config_.backend = &ttp_.bid_backend();
  LPPA_REQUIRE(config_.backend->id() == config_.bid.backend,
               "LppaConfig backend does not match the bid-config backend id");
  ttp_.set_metrics(config_.metrics);
}

LppaOutcome LppaAuction::run(
    const std::vector<auction::SuLocation>& locations,
    const std::vector<BidVector>& bids, Rng& rng) {
  LPPA_REQUIRE(locations.size() == bids.size(),
               "one location per bid vector required");
  LPPA_REQUIRE(!bids.empty(), "auction requires at least one bidder");
  for (const auto& bv : bids) {
    LPPA_REQUIRE(bv.size() == config_.num_channels,
                 "bid vectors must cover every auctioned channel");
  }

  obs::MetricsRegistry* const m = config_.metrics;
  obs::Span round_span(m, "auction.round");
  if (m != nullptr) {
    m->counter("auction.rounds").inc();
    m->counter("auction.submissions").inc(bids.size());
  }

  LppaOutcome result;
  AuctioneerView& view = result.view;

  // --- SU side: PPBS -----------------------------------------------------
  const SuKeyBundle keys = ttp_.su_keys();
  const PpbsLocation location_protocol(keys.g0, config_.coord_width,
                                       config_.lambda,
                                       config_.pad_location_ranges);
  const BidSubmitter submitter(ttp_.config(), keys.gb_master, keys.gc,
                               keys.paillier);

  // All SU-side randomness comes from a single fork of the caller's
  // stream, so the allocation below consumes exactly one fork() worth of
  // caller state regardless of N or k — a baseline run can mirror that
  // with one fork() and then share the allocation random sequence.
  //
  // Per-SU streams are forked serially up front (forks are cheap), then
  // the HMAC-heavy submission work fans out: SU i reads only su_rngs[i]
  // and writes only slot i, so the transcript is byte-identical for
  // every value of num_threads.
  Rng su_master = rng.fork();
  const std::size_t n = locations.size();
  std::vector<Rng> su_rngs;
  su_rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) su_rngs.push_back(su_master.fork());

  view.locations.resize(n);
  view.bids.resize(n);
  {
    obs::Span submit_span(m, "auction.submit", &round_span);
    parallel_for(n, config_.num_threads, [&](std::size_t i) {
      view.locations[i] = location_protocol.submit(locations[i], su_rngs[i]);
      view.bids[i] = submitter.submit(bids[i], su_rngs[i]);
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    view.location_wire_bytes += view.locations[i].wire_size();
    view.bid_wire_bytes += view.bids[i].wire_size();
  }
  if (m != nullptr) {
    m->counter("auction.submission_bytes")
        .inc(view.location_wire_bytes + view.bid_wire_bytes);
  }

  // --- Auctioneer side: PSD ----------------------------------------------
  if (config_.validate_submissions) {
    obs::Span validate_span(m, "auction.validate", &round_span);
    const SubmissionValidator validator(config_);
    for (std::size_t i = 0; i < n; ++i) {
      validator.check_location(view.locations[i]);
      validator.check_bid(view.bids[i]);
    }
  }
  {
    obs::Span conflict_span(m, "auction.conflict_graph", &round_span);
    view.conflicts = build_conflict_graph(view.locations, config_.num_threads,
                                          m, nullptr, &conflict_span);
  }
  obs::Span table_span(m, "auction.table", &round_span);
  obs::Span build_span(m, "table.build", &table_span);
  EncryptedBidTable table(view.bids, config_.num_channels,
                          ArgmaxStrategy::kSortedColumns, config_.num_threads,
                          config_.backend);
  build_span.end();
  if (m != nullptr) {
    m->counter("auction.table.order_tests").inc(table.order_tests());
  }
  table_span.end();
  MaintainedRoundOutcome round = allocate_and_charge(
      view.bids, view.conflicts, table, std::vector<bool>(n, true), rng,
      &round_span);

  result.manipulations_detected = round.manipulations_detected;
  result.outcome.awards = round.awards;
  view.awards = std::move(round.awards);
  return result;
}

MaintainedRoundOutcome LppaAuction::allocate_and_charge(
    const std::vector<BidSubmission>& bids,
    const auction::ConflictGraph& conflicts, auction::BidTableView& table,
    const std::vector<bool>& live, Rng& rng, obs::Span* parent) {
  LPPA_REQUIRE(live.size() == bids.size(), "live mask must cover every slot");
  obs::MetricsRegistry* const m = config_.metrics;

  obs::Span allocate_span(m, "auction.allocate", parent);
  std::vector<auction::Award> awards =
      auction::greedy_allocate(table, conflicts, rng);
  allocate_span.end();
  if (m != nullptr) m->counter("auction.awards").inc(awards.size());

  // --- Charging through the periodically-available TTP --------------------
  // Dead roster slots hold stale masks from before their departure: they
  // are not candidates, so they never leak into a second-price charge.
  obs::Span charging_span(m, "auction.charging", parent);
  std::vector<const BidSubmission*> candidates(bids.size(), nullptr);
  for (std::size_t u = 0; u < bids.size(); ++u) {
    if (live[u]) candidates[u] = &bids[u];
  }
  ChargeLedger ledger(std::move(awards), std::move(candidates), config_);
  for (std::size_t b = 0; b < ledger.num_batches(); ++b) {
    ledger.commit(ttp_.process_batch(ledger.batch(b)));
  }
  charging_span.end();

  MaintainedRoundOutcome result;
  result.manipulations_detected = ledger.manipulations();
  result.awards = std::move(ledger).take_awards();
  if (m != nullptr && result.manipulations_detected > 0) {
    m->counter("auction.manipulations").inc(result.manipulations_detected);
  }
  return result;
}

}  // namespace lppa::core
