#include "proto/round_driver.h"

#include <algorithm>
#include <limits>

#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace lppa::proto {

std::size_t HardenedSessionConfig::backoff_ticks(
    std::size_t wave) const noexcept {
  if (backoff_base_ticks == 0) return 0;
  // base * 2^wave overflows exactly when base > max >> wave; comparing
  // that way never shifts by more than the word size and never wraps.
  if (wave >= static_cast<std::size_t>(
                  std::numeric_limits<std::size_t>::digits) ||
      backoff_base_ticks > (max_backoff_ticks >> wave)) {
    return max_backoff_ticks;
  }
  return backoff_base_ticks << wave;
}

std::vector<bool> participation_mask(std::size_t num_users,
                                     const std::vector<std::size_t>& exclude) {
  std::vector<bool> participating(num_users, true);
  for (const std::size_t u : exclude) {
    LPPA_REQUIRE(u < num_users, "excluded SU index out of range");
    participating[u] = false;
  }
  return participating;
}

std::vector<SuEnvelopes> mask_submissions(
    const core::LppaConfig& config, const core::SuKeyBundle& keys,
    const std::vector<auction::SuLocation>& locations,
    const std::vector<auction::BidVector>& bids, std::uint64_t seed,
    const std::vector<bool>& participating) {
  LPPA_REQUIRE(locations.size() == bids.size(),
               "one location per bid vector required");
  LPPA_REQUIRE(!bids.empty(), "auction requires at least one bidder");
  const std::size_t n = bids.size();
  LPPA_REQUIRE(participating.size() == n,
               "participating mask must cover every SU");

  Rng boot(seed);
  Rng su_master = boot.fork();
  std::vector<Rng> su_rngs;
  su_rngs.reserve(n);
  for (std::size_t u = 0; u < n; ++u) su_rngs.push_back(su_master.fork());

  std::vector<SuEnvelopes> built(n);
  parallel_for(n, config.num_threads, [&](std::size_t u) {
    if (!participating[u]) return;
    const SuClient client(u, config, keys);
    built[u].su = u;
    built[u].location = client.location_envelope(locations[u], su_rngs[u]);
    built[u].bid = client.bid_envelope(bids[u], su_rngs[u]);
  });
  std::vector<SuEnvelopes> out;
  for (std::size_t u = 0; u < n; ++u) {
    if (participating[u]) out.push_back(std::move(built[u]));
  }
  return out;
}

std::size_t replay_session_journal(const RoundJournal& journal,
                                   AuctioneerSession& session,
                                   std::size_t num_users, RoundReport& report,
                                   const obs::Span* parent) {
  const std::vector<JournalRecord> records = RoundJournal::read(journal.data());
  if (records.empty()) return 0;
  LPPA_PROTOCOL_CHECK(records.front().type == JournalRecordType::kRoundStart &&
                          records.front().round_start_users() == num_users,
                      "journal does not open this round");

  std::size_t last_alloc = records.size();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].type == JournalRecordType::kAllocated) last_alloc = i;
  }

  if (last_alloc != records.size()) {
    session.restore_from(records[last_alloc].payload, parent);
    ++report.replayed_records;
    for (std::size_t i = last_alloc + 1; i < records.size(); ++i) {
      const JournalRecord& rec = records[i];
      LPPA_PROTOCOL_CHECK(rec.type == JournalRecordType::kChargeCommit,
                          "unexpected journal record after allocation commit");
      session.ingest_charge_results(rec.payload);
      ++report.replayed_records;
    }
    session.finalize_participants(report);  // rebuild the exclusion section
    return 0;  // admission is long closed; the wave counter is moot
  }

  std::size_t resume_wave = 0;
  for (const JournalRecord& rec : records) {
    switch (rec.type) {
      case JournalRecordType::kRoundStart:
        break;
      case JournalRecordType::kAccepted: {
        std::string error;
        const auto outcome = session.try_ingest(rec.payload, &error);
        LPPA_PROTOCOL_CHECK(
            outcome == AuctioneerSession::IngestResult::kAccepted,
            "journaled submission failed re-ingest: " + error);
        break;
      }
      case JournalRecordType::kStrike: {
        const auto note = rec.user_note();
        session.replay_strike(note.user, note.detail);
        break;
      }
      case JournalRecordType::kEquivocation: {
        const auto note = rec.user_note();
        session.replay_equivocation(note.user, note.detail);
        break;
      }
      case JournalRecordType::kNackSent:
        resume_wave = std::max(resume_wave,
                               static_cast<std::size_t>(rec.nack().wave) + 1);
        break;
      case JournalRecordType::kFinalized:
        session.finalize_participants(report);
        break;
      case JournalRecordType::kChurnDeparture:
        session.churn_depart(rec.churn_user());
        break;
      case JournalRecordType::kChurnArrival:
        session.churn_return(rec.churn_user());
        break;
      default:
        LPPA_PROTOCOL_CHECK(false,
                            "journal record out of phase before allocation");
    }
    ++report.replayed_records;
  }
  return resume_wave;
}

namespace {

/// The session's config: a config without a registry records into the
/// driver's, so the session's build spans land in the round's tree.
core::LppaConfig with_registry(core::LppaConfig config,
                               obs::MetricsRegistry* metrics) {
  if (config.metrics == nullptr) config.metrics = metrics;
  return config;
}

}  // namespace

RoundDriver::RoundDriver(const core::LppaConfig& config, std::size_t num_users,
                         RecoverableSessionConfig policy,
                         std::vector<bool> participating, std::uint64_t seed,
                         RoundJournal& journal, RoundReport& report,
                         CrashInjector* crashes, obs::MetricsRegistry* metrics,
                         const obs::Span* round_span)
    : policy_(std::move(policy)), participating_(std::move(participating)),
      seed_(seed), journal_(journal), report_(report), crashes_(crashes),
      metrics_(metrics),
      session_(with_registry(config, metrics), num_users),
      attempt_span_(metrics, "wire.attempt", round_span) {
  LPPA_REQUIRE(participating_.size() == num_users,
               "participating mask must cover every SU");
  LPPA_REQUIRE(policy_.min_quorum >= 1, "a round needs a quorum of at least 1");
  report_.num_users = num_users;
  report_.deadline_ticks = policy_.deadline_ticks;

  if (!journal_.empty()) ++report_.crash_recoveries;
  if (metrics_ != nullptr) {
    metrics_->counter(journal_.empty() ? "wire.rounds" : "wire.crash_recoveries")
        .inc();
  }

  // A nack carries only its mask: three envelopes, checksummed once.
  for (std::uint8_t mask = 1; mask < nack_envelopes_.size(); ++mask) {
    RetransmitRequest request;
    request.mask = mask;
    Envelope nack;
    nack.type = MessageType::kRetransmitRequest;
    nack.payload = request.serialize();
    nack_envelopes_[mask] = nack.serialize();
  }

  // Replay must not re-journal what is already durable: attach after.
  wave_ = replay_session_journal(journal_, session_, num_users, report_,
                                 &attempt_span_);
  session_.attach_journal(&journal_);
  awaited_.assign(num_users, false);
  for (const std::size_t u : session_.missing_users()) refresh_awaited(u);
  if (journal_.empty()) {
    journal_.append_round_start(num_users);
    // Admission journals at most one nack per SU per wave: plan for the
    // first waves (a hint — later waves grow the log as before, and the
    // plan stays bounded whatever max_retries says).  The session plans
    // the accepted envelopes as the first of each kind arrives.
    constexpr std::size_t kPlannedNackWaves = 16;
    journal_.plan(num_users *
                  std::min(policy_.hardened.max_retries, kPlannedNackWaves) *
                  RoundJournal::kNackRecordBytes);
  }
}

void RoundDriver::checkpoint(CrashPoint point) {
  if (crashes_ != nullptr) crashes_->checkpoint(point);
}

void RoundDriver::start() {
  if (!admission_open()) {
    commit();
    return;
  }
  phase_span_.emplace(metrics_, "wire.admission", &attempt_span_);
  // Operations the journal already holds were re-applied by replay.
  for (std::size_t i = session_.churn_ops_applied(); i < policy_.churn.size();
       ++i) {
    const ChurnOp& op = policy_.churn[i];
    if (op.depart) {
      session_.churn_depart(op.user);
    } else {
      session_.churn_return(op.user);
    }
    refresh_awaited(op.user);
    checkpoint(CrashPoint::kMidChurn);
  }
}

AuctioneerSession::IngestVerdict RoundDriver::on_submission(
    const Bytes& envelope) {
  const auto verdict = session_.try_ingest(envelope);
  switch (verdict.result) {
    case AuctioneerSession::IngestResult::kAccepted:
      refresh_awaited(verdict.sender);
      checkpoint(CrashPoint::kAfterIngest);
      break;
    case AuctioneerSession::IngestResult::kDuplicateRedelivery:
      ++report_.duplicate_redeliveries;
      break;
    case AuctioneerSession::IngestResult::kEquivocation:
      refresh_awaited(verdict.sender);
      ++report_.rejected_messages;
      break;
    case AuctioneerSession::IngestResult::kRejected:
      ++report_.rejected_messages;
      break;
  }
  return verdict;
}

void RoundDriver::refresh_awaited(std::size_t u) {
  const bool awaited = participating_[u] && session_.is_missing(u);
  if (awaited == awaited_[u]) return;
  awaited_[u] = awaited;
  if (awaited) {
    ++num_awaited_;
  } else {
    --num_awaited_;
  }
}

std::vector<RoundDriver::Nack> RoundDriver::wave(std::size_t ticks) {
  if (!admission_open()) return {};
  std::vector<std::size_t> missing;
  for (const std::size_t u : session_.missing_users()) {
    if (participating_[u]) missing.push_back(u);
  }
  const bool deadline_expired =
      policy_.deadline_ticks > 0 && ticks >= policy_.deadline_ticks;
  if (missing.empty() || deadline_expired ||
      wave_ >= policy_.hardened.max_retries) {
    // An expired deadline (typically eaten by recoveries) commits with
    // the quorum of journaled submissions instead of waiting out waves.
    if (!missing.empty() && deadline_expired) report_.degraded = true;
    commit();
    return {};
  }

  report_.retry_waves = std::max(report_.retry_waves, wave_ + 1);
  std::vector<Nack> nacks;
  nacks.reserve(missing.size());
  for (const std::size_t u : missing) {
    const auto mask = static_cast<std::uint8_t>(
        (session_.has_location(u) ? 0 : RetransmitRequest::kLocation) |
        (session_.has_bid(u) ? 0 : RetransmitRequest::kBid));
    journal_.append_nack(u, mask, wave_);
    nacks.push_back({u, nack_envelopes_[mask]});
  }
  if (metrics_ != nullptr) metrics_->counter("wire.nacks").inc(nacks.size());
  ++wave_;
  return nacks;
}

void RoundDriver::commit() {
  phase_span_.reset();
  if (!session_.allocation_done()) {
    obs::Span allocation_span(metrics_, "wire.allocation", &attempt_span_);
    session_.finalize_participants(report_);
    LPPA_PROTOCOL_CHECK(session_.participants().size() >= policy_.min_quorum,
                        "round below quorum: " +
                            std::to_string(policy_.min_quorum) +
                            " participants required");
    checkpoint(CrashPoint::kAfterFinalize);

    // Every attempt rebuilds the generator from the seed and discards
    // the SU-side fork, so the allocation stream is identical however
    // many attempts died.
    Rng master(seed_);
    (void)master.fork();
    session_.run_allocation(master, &allocation_span);
    checkpoint(CrashPoint::kAfterAllocation);
  }
  phase_span_.emplace(metrics_, "wire.charging", &attempt_span_);
}

std::vector<Bytes> RoundDriver::charge_queries() {
  if (session_.charging_complete()) return {};
  LPPA_PROTOCOL_CHECK(
      report_.charge_attempts < policy_.hardened.max_charge_attempts,
      "TTP unreachable: charging incomplete after retry budget");
  ++report_.charge_attempts;
  return session_.charge_query_envelopes();
}

void RoundDriver::on_charge_result(const Bytes& envelope) {
  try {
    session_.ingest_charge_results(envelope);
    // CrashSignal is not an LppaError, so a crash here tears through
    // this handler like a real process death.
    checkpoint(CrashPoint::kAfterChargeCommit);
  } catch (const LppaError&) {
    ++report_.rejected_messages;
  }
}

Bytes RoundDriver::publish() {
  checkpoint(CrashPoint::kBeforePublish);
  journal_.append(JournalRecordType::kCommitted);
  Bytes announcement = session_.winner_announcement();
  phase_span_.reset();

  report_.completed = true;
  report_.journal_records = journal_.num_records();
  report_.journal_bytes = journal_.data().size();
  if (metrics_ != nullptr) {
    obs::MetricsRegistry& m = *metrics_;
    m.counter("wire.completed_rounds").inc();
    m.counter("wire.retry_waves").inc(report_.retry_waves);
    m.counter("wire.charge_attempts").inc(report_.charge_attempts);
    m.counter("wire.rejected_messages").inc(report_.rejected_messages);
    m.counter("wire.duplicate_redeliveries").inc(report_.duplicate_redeliveries);
    m.counter("wire.replayed_records").inc(report_.replayed_records);
    if (report_.degraded) m.counter("wire.degraded_rounds").inc();
    if (const std::size_t manipulations = session_.manipulations_detected()) {
      m.counter("auction.manipulations").inc(manipulations);
    }
    m.gauge("wire.journal_bytes").set(static_cast<double>(report_.journal_bytes));
    static constexpr const char* kRecordNames[kNumJournalRecordTypes] = {
        "round_start", "accepted",  "strike",    "equivocation",
        "nack_sent",   "finalized", "allocated", "charge_commit",
        "committed",   "churn_departure",        "churn_arrival"};
    for (std::size_t t = 0; t < kNumJournalRecordTypes; ++t) {
      const auto type = static_cast<JournalRecordType>(t + 1);
      m.gauge(std::string("wire.journal_bytes.") + kRecordNames[t])
          .set(static_cast<double>(journal_.bytes_of(type)));
    }
  }
  return announcement;
}

}  // namespace lppa::proto
