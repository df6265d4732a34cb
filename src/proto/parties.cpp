#include "proto/parties.h"

#include <numeric>

#include "core/conflict_index.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace lppa::proto {

// ------------------------------------------------------------- SuClient

SuClient::SuClient(std::size_t user_index, const core::LppaConfig& config,
                   const core::SuKeyBundle& keys)
    : user_index_(user_index),
      config_(config),
      location_protocol_(keys.g0, config.coord_width, config.lambda,
                         config.pad_location_ranges),
      submitter_(config.bid, keys.gb_master, keys.gc, keys.paillier) {}

Bytes SuClient::location_envelope(const auction::SuLocation& location,
                                  Rng& rng) const {
  Envelope e;
  e.type = MessageType::kLocationSubmission;
  e.sender = user_index_;
  e.payload = location_protocol_.submit(location, rng).serialize();
  return e.serialize();
}

Bytes SuClient::bid_envelope(const auction::BidVector& bids, Rng& rng) const {
  LPPA_REQUIRE(bids.size() == config_.num_channels,
               "bid vector must cover every auctioned channel");
  Envelope e;
  e.type = MessageType::kBidSubmission;
  e.sender = user_index_;
  e.payload = submitter_.submit(bids, rng).serialize();
  return e.serialize();
}

// ----------------------------------------------------- AuctioneerSession

AuctioneerSession::AuctioneerSession(const core::LppaConfig& config,
                                     std::size_t num_users)
    : config_(config),
      num_users_(num_users),
      validator_(config),
      locations_(num_users),
      bids_(num_users),
      location_wire_(num_users),
      bid_wire_(num_users),
      absent_(num_users, false),
      equivocated_(num_users, false),
      strikes_(num_users, 0),
      last_error_(num_users) {
  LPPA_REQUIRE(num_users > 0, "auction requires at least one user");
  // Normalise the backend pointer once (null = HMAC); the validator has
  // already rejected a pointer that contradicts config.bid.backend.
  config_.backend = &crypto::resolve_backend(config_.backend);
}

AuctioneerSession::IngestResult AuctioneerSession::classify_and_store(
    const Bytes& envelope_bytes, std::string* error, IngestVerdict& verdict) {
  const auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
  };

  Envelope e;
  try {
    e = Envelope::deserialize(envelope_bytes);
  } catch (const LppaError& err) {
    fail(err.what());
    return IngestResult::kRejected;
  }
  if (e.sender >= num_users_) {
    fail("submission from unknown user");
    return IngestResult::kRejected;
  }
  const std::size_t u = e.sender;
  verdict.sender = u;
  verdict.type = e.type;
  if (equivocated_[u]) {
    fail("sender already excluded for equivocation");
    return IngestResult::kRejected;
  }
  if (absent_[u]) {
    // A departed SU's stray late traffic is not misbehaviour (no strike,
    // no journal entry — nothing changed); it is simply not in the round
    // until churn_return re-opens the slot.
    fail("submission from departed user");
    return IngestResult::kRejected;
  }

  // Helper shared by both submission kinds: parse + validate, then slot
  // with duplicate/equivocation classification.  The parse/validate step
  // runs BEFORE the duplicate check so that a corrupted redelivery of an
  // already-accepted submission counts as a transit-damaged message (a
  // strike), never as equivocation.  Every state change is journaled
  // before it is applied (write-ahead), so a crash between transitions
  // always finds the log covering the session's in-memory state.
  const auto slot = [&](auto parsed, auto& store, auto& wire,
                        bool& journal_planned,
                        const char* what) -> IngestResult {
    if (store[u].has_value()) {
      if (wire[u] == envelope_bytes) {
        fail(std::string("duplicate ") + what + " submission");
        return IngestResult::kDuplicateRedelivery;
      }
      last_error_[u] = std::string("conflicting ") + what + " submissions";
      if (journal_ != nullptr) {
        journal_->append_user_note(JournalRecordType::kEquivocation, u,
                                   last_error_[u]);
      }
      equivocated_[u] = true;
      fail(last_error_[u]);
      return IngestResult::kEquivocation;
    }
    if (journal_ != nullptr) {
      if (!journal_planned) {
        // Every SU sends one envelope of this kind, and one config gives
        // them one size: size the log for all of them now.  Growing it
        // append by append realloc-copies megabytes of accepted envelopes,
        // into pages the allocator may first have to fault in, between
        // two acks of the admission phase.
        journal_planned = true;
        journal_->plan(num_users_ *
                       (envelope_bytes.size() + RoundJournal::kFrameBytes));
      }
      journal_->append(JournalRecordType::kAccepted, envelope_bytes);
    }
    store[u] = std::move(parsed);
    wire[u] = envelope_bytes;
    return IngestResult::kAccepted;
  };

  // An attributable invalid message is a state change (strikes decide
  // the kInvalid-vs-kTimeout exclusion reason), so it is journaled too.
  const auto strike = [&](const std::string& detail) {
    last_error_[u] = detail;
    if (journal_ != nullptr) {
      journal_->append_user_note(JournalRecordType::kStrike, u, detail);
    }
    ++strikes_[u];
    fail(last_error_[u]);
    return IngestResult::kRejected;
  };

  switch (e.type) {
    case MessageType::kLocationSubmission: {
      core::LocationSubmission s;
      try {
        s = core::LocationSubmission::deserialize(e.payload);
      } catch (const LppaError& err) {
        return strike(err.what());
      }
      if (auto verr = validator_.validate_location(s)) {
        return strike("invalid location submission: " + *verr);
      }
      return slot(std::move(s), locations_, location_wire_,
                  location_journal_planned_, "location");
    }
    case MessageType::kBidSubmission: {
      core::BidSubmission s;
      try {
        s = core::BidSubmission::deserialize(e.payload);
      } catch (const LppaError& err) {
        return strike(err.what());
      }
      if (auto verr = validator_.validate_bid(s)) {
        return strike("invalid bid submission: " + *verr);
      }
      return slot(std::move(s), bids_, bid_wire_, bid_journal_planned_,
                  "bid");
    }
    default:
      fail("unexpected message type for auctioneer");
      return IngestResult::kRejected;
  }
}

void AuctioneerSession::replay_strike(std::size_t user,
                                      const std::string& detail) {
  LPPA_REQUIRE(user < num_users_, "user index out of range");
  ++strikes_[user];
  last_error_[user] = detail;
}

void AuctioneerSession::replay_equivocation(std::size_t user,
                                            const std::string& detail) {
  LPPA_REQUIRE(user < num_users_, "user index out of range");
  equivocated_[user] = true;
  last_error_[user] = detail;
}

void AuctioneerSession::churn_depart(std::size_t user) {
  LPPA_REQUIRE(user < num_users_, "user index out of range");
  LPPA_REQUIRE(!finalized_, "churn is only allowed before admission closes");
  LPPA_REQUIRE(!absent_[user], "user already departed");
  // Write-ahead: the departure record is durable before the slot state
  // changes, so a crash mid-churn replays to the identical session.
  if (journal_ != nullptr) {
    journal_->append_churn(JournalRecordType::kChurnDeparture, user);
  }
  absent_[user] = true;
  locations_[user].reset();
  bids_[user].reset();
  location_wire_[user].clear();
  bid_wire_[user].clear();
  last_error_[user] = "departed before admission closed";
  ++churn_ops_;
  if (config_.metrics != nullptr) {
    config_.metrics->counter("churn.session_departures").inc();
  }
}

void AuctioneerSession::churn_return(std::size_t user) {
  LPPA_REQUIRE(user < num_users_, "user index out of range");
  LPPA_REQUIRE(!finalized_, "churn is only allowed before admission closes");
  LPPA_REQUIRE(absent_[user], "user is not departed");
  if (journal_ != nullptr) {
    journal_->append_churn(JournalRecordType::kChurnArrival, user);
  }
  absent_[user] = false;
  last_error_[user].clear();
  ++churn_ops_;
  if (config_.metrics != nullptr) {
    config_.metrics->counter("churn.session_arrivals").inc();
  }
}

bool AuctioneerSession::is_absent(std::size_t user) const {
  LPPA_REQUIRE(user < num_users_, "user index out of range");
  return absent_[user];
}

AuctioneerSession::IngestVerdict AuctioneerSession::try_ingest(
    const Bytes& envelope_bytes, std::string* error) {
  IngestVerdict verdict;
  verdict.result = classify_and_store(envelope_bytes, error, verdict);
  if (config_.metrics != nullptr) {
    // Indexed by IngestResult.
    static constexpr const char* kCounters[] = {
        "session.accepted", "session.duplicates", "session.rejected",
        "session.equivocations"};
    const auto index = static_cast<std::size_t>(verdict.result);
    config_.metrics->counter(kCounters[index]).inc();
  }
  return verdict;
}

bool AuctioneerSession::has_location(std::size_t user) const {
  LPPA_REQUIRE(user < num_users_, "user index out of range");
  return locations_[user].has_value();
}

bool AuctioneerSession::has_bid(std::size_t user) const {
  LPPA_REQUIRE(user < num_users_, "user index out of range");
  return bids_[user].has_value();
}

bool AuctioneerSession::is_excluded(std::size_t user) const {
  LPPA_REQUIRE(user < num_users_, "user index out of range");
  return equivocated_[user];
}

bool AuctioneerSession::is_missing(std::size_t user) const {
  LPPA_REQUIRE(user < num_users_, "user index out of range");
  return !equivocated_[user] && !absent_[user] &&
         (!locations_[user].has_value() || !bids_[user].has_value());
}

std::vector<std::size_t> AuctioneerSession::missing_users() const {
  std::vector<std::size_t> missing;
  for (std::size_t u = 0; u < num_users_; ++u) {
    if (is_missing(u)) missing.push_back(u);
  }
  return missing;
}

void AuctioneerSession::finalize_participants(RoundReport& report) {
  if (!finalized_) {
    for (std::size_t u = 0; u < num_users_; ++u) {
      if (!equivocated_[u] && locations_[u].has_value() &&
          bids_[u].has_value()) {
        participants_.push_back(u);
      }
    }
    finalized_ = true;
    if (journal_ != nullptr) {
      journal_->append(JournalRecordType::kFinalized);
    }
  }

  // The report section is rebuilt from state on every call, so a
  // recovered session (restored from a snapshot that is already
  // finalized) can still account for its exclusions.
  report.num_users = num_users_;
  report.excluded.clear();
  std::size_t next_participant = 0;
  for (std::size_t u = 0; u < num_users_; ++u) {
    if (next_participant < participants_.size() &&
        participants_[next_participant] == u) {
      ++next_participant;
      continue;
    }
    if (equivocated_[u]) {
      report.excluded.push_back(
          {u, RoundReport::ExclusionReason::kEquivocation, last_error_[u]});
    } else {
      const auto reason = strikes_[u] > 0
                              ? RoundReport::ExclusionReason::kInvalid
                              : RoundReport::ExclusionReason::kTimeout;
      report.excluded.push_back({u, reason, last_error_[u]});
    }
  }
  report.survivors = participants_;
  LPPA_PROTOCOL_CHECK(!participants_.empty(),
                      "no valid participants survived the round");
}

void AuctioneerSession::compact_participants(const obs::Span* parent) {
  // Compact the participants to contiguous indices: the conflict graph,
  // bid table and allocator all run over [0, m); awards are mapped back
  // to original SU ids afterwards.  A fault-free full round compacts to
  // the identity.  The
  // conflict-graph rebuild involves no randomness, which is what lets a
  // restored session recompute it instead of journaling the edges.
  const std::size_t m = participants_.size();
  std::vector<core::LocationSubmission> locations;
  locations.reserve(m);
  bid_store_.clear();
  bid_store_.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t u = participants_[k];
    locations.push_back(*locations_[u]);
    bid_store_.push_back(*bids_[u]);
  }
  conflicts_ = core::build_conflict_graph(locations, config_.num_threads,
                                          config_.metrics, nullptr, parent);
}

void AuctioneerSession::open_ledger(std::vector<auction::Award> awards,
                                    std::vector<bool> priced) {
  // Candidates are indexed by original SU id, so award users, result
  // users and the runner-up tournament all speak the SUs' own ids.
  std::vector<const core::BidSubmission*> candidates(num_users_, nullptr);
  for (std::size_t k = 0; k < participants_.size(); ++k) {
    candidates[participants_[k]] = &bid_store_[k];
  }
  ledger_.emplace(std::move(awards), std::move(candidates), config_,
                  std::move(priced));
}

void AuctioneerSession::run_allocation(Rng& rng, const obs::Span* parent) {
  LPPA_REQUIRE(!ledger_, "allocation already ran");
  LPPA_REQUIRE(finalized_, "admission is still open");

  compact_participants(parent);
  {
    obs::Span build_span(config_.metrics, "table.build", parent);
    table_.emplace(bid_store_, config_.num_channels,
                   core::ArgmaxStrategy::kSortedColumns, config_.num_threads,
                   config_.backend);
  }
  std::vector<auction::Award> awards =
      auction::greedy_allocate(*table_, *conflicts_, rng);
  for (auto& award : awards) {
    award.user = participants_[award.user];
  }
  open_ledger(std::move(awards));
  if (journal_ != nullptr) {
    journal_->append(JournalRecordType::kAllocated, snapshot());
  }
}

std::vector<Bytes> AuctioneerSession::charge_query_envelopes() const {
  LPPA_REQUIRE(ledger_, "allocation has not run yet");
  // Built per call, not kept: holding the bytes across the round
  // measurably disturbs the allocator state the next round's journal
  // growth reuses (socket_ingest submit_ack_us_p99).
  std::vector<Bytes> batches;
  for (std::size_t b = 0; b < ledger_->num_batches(); ++b) {
    Envelope e;
    e.type = MessageType::kChargeQueryBatch;
    e.payload = serialize_charge_queries(ledger_->batch(b));
    batches.push_back(e.serialize());
  }
  return batches;
}

void AuctioneerSession::ingest_charge_results(const Bytes& envelope_bytes) {
  LPPA_REQUIRE(ledger_, "allocation has not run yet");
  const Envelope e = Envelope::deserialize(envelope_bytes);
  LPPA_PROTOCOL_CHECK(e.type == MessageType::kChargeResultBatch,
                      "expected a charge-result batch");
  // Write-ahead: validate the whole batch, journal it, then apply, so a
  // rejected batch is neither journaled nor applied.  A batch pricing no
  // award for the first time changes nothing and is not journaled, so
  // redeliveries after a recovery do not bloat the log.
  const auto results = deserialize_charge_results(e.payload);
  if (ledger_->validate(results) && journal_ != nullptr) {
    journal_->append(JournalRecordType::kChargeCommit, envelope_bytes);
  }
  ledger_->commit(results);
}

bool AuctioneerSession::charging_complete() const noexcept {
  return ledger_ && ledger_->complete();
}

std::size_t AuctioneerSession::manipulations_detected() const noexcept {
  return ledger_ ? ledger_->manipulations() : 0;
}

const std::vector<auction::Award>& AuctioneerSession::awards() const noexcept {
  static const std::vector<auction::Award> kNone;
  return ledger_ ? ledger_->awards() : kNone;
}

Bytes AuctioneerSession::winner_announcement() const {
  LPPA_REQUIRE(charging_complete(), "charge results still outstanding");
  Envelope e;
  e.type = MessageType::kWinnerAnnouncement;
  WinnerAnnouncement wa;
  wa.awards = ledger_->awards();
  e.payload = wa.serialize();
  return e.serialize();
}

const auction::ConflictGraph& AuctioneerSession::conflicts() const {
  LPPA_REQUIRE(conflicts_.has_value(), "allocation has not run yet");
  return *conflicts_;
}

namespace {
constexpr std::uint8_t kSnapHasLocation = 1;
constexpr std::uint8_t kSnapHasBid = 2;
constexpr std::uint8_t kSnapEquivocated = 4;
constexpr std::uint8_t kSnapAbsent = 8;
}  // namespace

Bytes AuctioneerSession::snapshot() const {
  ByteWriter w;
  w.u64(num_users_);
  for (std::size_t u = 0; u < num_users_; ++u) {
    const std::uint8_t flags =
        (locations_[u].has_value() ? kSnapHasLocation : 0) |
        (bids_[u].has_value() ? kSnapHasBid : 0) |
        (equivocated_[u] ? kSnapEquivocated : 0) |
        (absent_[u] ? kSnapAbsent : 0);
    w.u8(flags);
    // The accepted wire bytes carry the submissions (they re-parse on
    // restore through the same checksummed envelope path they arrived
    // by), and double as the dedupe reference for post-recovery
    // redeliveries.
    w.bytes(location_wire_[u]);
    w.bytes(bid_wire_[u]);
    w.u64(strikes_[u]);
    const std::string& err = last_error_[u];
    w.bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(err.data()), err.size()));
  }
  w.u8(finalized_ ? 1 : 0);
  if (finalized_) {
    w.u32(static_cast<std::uint32_t>(participants_.size()));
    for (const std::size_t u : participants_) w.u64(u);
  }
  w.u8(ledger_ ? 1 : 0);
  if (ledger_) {
    w.bytes(table_->serialize());
    const std::vector<auction::Award>& awards = ledger_->awards();
    w.u32(static_cast<std::uint32_t>(awards.size()));
    for (std::size_t i = 0; i < awards.size(); ++i) {
      const auto& a = awards[i];
      w.u64(a.user);
      w.u64(a.channel);
      w.u64(a.charge);
      w.u8(a.valid ? 1 : 0);
      w.u8(ledger_->priced(i) ? 1 : 0);
    }
  }
  return w.take();
}

void AuctioneerSession::restore_from(std::span<const std::uint8_t> wire,
                                     const obs::Span* parent) {
  if (finalized_ || ledger_) {
    detail::raise(ErrorKind::kState,
                  "restore_from requires a freshly constructed session");
  }
  for (std::size_t u = 0; u < num_users_; ++u) {
    if (locations_[u].has_value() || bids_[u].has_value()) {
      detail::raise(ErrorKind::kState,
                    "restore_from requires a freshly constructed session");
    }
  }

  ByteReader r(wire);
  LPPA_PROTOCOL_CHECK(r.u64() == num_users_,
                      "session snapshot population size mismatch");
  for (std::size_t u = 0; u < num_users_; ++u) {
    const std::uint8_t flags = r.u8();
    LPPA_PROTOCOL_CHECK(flags <= (kSnapHasLocation | kSnapHasBid |
                                  kSnapEquivocated | kSnapAbsent),
                        "unknown session snapshot flags");
    LPPA_PROTOCOL_CHECK(
        (flags & kSnapAbsent) == 0 ||
            (flags & (kSnapHasLocation | kSnapHasBid)) == 0,
        "snapshot marks an absent user with stored submissions");
    const Bytes loc_wire = r.bytes();
    const Bytes bid_wire = r.bytes();
    if (flags & kSnapHasLocation) {
      const Envelope e = Envelope::deserialize(loc_wire);
      LPPA_PROTOCOL_CHECK(
          e.type == MessageType::kLocationSubmission && e.sender == u,
          "snapshot location envelope does not match its slot");
      locations_[u] = core::LocationSubmission::deserialize(e.payload);
      const auto verr = validator_.validate_location(*locations_[u]);
      LPPA_PROTOCOL_CHECK(!verr, "invalid snapshot location: " + *verr);
      location_wire_[u] = loc_wire;
    } else {
      LPPA_PROTOCOL_CHECK(loc_wire.empty(),
                          "snapshot carries bytes for an absent location");
    }
    if (flags & kSnapHasBid) {
      const Envelope e = Envelope::deserialize(bid_wire);
      LPPA_PROTOCOL_CHECK(
          e.type == MessageType::kBidSubmission && e.sender == u,
          "snapshot bid envelope does not match its slot");
      bids_[u] = core::BidSubmission::deserialize(e.payload);
      // Restore is as strict as ingest: charging indexes every
      // participant's bid by every awarded channel.
      const auto verr = validator_.validate_bid(*bids_[u]);
      LPPA_PROTOCOL_CHECK(!verr, "invalid snapshot bid: " + *verr);
      bid_wire_[u] = bid_wire;
    } else {
      LPPA_PROTOCOL_CHECK(bid_wire.empty(),
                          "snapshot carries bytes for an absent bid");
    }
    equivocated_[u] = (flags & kSnapEquivocated) != 0;
    absent_[u] = (flags & kSnapAbsent) != 0;
    strikes_[u] = r.u64();
    const Bytes err = r.bytes();
    last_error_[u].assign(err.begin(), err.end());
  }

  const std::uint8_t finalized = r.u8();
  LPPA_PROTOCOL_CHECK(finalized <= 1, "invalid snapshot finalized flag");
  if (finalized != 0) {
    const std::uint32_t m = r.u32();
    LPPA_PROTOCOL_CHECK(m >= 1 && m <= num_users_,
                        "snapshot participant count out of range");
    std::size_t prev = 0;
    for (std::uint32_t k = 0; k < m; ++k) {
      const std::uint64_t u = r.u64();
      LPPA_PROTOCOL_CHECK(u < num_users_ && (k == 0 || u > prev),
                          "snapshot participants not strictly ascending");
      LPPA_PROTOCOL_CHECK(locations_[u].has_value() && bids_[u].has_value() &&
                              !equivocated_[u],
                          "snapshot participant lacks valid submissions");
      participants_.push_back(u);
      prev = u;
    }
    finalized_ = true;
  }

  const std::uint8_t allocated = r.u8();
  LPPA_PROTOCOL_CHECK(allocated <= 1, "invalid snapshot allocated flag");
  if (allocated != 0) {
    LPPA_PROTOCOL_CHECK(finalized_, "snapshot allocated without finalizing");
    // The conflict graph is rebuilt from the restored location
    // submissions — deterministic, no randomness — so only the bid
    // table's consumed-cell state needs the serialized image.
    compact_participants(parent);
    // The image reproduces the exact table; one whose population does
    // not fit the participants is rejected.
    {
      obs::Span build_span(config_.metrics, "table.build", parent);
      table_ = core::EncryptedBidTable::deserialize(
          r.bytes(), config_.num_threads, config_.backend);
    }
    LPPA_PROTOCOL_CHECK(table_->num_users() == participants_.size() &&
                            table_->num_channels() == config_.num_channels,
                        "snapshot bid table dimensions mismatch");
    // user, channel, charge (u64 each) + the valid and done flags.
    const std::uint32_t num_awards = r.count(8 + 8 + 8 + 1 + 1);
    std::vector<auction::Award> awards(num_awards);
    std::vector<bool> priced(num_awards);
    for (std::uint32_t i = 0; i < num_awards; ++i) {
      auction::Award& a = awards[i];
      a.user = r.u64();
      a.channel = r.u64();
      a.charge = r.u64();
      const std::uint8_t valid = r.u8();
      const std::uint8_t done = r.u8();
      LPPA_PROTOCOL_CHECK(valid <= 1 && done <= 1,
                          "invalid snapshot award flags");
      LPPA_PROTOCOL_CHECK(a.channel < config_.num_channels,
                          "snapshot award outside the auctioned channels");
      a.valid = valid != 0;
      priced[i] = done != 0;
    }
    // The ledger rejects an award to a non-participant, and an image that
    // names one SU in two awards (greedy allocation never does; the
    // ledger's user index relies on it).
    open_ledger(std::move(awards), std::move(priced));
  }
  LPPA_PROTOCOL_CHECK(r.at_end(), "trailing bytes after session snapshot");
}

// ------------------------------------------------------------ TtpService

Bytes TtpService::handle(const Bytes& envelope_bytes) {
  const Envelope e = Envelope::deserialize(envelope_bytes);
  LPPA_PROTOCOL_CHECK(e.type == MessageType::kChargeQueryBatch,
                      "TTP expects charge-query batches");
  const auto queries = deserialize_charge_queries(e.payload);
  const auto results = ttp_->process_batch(queries);
  Envelope out;
  out.type = MessageType::kChargeResultBatch;
  out.payload = serialize_charge_results(results);
  return out.serialize();
}

}  // namespace lppa::proto
