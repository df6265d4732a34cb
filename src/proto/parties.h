// The three protocol roles as wire-level state machines.
//
// Each party only ever consumes and produces Envelope bytes; the round
// driver (proto/round_driver.h) runs the auctioneer, and its transport
// adapters move the bytes over a MessageBus or sockets.  The
// information separation of the paper is structural here: SuClient holds
// the TTP-issued keys, AuctioneerSession holds none, TtpService wraps
// the TrustedThirdParty.
#pragma once

#include <optional>
#include <vector>

#include "auction/allocate.h"
#include "core/charging.h"
#include "core/lppa_auction.h"
#include "core/encrypted_bid_table.h"
#include "core/submission_validator.h"
#include "proto/journal.h"
#include "proto/messages.h"
#include "proto/round_report.h"

namespace lppa::proto {

/// A secondary user: masks its location and bids under the TTP-issued
/// keys and emits submission envelopes.
class SuClient {
 public:
  SuClient(std::size_t user_index, const core::LppaConfig& config,
           const core::SuKeyBundle& keys);

  /// The PPBS location submission as a wire envelope.
  Bytes location_envelope(const auction::SuLocation& location, Rng& rng) const;

  /// The PPBS (advanced) bid submission as a wire envelope.
  Bytes bid_envelope(const auction::BidVector& bids, Rng& rng) const;

 private:
  std::size_t user_index_;
  core::LppaConfig config_;
  core::PpbsLocation location_protocol_;
  core::BidSubmitter submitter_;
};

/// The auctioneer: ingests submissions, reconstructs the conflict graph,
/// allocates in the masked domain, emits charge-query batches, ingests
/// the TTP's results and publishes the winner announcement.
///
/// Every submission passes core::SubmissionValidator before it is
/// stored, so nothing malformed ever reaches the conflict-graph build or
/// the EncryptedBidTable.  try_ingest() classifies each problem and keeps
/// the session usable — the round driver uses it to survive Byzantine
/// senders, corrupted links, and benign redeliveries, then finalizes the
/// round over whichever users delivered valid submissions.
class AuctioneerSession {
 public:
  AuctioneerSession(const core::LppaConfig& config, std::size_t num_users);

  /// How try_ingest classified one envelope.
  enum class IngestResult : std::uint8_t {
    kAccepted,              ///< stored; the user may become a participant
    kDuplicateRedelivery,   ///< byte-identical re-arrival; harmless
    kRejected,              ///< unparseable / invalid / unattributable
    kEquivocation,          ///< second, different valid submission: the
                            ///< sender is excluded from the round
  };

  /// try_ingest's classification plus the parsed sender and submission
  /// kind (meaningful for kAccepted and kDuplicateRedelivery), so a
  /// transport binds and acks without parsing the frame again.
  struct IngestVerdict {
    IngestResult result = IngestResult::kRejected;
    std::size_t sender = 0;
    MessageType type = MessageType::kLocationSubmission;

    operator IngestResult() const noexcept { return result; }
  };

  /// Feeds one envelope from an SU; never throws on peer-supplied garbage.
  /// Rejections with an attributable sender count as strikes against it;
  /// equivocation marks the sender excluded.  `error`, when non-null,
  /// receives the reason for any non-accepted outcome.
  ///
  /// When the session config carries an obs::MetricsRegistry, each
  /// classification increments `session.accepted` / `session.duplicates`
  /// / `session.rejected` / `session.equivocations`.
  IngestVerdict try_ingest(const Bytes& envelope_bytes,
                           std::string* error = nullptr);

  /// Attaches (or detaches, with nullptr) a write-ahead journal: from
  /// then on every state transition — accepted submissions, strikes,
  /// equivocations, the admission and allocation phase commits, accepted
  /// charge batches — is appended *as part of* the transition, so a
  /// crash at any point between transitions finds the log complete.
  /// The journal is not owned; attach it AFTER replaying an old log
  /// (replay must not re-journal what is already durable).
  void attach_journal(RoundJournal* journal) noexcept { journal_ = journal; }

  /// Journal-replay hooks: re-apply a recorded strike / equivocation
  /// verdict without re-seeing the offending message (only accepted
  /// envelopes are journaled in full).  Used by the recovery driver.
  void replay_strike(std::size_t user, const std::string& detail);
  void replay_equivocation(std::size_t user, const std::string& detail);

  /// Churn: SU `user` leaves the auction before admission closes.  Its
  /// stored submissions and their accepted wire bytes are cleared and the
  /// slot is marked absent — submissions from an absent SU are rejected
  /// (without a strike) until churn_return.  Crucially, clearing the
  /// wire bytes means a departed-then-returned SU's FRESH submission is
  /// classified kAccepted, never kEquivocation: equivocation is a fork of
  /// one round's identity, not a property of rejoining a round.  (An
  /// equivocation verdict already on record stays sticky — leaving does
  /// not repair a forked identity.)  Journaled as kChurnDeparture
  /// (write-ahead); only allowed before finalize_participants.
  void churn_depart(std::size_t user);

  /// Churn: SU `user` (re)joins the open admission phase; its slot
  /// accepts fresh submissions again.  Journaled as kChurnArrival.
  void churn_return(std::size_t user);

  /// True while `user` is departed (between churn_depart and
  /// churn_return).
  bool is_absent(std::size_t user) const;

  /// Count of churn operations applied so far (departures + returns),
  /// including ones re-applied by journal replay.  A crash-recovering
  /// driver resumes its scripted churn schedule from this cursor instead
  /// of re-issuing operations the journal already made durable.
  std::size_t churn_ops_applied() const noexcept { return churn_ops_; }

  bool has_location(std::size_t user) const;
  bool has_bid(std::size_t user) const;
  /// True when `user` equivocated and is out of the round.
  bool is_excluded(std::size_t user) const;

  /// True when `user` still owes a valid location or bid: not an
  /// equivocator (retransmission cannot repair a forked identity) and
  /// not departed.
  bool is_missing(std::size_t user) const;
  /// Every user for which is_missing() holds, ascending.
  std::vector<std::size_t> missing_users() const;

  /// Closes admission: users missing a valid submission (or excluded for
  /// equivocation) are written into `report.excluded` with a reason, the
  /// rest become the round's participants.  Throws LppaError(kProtocol)
  /// when nobody survives.  Idempotent once called.
  void finalize_participants(RoundReport& report);

  /// Participants of the finalized round (original SU ids, ascending).
  const std::vector<std::size_t>& participants() const noexcept {
    return participants_;
  }

  /// Runs conflict-graph construction + greedy allocation (Algorithm 3)
  /// over the participants, then opens the round's core::ChargeLedger
  /// (core/charging.h).  Requires admission_closed().  Award::user
  /// carries original SU ids.  With config.metrics set, the
  /// conflict build's "conflict.index_build"/"conflict.probe" spans and
  /// the bid table's one "table.build" span hang under `parent` (when
  /// set).
  void run_allocation(Rng& rng, const obs::Span* parent = nullptr);

  /// Charge-query batches for the TTP (respects ttp_batch_size), one
  /// envelope per ledger batch: the whole query set, the same bytes on
  /// every call.  Requires run_allocation() (or a restore past it).
  std::vector<Bytes> charge_query_envelopes() const;

  /// Feeds one charge-result envelope back from the TTP.  The batch is
  /// validated whole first: one result for an award that does not exist
  /// throws LppaError(kProtocol) and nothing is journaled or applied.
  /// A valid batch is journaled (kChargeCommit) only when it prices some
  /// award for the first time, then applied; results for already-priced
  /// awards change nothing.
  void ingest_charge_results(const Bytes& envelope_bytes);

  /// True once every award has a TTP charge result.
  bool charging_complete() const noexcept;

  /// Charge results applied with the TTP's manipulation flag (a
  /// winner's sealed payload failed verification).  RoundDriver records
  /// it as `auction.manipulations` when it publishes.
  std::size_t manipulations_detected() const noexcept;

  /// True once finalize_participants() (or a restore past it) happened.
  bool admission_closed() const noexcept { return finalized_; }

  /// True once run_allocation() (or a restore of its snapshot) happened.
  bool allocation_done() const noexcept { return ledger_.has_value(); }

  /// Serializes the complete session state — accepted submission wire
  /// bytes (the conflict-graph inputs), strikes and exclusion verdicts,
  /// the finalized participant set, and after allocation the
  /// EncryptedBidTable image plus awards and charge progress — into a
  /// self-contained byte image.  The journal stores this as the
  /// allocation phase commit; snapshot→restore_from→snapshot is
  /// byte-identical.
  Bytes snapshot() const;

  /// Inverse of snapshot(), applied to a freshly constructed session of
  /// the same config and population size.  Throws LppaError(kProtocol)
  /// on a damaged image, one naming an SU in two awards included, and
  /// LppaError(kState) if the session already holds state.  The conflict
  /// graph is rebuilt deterministically from the restored location
  /// submissions (no randomness is involved), so a restored session
  /// continues the round byte-identically.  `parent` is run_allocation's.
  void restore_from(std::span<const std::uint8_t> wire,
                    const obs::Span* parent = nullptr);

  /// The published outcome; requires charging_complete().
  Bytes winner_announcement() const;
  /// The awards with their charge progress; empty before allocation.
  const std::vector<auction::Award>& awards() const noexcept;

  /// The conflict graph over participants (compacted indices when the
  /// round was finalized with exclusions).
  const auction::ConflictGraph& conflicts() const;

 private:
  /// Fills `verdict`'s sender and type once the envelope parses.
  IngestResult classify_and_store(const Bytes& envelope_bytes,
                                  std::string* error, IngestVerdict& verdict);
  void compact_participants(const obs::Span* parent);
  /// Opens the ledger over `awards`, the participants as candidates;
  /// `priced` is a restored snapshot's charge progress.
  void open_ledger(std::vector<auction::Award> awards,
                   std::vector<bool> priced = {});

  core::LppaConfig config_;
  std::size_t num_users_;
  core::SubmissionValidator validator_;
  std::vector<std::optional<core::LocationSubmission>> locations_;
  std::vector<std::optional<core::BidSubmission>> bids_;
  std::vector<Bytes> location_wire_;  ///< accepted bytes, for dedupe
  std::vector<Bytes> bid_wire_;
  std::vector<bool> absent_;  ///< departed (churn) — slot closed for ingest
  std::vector<bool> equivocated_;
  std::vector<std::size_t> strikes_;       ///< attributable invalid messages
  std::vector<std::string> last_error_;    ///< last rejection reason per user
  std::vector<std::size_t> participants_;  ///< original ids, ascending
  bool finalized_ = false;
  std::vector<core::BidSubmission> bid_store_;  ///< participants, compacted
  std::optional<auction::ConflictGraph> conflicts_;
  /// The masked bid table as the allocator left it (cells consumed).
  /// References bid_store_ on the run_allocation path and owns its
  /// submissions on the restore path; the session is used in place by
  /// the drivers, never moved, so the reference stays valid.
  std::optional<core::EncryptedBidTable> table_;
  /// Awards and their charge progress; present once allocation ran.
  std::optional<core::ChargeLedger> ledger_;
  std::size_t churn_ops_ = 0;  ///< applied churn operations (see getter)
  RoundJournal* journal_ = nullptr;  ///< not owned; may be null
  /// Whether journal_ was planned for every SU's location / bid envelope.
  bool location_journal_planned_ = false;
  bool bid_journal_planned_ = false;
};

/// The periodically-available TTP endpoint.
class TtpService {
 public:
  explicit TtpService(core::TrustedThirdParty& ttp) : ttp_(&ttp) {}

  /// Decrypts/validates one charge-query batch envelope, returns the
  /// result batch envelope.
  Bytes handle(const Bytes& envelope_bytes);

 private:
  core::TrustedThirdParty* ttp_;
};

}  // namespace lppa::proto
