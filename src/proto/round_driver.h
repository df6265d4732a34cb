// RoundDriver: the auctioneer side of one LPPA round (§V's PSD phase) as
// a sans-IO state machine — it owns no bus, no socket and no clock.
//
// The round it drives is
//
//   admission (ingest PPBS submissions; nack missing halves in waves
//   under exponential backoff) → close on completeness, deadline or
//   retry budget → finalize the participant set, check the quorum →
//   Alg. 3 allocation from Rng(seed) → TTP charging → publish
//
// with every transition write-ahead journaled.  The caller feeds it
// submission envelopes (on_submission), wave ticks (wave) and TTP
// charge results (on_charge_result), and moves the bytes it emits —
// journaled nacks, charge queries, the announcement — over its
// transport.  A crash (CrashSignal out of any call) loses the driver;
// a new driver built over the same journal and report resumes the
// round, so the journal alone recovers it.
//
// Two adapters drive it: the in-process MessageBus
// (run_recoverable_wire_auction, proto/session.h), where a tick is one
// MessageBus::advance, and the epoll server (net::AuctioneerServer),
// where a tick is ServerConfig::tick of wall time.  Both commit
// byte-identical rounds at the same seed because this is the only
// place the round logic exists.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "obs/span.h"
#include "proto/fault.h"
#include "proto/journal.h"
#include "proto/parties.h"
#include "proto/round_report.h"

namespace lppa::proto {

/// Retry / backoff policy.  "Time" is ticks of whichever clock the
/// transport adapter runs (see the header comment).
struct HardenedSessionConfig {
  /// Retransmission waves before a silent SU is declared unresponsive.
  std::size_t max_retries = 6;
  /// Ticks waited before the first retry wave; doubles every wave
  /// (exponential backoff), which gives delayed messages time to land.
  std::size_t backoff_base_ticks = 1;
  /// Ceiling on any single backoff wait.  Doubling per wave would
  /// overflow (and shift past the word size, which is undefined) for
  /// large retry budgets; the schedule therefore plateaus here.
  std::size_t max_backoff_ticks = 4096;
  /// Send attempts per charge-query batch before the TTP is declared
  /// unreachable (which aborts the round — charging has no graceful
  /// fallback, the TTP is the round's root of trust).
  std::size_t max_charge_attempts = 8;

  /// The backoff wait for retry wave `wave`:
  /// min(backoff_base_ticks * 2^wave, max_backoff_ticks), computed
  /// without ever shifting past the word size — well-defined for any
  /// wave, however large.
  std::size_t backoff_ticks(std::size_t wave) const noexcept;
};

/// One scripted churn operation, applied while admission is open: SU
/// `user` departs the round (true) or returns to it (false).
struct ChurnOp {
  bool depart = true;
  std::size_t user = 0;
};

/// The round policy, the same for every transport.
struct RecoverableSessionConfig {
  HardenedSessionConfig hardened;
  /// Round deadline in ticks; 0 disables it.  When the deadline expires
  /// while submissions are still missing (typically because recoveries
  /// consumed the tick budget), the round degrades: it commits with the
  /// quorum of journaled submissions instead of waiting out the
  /// remaining retry waves, and the report records the degradation.
  std::size_t deadline_ticks = 0;
  /// Minimum number of participants a (possibly degraded) commit needs;
  /// below it the round aborts with LppaError(kProtocol).
  std::size_t min_quorum = 1;
  /// Ticks each auctioneer restart costs (journal re-read, state
  /// rebuild) — this is what makes crashes eat into the deadline.
  std::size_t recovery_cost_ticks = 1;
  /// Scripted churn, applied in order before any submission is
  /// ingested.  Each operation is journaled write-ahead and followed by
  /// a CrashPoint::kMidChurn checkpoint; a recovering driver resumes the
  /// schedule at AuctioneerSession::churn_ops_applied(), so every
  /// operation lands exactly once across crashes.
  std::vector<ChurnOp> churn;
};

/// One SU's masked submissions: built once, resent verbatim forever.
struct SuEnvelopes {
  std::size_t su = 0;
  Bytes location;
  Bytes bid;
};

/// participating[u] is false exactly for the SUs listed in `exclude`.
std::vector<bool> participation_mask(std::size_t num_users,
                                     const std::vector<std::size_t>& exclude);

/// The SU side of a round: masks every participating SU's location and
/// bid exactly once.  RNG discipline (shared with core::LppaAuction::run):
/// Rng(seed) forks once for all SU-side randomness, then once per SU in
/// index order whether or not the SU participates — so a round that
/// excludes some SUs masks everyone else byte-identically.  Masking runs
/// in parallel; the result does not depend on the thread count.
std::vector<SuEnvelopes> mask_submissions(
    const core::LppaConfig& config, const core::SuKeyBundle& keys,
    const std::vector<auction::SuLocation>& locations,
    const std::vector<auction::BidVector>& bids, std::uint64_t seed,
    const std::vector<bool>& participating);

class RoundDriver {
 public:
  /// A kRetransmitRequest envelope for SU `su`; the bytes belong to the
  /// driver and stay valid while it lives.
  struct Nack {
    std::size_t su = 0;
    std::span<const std::uint8_t> envelope;
  };

  /// Builds the auctioneer of one attempt.  `journal` is replayed into a
  /// fresh session and then attached: an empty journal starts the round
  /// (counted as `wire.rounds`), a non-empty one is a crash recovery
  /// (counted in report.crash_recoveries and `wire.crash_recoveries`).
  /// `participating[u]` == false marks a known non-participant (never
  /// nacked, never awaited).  Nothing is owned; journal and report are
  /// the state that survives a crash and must outlive the driver, and
  /// the attempt's `wire.attempt` span hangs under `round_span`.  When
  /// `config.metrics` is null the session records into `metrics`, so
  /// its build spans land under `wire.allocation` either way.
  RoundDriver(const core::LppaConfig& config, std::size_t num_users,
              RecoverableSessionConfig policy, std::vector<bool> participating,
              std::uint64_t seed, RoundJournal& journal, RoundReport& report,
              CrashInjector* crashes = nullptr,
              obs::MetricsRegistry* metrics = nullptr,
              const obs::Span* round_span = nullptr);

  RoundDriver(const RoundDriver&) = delete;
  RoundDriver& operator=(const RoundDriver&) = delete;

  /// Starts the attempt; call once, before feeding anything.  Applies
  /// the rest of the churn schedule, or — when the journal had already
  /// closed admission — commits straight through to charging.
  void start();

  /// Feeds one envelope addressed to the auctioneer during admission and
  /// returns the session's verdict — for an accepted or duplicate
  /// submission, its sender and kind too.  Accepted submissions reach
  /// CrashPoint::kAfterIngest.
  AuctioneerSession::IngestVerdict on_submission(const Bytes& envelope);

  bool admission_open() const noexcept { return !session_.admission_closed(); }
  /// True when no participating SU is missing a submission.  O(1): the
  /// driver counts the awaited SUs as it changes the session.
  bool submissions_complete() const noexcept { return num_awaited_ == 0; }
  /// The backoff of the next wave.  The caller waits it twice per wave:
  /// once for the nacks to land and be answered, once for the answers.
  std::size_t backoff_ticks() const noexcept {
    return policy_.hardened.backoff_ticks(wave_);
  }

  /// One admission wave at round time `ticks`.  Admission closes — and
  /// the round commits through finalize, the quorum check and allocation
  /// — when nothing is missing, the deadline has expired (a degraded
  /// commit) or the retry budget is spent; the result is then empty.
  /// Otherwise the missing SUs' nacks are journaled and returned.
  std::vector<Nack> wave(std::size_t ticks);

  /// The charge-query batches of the next charging attempt (the full
  /// set, re-sent wholesale: results are idempotent); empty once every
  /// award is priced.  Throws LppaError(kProtocol) once the attempt
  /// budget is spent — the TTP is unreachable.
  std::vector<Bytes> charge_queries();
  /// Feeds one TTP → auctioneer envelope; a damaged one is counted as
  /// rejected (the next attempt re-sends its queries).  Accepted batches
  /// reach CrashPoint::kAfterChargeCommit.
  void on_charge_result(const Bytes& envelope);

  /// Counts a message the transport rejected before it reached the
  /// session (a framing error, a damaged charge query).
  void note_rejected() noexcept { ++report_.rejected_messages; }

  /// Commits the round (kBeforePublish checkpoint, kCommitted record,
  /// report totals and `wire.*` counters) and returns the
  /// kWinnerAnnouncement envelope.  Requires charge_queries() to have
  /// come back empty.
  Bytes publish();

 private:
  /// finalize → quorum → allocate (unless the journal restored an
  /// allocation), then opens the charging phase.
  void commit();
  void checkpoint(CrashPoint point);
  /// Re-reads whether SU `u` is awaited after the session changed it.
  void refresh_awaited(std::size_t u);

  RecoverableSessionConfig policy_;
  std::vector<bool> participating_;
  /// awaited_[u]: participating and session_.is_missing(u); kept by
  /// every driver call that changes a slot, counted in num_awaited_.
  std::vector<bool> awaited_;
  std::size_t num_awaited_ = 0;
  std::uint64_t seed_;
  RoundJournal& journal_;
  RoundReport& report_;
  CrashInjector* crashes_;
  obs::MetricsRegistry* metrics_;
  AuctioneerSession session_;
  std::size_t wave_ = 0;
  obs::Span attempt_span_;
  std::optional<obs::Span> phase_span_;  ///< admission, then charging
  std::array<Bytes, 4> nack_envelopes_;  ///< indexed by RetransmitRequest mask
};

/// Rebuilds a crashed auctioneer's session from its write-ahead journal:
/// accepted envelopes are re-ingested through the normal path, strike /
/// equivocation verdicts and churn departures/arrivals are replayed, and
/// a post-allocation crash restores the last kAllocated snapshot plus
/// later charge batches.  Returns the retry wave to resume at.  The
/// journal must be attached to the session only AFTER replaying (replay
/// must not re-journal what is already durable).  RoundDriver recovers
/// with it; churn harnesses call it to rebuild sessions mid-churn.
/// `parent` is passed to AuctioneerSession::restore_from.
std::size_t replay_session_journal(const RoundJournal& journal,
                                   AuctioneerSession& session,
                                   std::size_t num_users, RoundReport& report,
                                   const obs::Span* parent = nullptr);

}  // namespace lppa::proto
