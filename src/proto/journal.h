// RoundJournal: the auctioneer's write-ahead log for one auction round.
//
// A crash of the auctioneer mid-round must not force the SUs to resubmit
// their PPBS envelopes — every resubmission widens the window for the
// BCM/BPM linkage attacks the protocol defends against.  The journal
// therefore records every state transition of an AuctioneerSession as a
// length-prefixed, checksummed record *before* the round advances past
// it: accepted submission envelopes (full wire bytes — they are what a
// recovering session re-ingests), validation strikes and equivocation
// verdicts (they decide exclusion reasons), retransmit nacks (they pin
// the wave counter), phase commits (the allocation commit carries a full
// AuctioneerSession::snapshot()), and accepted charge-result batches.
// Replaying the journal into a fresh session reproduces the crashed
// session's state byte-for-byte; proto::RoundDriver (round_driver.h)
// recovers that way.
//
// The record framing deliberately mirrors the Envelope discipline: any
// truncation or byte flip of the log surfaces as LppaError(kProtocol) at
// read time — never as undefined behaviour or a silently shortened
// round — which the journal corpus tests exercise bit by bit.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace lppa::proto {

/// One kind of journaled state transition.
enum class JournalRecordType : std::uint8_t {
  kRoundStart = 1,      ///< payload: u64 num_users
  kAccepted = 2,        ///< payload: accepted submission envelope bytes
  kStrike = 3,          ///< payload: u64 user + error string
  kEquivocation = 4,    ///< payload: u64 user + error string
  kNackSent = 5,        ///< payload: u64 user, u8 mask, u64 wave
  kFinalized = 6,       ///< phase commit: admission closed (empty payload)
  kAllocated = 7,       ///< phase commit: payload = session snapshot
  kChargeCommit = 8,    ///< payload: accepted charge-result envelope bytes
  kCommitted = 9,       ///< phase commit: round published (empty payload)
  kChurnDeparture = 10, ///< payload: u64 user — SU left; its slot cleared
  kChurnArrival = 11,   ///< payload: u64 user — SU (re)joined; slot open
};
inline constexpr std::size_t kNumJournalRecordTypes = 11;

struct JournalRecord {
  JournalRecordType type = JournalRecordType::kRoundStart;
  Bytes payload;

  /// Decoded payload of a kStrike / kEquivocation record.
  struct UserNote {
    std::uint64_t user = 0;
    std::string detail;
  };
  /// Decoded payload of a kNackSent record.
  struct Nack {
    std::uint64_t user = 0;
    std::uint8_t mask = 0;
    std::uint64_t wave = 0;
  };

  UserNote user_note() const;  ///< requires kStrike / kEquivocation
  Nack nack() const;           ///< requires kNackSent
  std::uint64_t round_start_users() const;  ///< requires kRoundStart
  std::uint64_t churn_user() const;  ///< requires kChurnDeparture / kChurnArrival
};

/// Append-only write-ahead log.  Each record is framed as
///   u32 body_length | body (u8 type + payload) | u32 checksum
/// where the checksum is the first four bytes of SHA-256 over the body —
/// the same detectability argument as the Envelope frame checksum: a
/// recovering auctioneer must never rebuild state from a damaged log.
class RoundJournal {
 public:
  /// Frames the record in place in the log (one payload copy); `payload`
  /// must not point into data().
  void append(JournalRecordType type, std::span<const std::uint8_t> payload = {});

  // Typed appenders for the structured payloads.
  void append_round_start(std::uint64_t num_users);
  void append_user_note(JournalRecordType type, std::uint64_t user,
                        std::string_view detail);
  void append_nack(std::uint64_t user, std::uint8_t mask, std::uint64_t wave);
  void append_churn(JournalRecordType type, std::uint64_t user);

  /// Grows the log's capacity by `bytes`: a writer that knows the size of
  /// records still to come sizes the log for them in one step, so they
  /// append without copying the log.  Each record costs its payload plus
  /// kFrameBytes.
  void plan(std::size_t bytes) { log_.reserve(log_.capacity() + bytes); }
  static constexpr std::size_t kFrameBytes = 4 + 1 + 4;
  /// A kNackSent record: frame, u64 user, u8 mask, u64 wave.
  static constexpr std::size_t kNackRecordBytes = kFrameBytes + 8 + 1 + 8;

  /// The durable bytes (what would survive the crash on disk).
  const Bytes& data() const noexcept { return log_; }
  std::size_t num_records() const noexcept { return records_; }
  bool empty() const noexcept { return records_ == 0; }
  /// Log bytes (framing included) of `type`'s records; sums to data().size().
  std::size_t bytes_of(JournalRecordType type) const noexcept {
    return type_bytes_[static_cast<std::size_t>(type) - 1];
  }

  /// Decodes a journal byte image back into records.  Throws
  /// LppaError(kProtocol) on any truncated, corrupted, or mistyped
  /// record; a valid prefix before the damage is NOT returned — recovery
  /// from a damaged log must fail loudly, not quietly shorten the round.
  static std::vector<JournalRecord> read(std::span<const std::uint8_t> wire);

 private:
  Bytes log_;
  std::size_t records_ = 0;
  std::array<std::size_t, kNumJournalRecordTypes> type_bytes_{};
};

}  // namespace lppa::proto
