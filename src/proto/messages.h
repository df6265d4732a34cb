// Typed message envelopes for the wire protocol.
//
// Every blob on the MessageBus is an Envelope: a one-byte type tag, the
// sender's claimed SU index (meaningful for submissions), the typed
// payload produced by the core serialisers, and a trailing frame
// checksum.  A corrupted, truncated or mistyped envelope surfaces as
// LppaError(kProtocol) at the receiver — never as undefined behaviour —
// which the fuzz tests exercise.  The checksum makes corruption always
// *detectable*: without it, a bit flip inside an HMAC'd digest yields a
// structurally valid submission that no validator could distinguish
// from a Byzantine bid (digests are opaque by design).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "core/ppbs_location.h"
#include "core/ttp.h"

namespace lppa::proto {

enum class MessageType : std::uint8_t {
  kLocationSubmission = 1,
  kBidSubmission = 2,
  kChargeQueryBatch = 3,
  kChargeResultBatch = 4,
  kWinnerAnnouncement = 5,
  kRetransmitRequest = 6,  ///< auctioneer -> SU: resend missing submissions
  kSubmissionAck = 7,      ///< auctioneer -> SU: submission accepted (socket
                           ///< transport only, when ServerConfig::
                           ///< ack_submissions — lets bench/loadgen measure
                           ///< end-to-end submit latency)
};

struct Envelope {
  MessageType type = MessageType::kLocationSubmission;
  std::uint64_t sender = 0;  ///< SU index for submissions, else 0
  Bytes payload;

  Bytes serialize() const;
  static Envelope deserialize(std::span<const std::uint8_t> wire);
};

/// Auctioneer -> SU nack: which of the SU's submissions never arrived
/// (or arrived damaged) and should be resent.  Sent during the round
/// driver's retry waves (proto/round_driver.h).
struct RetransmitRequest {
  static constexpr std::uint8_t kLocation = 1;
  static constexpr std::uint8_t kBid = 2;

  std::uint8_t mask = 0;  ///< OR of kLocation / kBid

  Bytes serialize() const;
  static RetransmitRequest deserialize(std::span<const std::uint8_t> wire);
};

/// Auctioneer -> SU ack of one accepted submission half (socket
/// transport, ack mode only).  Mirrors RetransmitRequest's mask
/// vocabulary; exactly one bit is set per ack.
struct SubmissionAck {
  std::uint8_t mask = 0;  ///< RetransmitRequest::kLocation or ::kBid

  Bytes serialize() const;
  static SubmissionAck deserialize(std::span<const std::uint8_t> wire);
};

/// The published outcome: winners, their channels, validated charges.
struct WinnerAnnouncement {
  std::vector<auction::Award> awards;

  Bytes serialize() const;
  static WinnerAnnouncement deserialize(std::span<const std::uint8_t> wire);
};

/// Batch wrappers around the core charge messages.
Bytes serialize_charge_queries(const std::vector<core::ChargeQuery>& queries);
std::vector<core::ChargeQuery> deserialize_charge_queries(
    std::span<const std::uint8_t> wire);

Bytes serialize_charge_results(const std::vector<core::ChargeResult>& results);
std::vector<core::ChargeResult> deserialize_charge_results(
    std::span<const std::uint8_t> wire);

}  // namespace lppa::proto
