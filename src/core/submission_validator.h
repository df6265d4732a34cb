// SubmissionValidator: structural admission control for PPBS submissions.
//
// The paper's correctness results (Theorems 1-3) silently assume every
// location and bid submission is well-formed: prefix families with
// exactly w+1 digests, range covers padded to the configured worst case,
// sealed payloads of the right shape.  A malformed submission — whether
// from a buggy SU, a corrupted link, or a Byzantine bidder — must be
// rejected with a typed LppaError(kProtocol) BEFORE it reaches the
// EncryptedBidTable or the conflict-graph build, where it would otherwise
// skew intersections silently or wedge the round.
//
// The validator checks structure only.  It cannot (by design — that is
// the privacy guarantee) check that a digest corresponds to any
// particular plaintext; value-level manipulation is caught later by the
// TTP when it opens the winner's sealed payload (core/ttp.h).
// Duplicate-SU-id detection is the ingestion layer's job
// (proto::AuctioneerSession), which sees sender identities.
#pragma once

#include <optional>
#include <string>

#include "core/lppa_auction.h"

namespace lppa::core {

class SubmissionValidator {
 public:
  explicit SubmissionValidator(const LppaConfig& config);

  /// Throwing forms: LppaError(kProtocol) with a rule-naming message.
  void check_location(const LocationSubmission& s) const;
  void check_bid(const BidSubmission& s) const;

  /// Non-throwing forms: nullopt when valid, else the rejection reason.
  std::optional<std::string> validate_location(
      const LocationSubmission& s) const;
  std::optional<std::string> validate_bid(const BidSubmission& s) const;

  /// Digest count of a well-formed prefix family over `width` bits (w+1).
  static std::size_t family_size(int width) noexcept {
    return static_cast<std::size_t>(width) + 1;
  }

 private:
  /// Names the set a rejection is about: "x_range", or "channel 3
  /// range_set" for a bid channel.  The name is only built for a
  /// rejection, so accepting a submission allocates no string.
  struct SetName {
    const char* what;
    std::optional<std::size_t> channel;
    std::string str() const;
  };

  std::optional<std::string> validate_family(
      const prefix::HashedPrefixSet& set, int width, const SetName& name) const;
  std::optional<std::string> validate_range(const prefix::HashedPrefixSet& set,
                                            int width, bool padded,
                                            const SetName& name) const;

  int coord_width_;
  bool pad_location_ranges_;
  std::size_t num_channels_;
  int bid_width_;          ///< scaled_width of the [0, bmax] bid encoding
  bool pad_bid_ranges_;
  std::size_t sealed_payload_size_;  ///< ciphertext bytes of a SealedBidPayload
  /// The round's crypto backend: HMAC bids keep the legacy prefix-family
  /// structural checks below; Paillier bids delegate the per-cell shape
  /// test to the backend's validate_cell hook (empty families, ciphertext
  /// inside Z*_{n^2}).  Never null.
  const crypto::BidBackend* backend_;
};

}  // namespace lppa::core
