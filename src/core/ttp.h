// TrustedThirdParty (paper §II-C, §V-B): the periodically-available
// authority that
//   * generates and distributes the protocol keys (g0 to mask locations,
//     gb_1..gb_k to mask bids, gc to seal true bids) and the public
//     encoding parameters rd and cr,
//   * decrypts winners' sealed bids in batches, verifies the plaintext
//     against the submitted prefix encoding (anti-manipulation), flags
//     disguised-/true-zero wins as invalid, and returns the first-price
//     charge.
//
// Keys are handed to SUs via su_keys(); the auctioneer never sees them —
// the API makes that separation explicit by bundling exactly what each
// party may hold.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/ppbs_bid.h"

namespace lppa::obs {
class MetricsRegistry;
}  // namespace lppa::obs

namespace lppa::core {

/// The key material an SU receives from the TTP.
struct SuKeyBundle {
  crypto::SecretKey g0;         ///< location-masking HMAC key
  crypto::SecretKey gb_master;  ///< master for gb_1..gb_k
  crypto::SecretKey gc;         ///< sealing key towards the TTP
  /// Published Paillier public key (kPaillier backend only) — the SUs
  /// encrypt their scaled bids under it; the private half never leaves
  /// the TTP's comparison oracle.
  std::optional<crypto::PaillierPublicKey> paillier;
};

/// How winners are charged.  The paper uses first-price (§V-C.1) and
/// leaves truthfulness to future work; kSecondPrice is this library's
/// extension towards it: the winner pays min(own bid, the column's
/// TTP-validated runner-up bid).  Truthful bidding is dominant only where
/// the column is one clique; under spatial reuse the runner-up is usually
/// a non-neighbour bidding at least the winner, so the charge is the
/// first price.  A critical price under reuse (PPS, arXiv 1307.7792) is
/// open.
enum class ChargingRule {
  kFirstPrice,
  kSecondPrice,
};

/// A winner's charge request relayed by the auctioneer.  Under the
/// Paillier backend the prefix families are empty and the ciphertext
/// fields carry the submitted masked bids instead; the wire format uses
/// the same implied tag as ChannelBidSubmission (ciphertext present iff
/// the family is empty), so HMAC queries keep their pre-backend bytes.
struct ChargeQuery {
  UserId user = 0;
  ChannelId channel = 0;
  crypto::SealedMessage sealed;          ///< the winner's sealed payload
  prefix::HashedPrefixSet value_family;  ///< the submitted H_gb_r(G(s))
  std::uint64_t paillier_ct = 0;         ///< the submitted E_pub(s)

  /// Under kSecondPrice the auctioneer also relays the column's
  /// runner-up submission (absent when the winner was alone).
  std::optional<crypto::SealedMessage> runner_up_sealed;
  std::optional<prefix::HashedPrefixSet> runner_up_family;
  std::uint64_t runner_up_ct = 0;

  /// Smallest encoding: user and channel (u64 each), the sealed length
  /// prefix and the family count (4 bytes each), the 8-byte ciphertext an
  /// empty family implies (a digest would be 32), and the runner-up flag.
  static constexpr std::size_t kMinWireSize = 8 + 8 + 4 + 4 + 8 + 1;

  void serialize(ByteWriter& w) const;
  static ChargeQuery deserialize(ByteReader& r);
};

/// What the TTP reveals back to the auctioneer.
struct ChargeResult {
  UserId user = 0;
  ChannelId channel = 0;
  bool valid = false;        ///< false: disguised/true zero -> no charge
  Money charge = 0;          ///< first-price charge when valid
  bool manipulated = false;  ///< prefix encoding did not match the payload

  /// Fixed encoding: user, channel, charge (u64 each) and two flags.
  static constexpr std::size_t kWireSize = 8 + 8 + 8 + 1 + 1;

  void serialize(ByteWriter& w) const;
  static ChargeResult deserialize(ByteReader& r);
  bool operator==(const ChargeResult&) const = default;
};

class TrustedThirdParty {
 public:
  /// Generates fresh keys for one auction.  The bid configuration (bmax,
  /// rd, cr, disguise policy defaults) is owned by the TTP per §IV-C.2.
  TrustedThirdParty(PpbsBidConfig config, std::uint64_t seed,
                    ChargingRule rule = ChargingRule::kFirstPrice);

  const PpbsBidConfig& config() const noexcept { return config_; }
  ChargingRule charging_rule() const noexcept { return rule_; }

  /// Key distribution (TTP -> SUs over a secure channel).
  SuKeyBundle su_keys() const noexcept {
    return SuKeyBundle{g0_, gb_master_, gc_,
                       oracle_ != nullptr
                           ? std::optional<crypto::PaillierPublicKey>(
                                 oracle_->pub())
                           : std::nullopt};
  }
  const crypto::SecretKey& g0() const noexcept { return g0_; }

  /// The auctioneer-facing backend for this round's configuration: the
  /// HMAC singleton, or a PaillierBackend wired to this TTP's comparison
  /// oracle.  Stable for the TTP's lifetime (shared across copies).
  const crypto::BidBackend& bid_backend() const noexcept {
    return backend_ != nullptr ? *backend_ : crypto::hmac_backend();
  }

  /// The Paillier comparison oracle (null under the HMAC backend); the
  /// bench reads its per-op counters.
  const crypto::PaillierCompareOracle* paillier_oracle() const noexcept {
    return oracle_.get();
  }

  /// Processes one charge query (decrypt, verify, un-disguise).
  ChargeResult process(const ChargeQuery& query) const;

  /// Batch interface (paper §V-C.2): the auctioneer accumulates queries
  /// and flushes them during the TTP's online window.  Counters let the
  /// benches report TTP load.
  std::vector<ChargeResult> process_batch(
      const std::vector<ChargeQuery>& queries);

  std::size_t batches_processed() const noexcept { return batches_; }
  std::size_t queries_processed() const noexcept { return queries_; }

  /// Attaches (or detaches, with nullptr) an observability sink.  Each
  /// processed batch observes `ttp.batch_size`; each query increments
  /// `ttp.queries`, plus `ttp.manipulations` when the payload failed
  /// decrypt/verify or `ttp.invalid_charges` for disguised-/true-zero
  /// wins.  Not owned; keep it alive while attached.
  void set_metrics(obs::MetricsRegistry* metrics) noexcept {
    metrics_ = metrics;
  }
  obs::MetricsRegistry* metrics() const noexcept { return metrics_; }

 private:
  /// Decrypts and verifies one sealed payload against its submitted
  /// masked encoding (prefix family or Paillier ciphertext, by backend);
  /// nullopt on any integrity failure.
  std::optional<SealedBidPayload> open_and_verify(
      const crypto::SealedMessage& sealed,
      const prefix::HashedPrefixSet& family, std::uint64_t paillier_ct,
      ChannelId channel) const;

  PpbsBidConfig config_;
  ChargingRule rule_ = ChargingRule::kFirstPrice;
  crypto::SecretKey g0_;
  crypto::SecretKey gb_master_;
  crypto::SecretKey gc_;
  crypto::SealedBox box_;
  /// HMAC backend: the per-channel contexts the family check hashes
  /// under, derived once (see kCachedChannels in ttp.cpp).
  ChannelKeyCtxs channel_ctxs_;
  /// kPaillier backend only (both null otherwise); shared_ptr keeps the
  /// TTP copyable and bid_backend() references stable across copies.
  std::shared_ptr<const crypto::PaillierCompareOracle> oracle_;
  std::shared_ptr<const crypto::BidBackend> backend_;
  std::size_t batches_ = 0;
  std::size_t queries_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;  ///< not owned; may be null
};

}  // namespace lppa::core
