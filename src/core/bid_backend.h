// BidBackend: the pluggable crypto backend behind the encrypted-bid hot
// path — a vtable of encode / compare / validate hooks so the masked-bid
// scheme a round runs on is a configuration choice, not a compile-time
// fact.
//
// Two backends exist:
//   * HmacPrefixBackend (id 0) — the paper's PPBS construction: HMAC'd
//     prefix families compared by set intersection.  This is the seed
//     code path verbatim; the refactor is differential-pinned to produce
//     byte-identical wire images, snapshots, awards and charges.
//   * PaillierBackend (id 1) — the construction of the paper's [7] (Pan
//     et al., JSAC'11) on crypto/paillier.h: each cell carries one
//     Paillier ciphertext of the scaled bid, and order tests go through
//     a TTP-held PaillierCompareOracle (blinded-difference decryption).
//     Combined with ChargingRule::kSecondPrice the winner pays its
//     column's runner-up bid, which is strategyproof only where the
//     column is one clique; strategyproofness under spatial reuse, the
//     aim of PPS (arXiv 1307.7792), is an open question.
//
// The backend only owns the per-cell masked representation and its order
// test.  Everything around it — zero disguise, offset/scale, the sealed
// TTP payload, conflict graphs, journals — is backend-agnostic
// and shared (the differential suite pins the shared invariants).
//
// Wire/snapshot compatibility: HMAC cells and images are bit-identical
// to the seed format (no tag anywhere).  Non-HMAC snapshot images are
// prefixed with a magic u32 (high bit set, see kImageMagic) carrying the
// backend id; restoring an image under a different backend fails with a
// typed kProtocol error in both directions.  docs/crypto_backends.md has
// the full contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/rng.h"
#include "crypto/paillier.h"

namespace lppa::core {
struct ChannelBidSubmission;
}  // namespace lppa::core

namespace lppa::crypto {

class HmacKeyCtx;

/// Stable backend identifiers: they appear in snapshot images and bench
/// JSON, so values are append-only.
enum class BidBackendId : std::uint8_t {
  kHmacPrefix = 0,
  kPaillier = 1,
};

/// Snapshot image tag for non-HMAC backends: 0xB1DBAC00 | backend id.
/// The high bit distinguishes a tag from the legacy (untagged, HMAC)
/// image whose first u32 is a user count — counts never have the high
/// bit set.
inline constexpr std::uint32_t kImageMagic = 0xB1DBAC00u;
inline constexpr std::uint32_t kImageMagicMask = 0xFFFFFF00u;

/// Everything encode_cell / validate_cell need beyond the cell itself:
/// the per-channel HMAC context (HMAC backend only) and the shared
/// scaled-encoding parameters.
struct BidEncodeCtx {
  const HmacKeyCtx* key_ctx = nullptr;  ///< HMAC backend only
  std::uint64_t scaled_max = 0;
  int width = 0;
  bool pad_range_sets = false;
};

/// The vtable.  Implementations are stateless or immutable after
/// construction and safe for concurrent use (the Paillier oracle keeps
/// its op counters in atomics).
class BidBackend {
 public:
  virtual ~BidBackend() = default;

  virtual BidBackendId id() const noexcept = 0;
  virtual const char* name() const noexcept = 0;

  /// Fills the masked representation of one cell from the scaled value.
  /// The caller (BidSubmitter) owns the zero-disguise / offset / scale
  /// steps before this hook and the sealed TTP payload after it.
  virtual void encode_cell(core::ChannelBidSubmission& cell,
                           const BidEncodeCtx& ctx, std::uint64_t scaled,
                           Rng& rng) const = 0;

  /// Order test within one channel column: true iff bid a >= bid b.
  /// Must induce a total preorder with ge(a, a) == true, so the stable
  /// column sort, the churn splice and the tournament-scan test oracle
  /// break ties to the lowest user id identically.
  virtual bool ge(const core::ChannelBidSubmission& a,
                  const core::ChannelBidSubmission& b) const = 0;

  /// Structural validation of one cell's masked representation; nullopt
  /// when well-formed.  The HMAC backend returns nullopt — its prefix
  /// family/range checks predate this interface and stay verbatim in
  /// core::SubmissionValidator so rejection text never changes.
  virtual std::optional<std::string> validate_cell(
      const core::ChannelBidSubmission& cell) const = 0;
};

/// The singleton seed backend (id 0).
const BidBackend& hmac_backend() noexcept;

/// Null-tolerant resolution: configs carry a nullable pointer whose null
/// means "the seed backend", keeping every pre-backend call site valid.
inline const BidBackend& resolve_backend(const BidBackend* backend) noexcept {
  return backend != nullptr ? *backend : hmac_backend();
}

/// The TTP-held comparison oracle of the Paillier tier: answers a >= b
/// over ciphertexts by decrypting a multiplicatively blinded difference
/// (a stand-in for the interactive comparison subprotocol of [7]; the
/// auctioneer never holds the private key in the deployment story, it
/// round-trips each test through this object).
///
/// Correctness bound: the blinding factor k is in [1, 64] and plaintexts
/// are in [0, scaled_max], so k*(a-b) stays in (-n/2, n/2) — i.e. the
/// sign test "decrypt > n/2 means negative" is exact — iff
/// n > 128 * scaled_max, which the constructor requires.
class PaillierCompareOracle {
 public:
  PaillierCompareOracle(PaillierKeyPair keys, std::uint64_t scaled_max);

  /// a >= b over ciphertexts.  Deterministic for a given ciphertext pair
  /// (the blinding factor derives from the ciphertexts), so repeated
  /// queries — e.g. a recovery replaying an allocation — agree.
  bool ge(std::uint64_t ct_a, std::uint64_t ct_b) const;

  /// Plain decryption (charging verification path).
  std::uint64_t decrypt(std::uint64_t ct) const;

  const PaillierPublicKey& pub() const noexcept { return keys_.pub; }
  std::uint64_t scaled_max() const noexcept { return scaled_max_; }

  /// Op counters for the head-to-head bench (per-oracle totals).
  std::size_t compares() const noexcept {
    return compares_.load(std::memory_order_relaxed);
  }
  std::size_t decrypts() const noexcept {
    return decrypts_.load(std::memory_order_relaxed);
  }

 private:
  PaillierKeyPair keys_;
  std::uint64_t scaled_max_ = 0;
  mutable std::atomic<std::size_t> compares_{0};
  mutable std::atomic<std::size_t> decrypts_{0};
};

/// id 1: Paillier-encrypted bids (see the file comment).  SU-side
/// instances (encode only) carry a null oracle; the auctioneer/TTP side
/// needs the oracle for ge(), which throws kState without one.
class PaillierBackend final : public BidBackend {
 public:
  PaillierBackend(PaillierPublicKey pub,
                  std::shared_ptr<const PaillierCompareOracle> oracle);

  BidBackendId id() const noexcept override { return BidBackendId::kPaillier; }
  const char* name() const noexcept override { return "paillier"; }

  void encode_cell(core::ChannelBidSubmission& cell, const BidEncodeCtx& ctx,
                   std::uint64_t scaled, Rng& rng) const override;
  bool ge(const core::ChannelBidSubmission& a,
          const core::ChannelBidSubmission& b) const override;
  std::optional<std::string> validate_cell(
      const core::ChannelBidSubmission& cell) const override;

  const PaillierPublicKey& pub() const noexcept { return pub_; }
  const PaillierCompareOracle* oracle() const noexcept {
    return oracle_.get();
  }

 private:
  PaillierPublicKey pub_;
  std::shared_ptr<const PaillierCompareOracle> oracle_;  ///< null SU-side
};

}  // namespace lppa::crypto
