// PPBS — Private Bid Submission protocols (paper §IV-B, §IV-C).
//
// Basic scheme: per channel r the SU submits H_gb(G(b_r)) and
// H_gb(Q([b_r, bmax])); the auctioneer finds the column maximum through
// set intersections (an order-preserving masked encoding).
//
// Advanced scheme (the one LPPA actually runs) adds five fixes:
//   (i)  per-channel keys gb_1..gb_k  — kills cross-channel comparison,
//   (ii) zero-disguise with probabilities p_t — a zero bid masquerades as
//        a positive one,
//   (iii) offset rd, true zeros uniform in [0, rd] — kills frequency
//        analysis of the zero ciphertext,
//   (iv) scale by cr with a random slot in [cr·x, cr·(x+1)-1] — kills
//        plaintext-ciphertext replay after charges are published,
//   (v)  range covers padded to the worst case 2w-2 — kills cardinality
//        analysis.
//
// Both schemes are instances of one code path parameterised by
// PpbsBidConfig; PpbsBidConfig::basic() recovers the basic scheme exactly
// (rd=0, cr=1, no disguise, shared key, no padding), which is how the
// ablation bench isolates each fix.
#pragma once

#include <memory>
#include <vector>

#include "auction/bid.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "core/bid_backend.h"
#include "crypto/sealed_box.h"
#include "prefix/hashed_set.h"

namespace lppa::core {

using auction::BidVector;
using auction::ChannelId;
using auction::Money;
using auction::UserId;

/// The zero-replacement distribution p_0..p_bmax (paper §IV-C.2/3):
/// a zero bid stays recognisably zero with probability p_0 and is
/// disguised as value t >= 1 with probability p_t, p_1 >= ... >= p_bmax.
class ZeroDisguisePolicy {
 public:
  /// No disguise (p_0 = 1) — the basic scheme.
  static ZeroDisguisePolicy none(Money bmax);

  /// Replace with total probability `replace_prob` (= 1 - p_0), spread
  /// uniformly over 1..bmax.
  static ZeroDisguisePolicy uniform(Money bmax, double replace_prob);

  /// Replace with total probability `replace_prob`, weight on t
  /// proportional to (bmax + 1 - t): larger disguise values are rarer,
  /// honouring the paper's p_1 >= ... >= p_bmax guidance with less
  /// auction-performance damage than uniform.
  static ZeroDisguisePolicy linear(Money bmax, double replace_prob);

  /// The paper's best-protection point: p_r = 1/(bmax+1) for all r.
  static ZeroDisguisePolicy best_protection(Money bmax);

  /// Arbitrary distribution; probs has bmax+1 entries summing to ~1.
  static ZeroDisguisePolicy from_probs(std::vector<double> probs);

  Money bmax() const noexcept { return static_cast<Money>(probs_.size() - 1); }
  const std::vector<double>& probs() const noexcept { return probs_; }
  double replace_prob() const noexcept { return 1.0 - probs_[0]; }

  /// Samples the disguise value for one zero bid: 0 = stay zero.
  Money sample(Rng& rng) const;

 private:
  explicit ZeroDisguisePolicy(std::vector<double> probs);
  std::vector<double> probs_;  // p_0 .. p_bmax
};

/// Numeric encoding parameters shared by SUs and TTP.
struct BidEncodingParams {
  Money bmax = 15;       ///< upper bound of true bids
  Money rd = 0;          ///< additive offset; true zeros map into [0, rd]
  std::uint64_t cr = 1;  ///< multiplicative range-mapping factor

  /// Largest effective (offset) value: bmax + rd.
  Money max_effective() const noexcept { return bmax + rd; }
  /// Largest scaled value: cr*(bmax+rd+1) - 1.
  std::uint64_t scaled_max() const noexcept {
    return cr * (max_effective() + 1) - 1;
  }
  /// Bit width w of the scaled encoding.
  int scaled_width() const;

  void validate() const;
};

/// Full protocol configuration (advanced scheme by default).
struct PpbsBidConfig {
  BidEncodingParams enc;
  ZeroDisguisePolicy policy = ZeroDisguisePolicy::none(15);
  bool per_channel_keys = true;  ///< fix (i)
  bool pad_range_sets = true;    ///< fix (v)
  /// Which crypto backend masks the per-channel cells (core/bid_backend.h).
  /// The zero-disguise / offset / scale pipeline and the sealed payload
  /// are backend-agnostic; only the masked representation and its order
  /// test swap.
  crypto::BidBackendId backend = crypto::BidBackendId::kHmacPrefix;
  /// Prime size for the TTP's Paillier keygen (kPaillier only).  The
  /// default 12-bit primes give n ≈ 2^23–2^24, comfortably past the
  /// oracle's n > 128·scaled_max exactness bound for every stock config.
  int paillier_prime_bits = 12;

  /// The paper's basic scheme: one key, raw values, no countermeasures.
  static PpbsBidConfig basic(Money bmax);

  /// The advanced scheme with all fixes enabled.
  static PpbsBidConfig advanced(Money bmax, Money rd, std::uint64_t cr,
                                ZeroDisguisePolicy policy);
};

/// The plaintext the SU seals for the TTP: the true bid v plus the scaled
/// encoding s whose prefix sets were submitted, so the TTP can verify
/// non-manipulation and invalidate disguised-zero wins (DESIGN.md §2).
struct SealedBidPayload {
  Money true_bid = 0;
  std::uint64_t scaled = 0;

  Bytes serialize() const;
  static SealedBidPayload deserialize(std::span<const std::uint8_t> wire);
  bool operator==(const SealedBidPayload&) const = default;
};

/// One SU's per-channel bid message.  Exactly one masked representation
/// is populated: the HMAC backend fills the two prefix sets, the
/// Paillier backend fills paillier_ct and leaves both sets empty.  The
/// wire format keys off that: the ciphertext is (de)serialized iff the
/// value family is empty — an honest HMAC family always has width+1 >= 2
/// digests — so HMAC bytes are bit-identical to the pre-backend format.
struct ChannelBidSubmission {
  prefix::HashedPrefixSet value_family;  ///< H_gb_r(G(s))
  prefix::HashedPrefixSet range_set;     ///< H_gb_r(Q([s, smax])), padded
  crypto::SealedMessage sealed;          ///< SealedBidPayload under gc
  std::uint64_t paillier_ct = 0;         ///< E_pub(s), Paillier backend only

  /// Smallest encoding: two digest counts and the sealed length prefix
  /// (4 bytes each), then either a 32-byte family digest or the 8-byte
  /// ciphertext that an empty family implies.
  static constexpr std::size_t kMinWireSize = 4 + 4 + 4 + 8;

  std::size_t wire_size() const noexcept {
    return value_family.wire_size() + range_set.wire_size() +
           sealed.wire_size() + (value_family.size() == 0 ? 8 : 0);
  }

  void serialize(ByteWriter& w) const;
  static ChannelBidSubmission deserialize(ByteReader& r);
  bool operator==(const ChannelBidSubmission&) const = default;
};

/// One SU's full bid vector message.
struct BidSubmission {
  std::vector<ChannelBidSubmission> channels;

  std::size_t wire_size() const noexcept {
    std::size_t total = 0;
    for (const auto& c : channels) total += c.wire_size();
    return total;
  }

  Bytes serialize() const;
  static BidSubmission deserialize(std::span<const std::uint8_t> wire);
  bool operator==(const BidSubmission&) const = default;
};

/// Grow-only memo of the per-channel HMAC key contexts under gb_master
/// (gb_r = derive_channel_key(gb_master, r, per_channel_keys)): each
/// context is derived once, then shared by copies and across threads.
/// Readers take a snapshot under a mutex (one lock per call, not per
/// digest); growth copies the old vector so existing snapshots stay
/// valid.
class ChannelKeyCtxs {
 public:
  ChannelKeyCtxs(const crypto::SecretKey& gb_master, bool per_channel_keys);

  /// A snapshot covering channels [0, k): channel r's context is
  /// (*snapshot)[slot(r)].
  std::shared_ptr<const std::vector<crypto::HmacKeyCtx>> covering(
      std::size_t k) const;

  /// Without per-channel keys every channel shares gb_master's context.
  std::size_t slot(ChannelId r) const noexcept {
    return per_channel_keys_ ? r : 0;
  }

 private:
  crypto::SecretKey gb_master_;
  bool per_channel_keys_;
  struct Cache;
  std::shared_ptr<Cache> cache_;
};

/// SU-side encoder.  Thread-safe for concurrent submit() calls: the
/// per-channel HMAC key contexts are memoised in a ChannelKeyCtxs, and
/// everything else is immutable after construction.
class BidSubmitter {
 public:
  /// `paillier` is the TTP-published public key, required (and only
  /// consulted) when config.backend == kPaillier.
  BidSubmitter(PpbsBidConfig config, crypto::SecretKey gb_master,
               crypto::SecretKey gc,
               std::optional<crypto::PaillierPublicKey> paillier =
                   std::nullopt);

  /// Encodes a full bid vector (bids[r] <= bmax required).
  BidSubmission submit(const BidVector& bids, Rng& rng) const;

  /// Encodes one bid — exposed so tests can pin down each transformation.
  ChannelBidSubmission encode_bid(ChannelId r, Money true_bid, Rng& rng) const;

  /// The HMAC key used for channel r (gb_r when per-channel keys are on,
  /// gb_master otherwise).
  crypto::SecretKey channel_key(ChannelId r) const;

  const PpbsBidConfig& config() const noexcept { return config_; }

 private:
  ChannelBidSubmission encode_bid_with(const crypto::HmacKeyCtx& key_ctx,
                                       Money true_bid, Rng& rng) const;

  PpbsBidConfig config_;
  crypto::SecretKey gb_master_;
  crypto::SealedBox box_;
  ChannelKeyCtxs key_ctxs_;  ///< derived once per submitter, not per bid
  /// The cell encoder (never null): the HMAC singleton, or an SU-side
  /// (encode-only) PaillierBackend owning the published public key.
  std::shared_ptr<const crypto::BidBackend> backend_;
};

/// Auctioneer-side order test within one channel column:
/// true iff bid `a` >= bid `b` in the masked order-preserving encoding.
/// HMAC-backend cells only — backend-generic code paths go through
/// crypto::BidBackend::ge instead.
bool encrypted_ge(const ChannelBidSubmission& a,
                  const ChannelBidSubmission& b) noexcept;

/// Derives gb_r from the master key the same way BidSubmitter does —
/// shared with the TTP's verification path.
crypto::SecretKey derive_channel_key(const crypto::SecretKey& gb_master,
                                     ChannelId r, bool per_channel_keys);

}  // namespace lppa::core
