#include "core/bid_backend.h"

#include "common/error.h"
#include "core/ppbs_bid.h"
#include "prefix/hashed_set.h"
#include "prefix/prefix.h"

namespace lppa::crypto {

namespace {

/// id 0: the seed scheme, verbatim.  encode_cell reproduces the exact
/// RNG draw order of the pre-backend BidSubmitter (hashing draws
/// nothing; the range padding draws iff padding is on), which is what
/// keeps the refactor byte-identical — the differential test pins it
/// against pre-refactor golden digests.
class HmacPrefixBackend final : public BidBackend {
 public:
  BidBackendId id() const noexcept override {
    return BidBackendId::kHmacPrefix;
  }
  const char* name() const noexcept override { return "hmac-prefix"; }

  void encode_cell(core::ChannelBidSubmission& cell, const BidEncodeCtx& ctx,
                   std::uint64_t scaled, Rng& rng) const override {
    LPPA_REQUIRE(ctx.key_ctx != nullptr && ctx.batch != nullptr,
                 "HMAC backend needs a channel key context and a set batch");
    ctx.batch->add_value(cell.value_family, *ctx.key_ctx, scaled, ctx.width);
    ctx.batch->add_range(
        cell.range_set, *ctx.key_ctx, scaled, ctx.scaled_max, ctx.width,
        ctx.pad_range_sets ? prefix::max_range_prefixes(ctx.width) : 0, &rng);
  }

  bool ge(const core::ChannelBidSubmission& a,
          const core::ChannelBidSubmission& b) const override {
    // a >= b  iff  s_a ∈ [s_b, smax]  iff  G(s_a) ∩ Q([s_b, smax]) != ∅.
    return a.value_family.intersects(b.range_set);
  }

  std::optional<std::string> validate_cell(
      const core::ChannelBidSubmission&) const override {
    return std::nullopt;  // SubmissionValidator keeps the legacy checks
  }
};

}  // namespace

const BidBackend& hmac_backend() noexcept {
  static const HmacPrefixBackend instance;
  return instance;
}

// ------------------------------------------------------------- oracle

PaillierCompareOracle::PaillierCompareOracle(PaillierKeyPair keys,
                                             std::uint64_t scaled_max)
    : keys_(keys), scaled_max_(scaled_max) {
  LPPA_REQUIRE(keys_.pub.n > 0, "oracle requires a generated key pair");
  LPPA_REQUIRE(scaled_max_ >= 1, "scaled_max must be at least 1");
  // Sign-test exactness (see the class comment): blinded differences
  // must stay strictly inside (-n/2, n/2).
  LPPA_REQUIRE(keys_.pub.n / 128 > scaled_max_,
               "Paillier modulus too small for the bid range: need "
               "n > 128 * scaled_max for exact blinded comparisons");
}

std::uint64_t PaillierCompareOracle::decrypt(std::uint64_t ct) const {
  decrypts_.fetch_add(1, std::memory_order_relaxed);
  return keys_.priv.decrypt(ct, keys_.pub);
}

bool PaillierCompareOracle::ge(std::uint64_t ct_a, std::uint64_t ct_b) const {
  compares_.fetch_add(1, std::memory_order_relaxed);
  const PaillierPublicKey& pub = keys_.pub;
  // E(a - b) = E(a) * E(b)^(n-1): scaling by n-1 is homomorphic negation.
  const std::uint64_t diff = pub.add(ct_a, pub.scale(ct_b, pub.n - 1));
  // Multiplicative blind before decryption, derived from the ciphertext
  // pair so replays of the same query are deterministic.  What the
  // decryptor learns is k*(a-b), i.e. the sign and a blinded magnitude —
  // the standard blinded-comparison leakage model.
  const std::uint64_t k = 1 + ((ct_a ^ ct_b) & 63u);
  const std::uint64_t plain = keys_.priv.decrypt(pub.scale(diff, k), pub);
  // a >= b  ⇒  plain = k*(a-b) <= 64*scaled_max < n/2;
  // a <  b  ⇒  plain = n - k*(b-a) > n/2.
  return plain <= pub.n / 2;
}

// ------------------------------------------------------------ paillier

PaillierBackend::PaillierBackend(
    PaillierPublicKey pub, std::shared_ptr<const PaillierCompareOracle> oracle)
    : pub_(pub), oracle_(std::move(oracle)) {
  LPPA_REQUIRE(pub_.n > 0 && pub_.n_squared == pub_.n * pub_.n,
               "malformed Paillier public key");
}

void PaillierBackend::encode_cell(core::ChannelBidSubmission& cell,
                                  const BidEncodeCtx&, std::uint64_t scaled,
                                  Rng& rng) const {
  cell.paillier_ct = pub_.encrypt(scaled, rng);
}

bool PaillierBackend::ge(const core::ChannelBidSubmission& a,
                         const core::ChannelBidSubmission& b) const {
  if (oracle_ == nullptr) {
    detail::raise(ErrorKind::kState,
                  "Paillier order test requires the TTP comparison oracle; "
                  "this backend instance is encode-only");
  }
  return oracle_->ge(a.paillier_ct, b.paillier_ct);
}

std::optional<std::string> PaillierBackend::validate_cell(
    const core::ChannelBidSubmission& cell) const {
  if (cell.value_family.size() != 0 || cell.range_set.size() != 0) {
    return std::string(
        "Paillier cell carries HMAC prefix digests (backend mismatch)");
  }
  if (cell.paillier_ct == 0 || cell.paillier_ct >= pub_.n_squared) {
    return "Paillier ciphertext outside Z*_{n^2}: " +
           std::to_string(cell.paillier_ct);
  }
  return std::nullopt;
}

}  // namespace lppa::crypto
