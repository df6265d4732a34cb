#include "core/ppbs_bid.h"

#include <cmath>
#include <mutex>
#include <numeric>

#include "common/math_util.h"
#include "prefix/prefix.h"

namespace lppa::core {

// ---------------------------------------------------------------- policy

ZeroDisguisePolicy::ZeroDisguisePolicy(std::vector<double> probs)
    : probs_(std::move(probs)) {
  LPPA_REQUIRE(probs_.size() >= 2, "policy needs probabilities for 0..bmax");
  double total = 0.0;
  for (double p : probs_) {
    LPPA_REQUIRE(p >= 0.0 && p <= 1.0, "probabilities must be in [0,1]");
    total += p;
  }
  LPPA_REQUIRE(std::abs(total - 1.0) < 1e-9,
               "zero-disguise probabilities must sum to 1");
}

ZeroDisguisePolicy ZeroDisguisePolicy::none(Money bmax) {
  std::vector<double> probs(static_cast<std::size_t>(bmax) + 1, 0.0);
  probs[0] = 1.0;
  return ZeroDisguisePolicy(std::move(probs));
}

ZeroDisguisePolicy ZeroDisguisePolicy::uniform(Money bmax,
                                               double replace_prob) {
  LPPA_REQUIRE(replace_prob >= 0.0 && replace_prob <= 1.0,
               "replace_prob must be in [0,1]");
  LPPA_REQUIRE(bmax >= 1, "bmax must be at least 1");
  std::vector<double> probs(static_cast<std::size_t>(bmax) + 1,
                            replace_prob / static_cast<double>(bmax));
  probs[0] = 1.0 - replace_prob;
  return ZeroDisguisePolicy(std::move(probs));
}

ZeroDisguisePolicy ZeroDisguisePolicy::linear(Money bmax, double replace_prob) {
  LPPA_REQUIRE(replace_prob >= 0.0 && replace_prob <= 1.0,
               "replace_prob must be in [0,1]");
  LPPA_REQUIRE(bmax >= 1, "bmax must be at least 1");
  std::vector<double> probs(static_cast<std::size_t>(bmax) + 1, 0.0);
  double weight_sum = 0.0;
  for (Money t = 1; t <= bmax; ++t) {
    weight_sum += static_cast<double>(bmax + 1 - t);
  }
  for (Money t = 1; t <= bmax; ++t) {
    probs[static_cast<std::size_t>(t)] =
        replace_prob * static_cast<double>(bmax + 1 - t) / weight_sum;
  }
  probs[0] = 1.0 - replace_prob;
  return ZeroDisguisePolicy(std::move(probs));
}

ZeroDisguisePolicy ZeroDisguisePolicy::best_protection(Money bmax) {
  std::vector<double> probs(static_cast<std::size_t>(bmax) + 1,
                            1.0 / static_cast<double>(bmax + 1));
  return ZeroDisguisePolicy(std::move(probs));
}

ZeroDisguisePolicy ZeroDisguisePolicy::from_probs(std::vector<double> probs) {
  return ZeroDisguisePolicy(std::move(probs));
}

Money ZeroDisguisePolicy::sample(Rng& rng) const {
  return static_cast<Money>(rng.discrete(probs_));
}

// ---------------------------------------------------------------- params

int BidEncodingParams::scaled_width() const {
  return bit_width_for_value(scaled_max());
}

void BidEncodingParams::validate() const {
  LPPA_REQUIRE(bmax >= 1, "bmax must be at least 1");
  LPPA_REQUIRE(cr >= 1, "cr must be at least 1");
  LPPA_REQUIRE(scaled_width() <= prefix::kMaxWidth,
               "scaled bid encoding exceeds the supported prefix width");
}

PpbsBidConfig PpbsBidConfig::basic(Money bmax) {
  PpbsBidConfig cfg;
  cfg.enc = BidEncodingParams{bmax, /*rd=*/0, /*cr=*/1};
  cfg.policy = ZeroDisguisePolicy::none(bmax);
  cfg.per_channel_keys = false;
  cfg.pad_range_sets = false;
  return cfg;
}

PpbsBidConfig PpbsBidConfig::advanced(Money bmax, Money rd, std::uint64_t cr,
                                      ZeroDisguisePolicy policy) {
  LPPA_REQUIRE(policy.bmax() == bmax, "policy bmax must match enc bmax");
  PpbsBidConfig cfg;
  cfg.enc = BidEncodingParams{bmax, rd, cr};
  cfg.policy = std::move(policy);
  cfg.per_channel_keys = true;
  cfg.pad_range_sets = true;
  return cfg;
}

// --------------------------------------------------------------- payload

Bytes SealedBidPayload::serialize() const {
  ByteWriter w;
  w.u64(true_bid);
  w.u64(scaled);
  return w.take();
}

SealedBidPayload SealedBidPayload::deserialize(
    std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  SealedBidPayload p;
  p.true_bid = r.u64();
  p.scaled = r.u64();
  LPPA_PROTOCOL_CHECK(r.at_end(), "trailing bytes after SealedBidPayload");
  return p;
}

// ------------------------------------------------------------ submissions

void ChannelBidSubmission::serialize(ByteWriter& w) const {
  value_family.serialize(w);
  range_set.serialize(w);
  const Bytes sealed_wire = sealed.serialize();
  w.bytes(sealed_wire);
  // Implied backend tag: a Paillier cell has no prefix digests, so the
  // empty value family doubles as the "ciphertext follows" marker.  HMAC
  // cells (family size >= 2) serialize exactly the pre-backend bytes.
  if (value_family.size() == 0) w.u64(paillier_ct);
}

ChannelBidSubmission ChannelBidSubmission::deserialize(ByteReader& r) {
  ChannelBidSubmission out;
  out.value_family = prefix::HashedPrefixSet::deserialize(r);
  out.range_set = prefix::HashedPrefixSet::deserialize(r);
  const Bytes sealed_wire = r.bytes();
  out.sealed = crypto::SealedMessage::deserialize(sealed_wire);
  if (out.value_family.size() == 0) out.paillier_ct = r.u64();
  return out;
}

Bytes BidSubmission::serialize() const {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(channels.size()));
  for (const auto& c : channels) c.serialize(w);
  return w.take();
}

BidSubmission BidSubmission::deserialize(std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  const std::uint32_t n = r.count(ChannelBidSubmission::kMinWireSize);
  BidSubmission out;
  out.channels.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.channels.push_back(ChannelBidSubmission::deserialize(r));
  }
  LPPA_PROTOCOL_CHECK(r.at_end(), "trailing bytes after BidSubmission");
  return out;
}

// -------------------------------------------------------------- submitter

crypto::SecretKey derive_channel_key(const crypto::SecretKey& gb_master,
                                     ChannelId r, bool per_channel_keys) {
  return per_channel_keys ? gb_master.derive("gb", r) : gb_master;
}

struct ChannelKeyCtxs::Cache {
  std::mutex mutex;
  std::shared_ptr<const std::vector<crypto::HmacKeyCtx>> ctxs =
      std::make_shared<const std::vector<crypto::HmacKeyCtx>>();
};

ChannelKeyCtxs::ChannelKeyCtxs(const crypto::SecretKey& gb_master,
                               bool per_channel_keys)
    : gb_master_(gb_master),
      per_channel_keys_(per_channel_keys),
      cache_(std::make_shared<Cache>()) {}

std::shared_ptr<const std::vector<crypto::HmacKeyCtx>>
ChannelKeyCtxs::covering(std::size_t k) const {
  // Without per-channel keys one context serves every channel.
  const std::size_t need = per_channel_keys_ ? k : std::min<std::size_t>(k, 1);
  std::lock_guard<std::mutex> lock(cache_->mutex);
  if (cache_->ctxs->size() < need) {
    auto grown =
        std::make_shared<std::vector<crypto::HmacKeyCtx>>(*cache_->ctxs);
    grown->reserve(need);
    for (std::size_t r = grown->size(); r < need; ++r) {
      grown->emplace_back(derive_channel_key(gb_master_, r, per_channel_keys_));
    }
    cache_->ctxs = std::move(grown);
  }
  return cache_->ctxs;
}

BidSubmitter::BidSubmitter(PpbsBidConfig config, crypto::SecretKey gb_master,
                           crypto::SecretKey gc,
                           std::optional<crypto::PaillierPublicKey> paillier)
    : config_(std::move(config)),
      gb_master_(gb_master),
      box_(gc),
      key_ctxs_(gb_master, config_.per_channel_keys) {
  config_.enc.validate();
  LPPA_REQUIRE(config_.policy.bmax() == config_.enc.bmax,
               "disguise policy must cover exactly 0..bmax");
  if (config_.backend == crypto::BidBackendId::kPaillier) {
    LPPA_REQUIRE(paillier.has_value(),
                 "Paillier backend needs the TTP-published public key");
    // SU-side: encode-only, no comparison oracle.
    backend_ = std::make_shared<crypto::PaillierBackend>(*paillier, nullptr);
  } else {
    // Non-owning alias of the singleton.
    backend_ = std::shared_ptr<const crypto::BidBackend>(
        std::shared_ptr<void>(), &crypto::hmac_backend());
  }
}

crypto::SecretKey BidSubmitter::channel_key(ChannelId r) const {
  return derive_channel_key(gb_master_, r, config_.per_channel_keys);
}

ChannelBidSubmission BidSubmitter::encode_bid(ChannelId r, Money true_bid,
                                              Rng& rng) const {
  const auto ctxs = key_ctxs_.covering(r + 1);
  return encode_bid_with((*ctxs)[key_ctxs_.slot(r)], true_bid, rng);
}

ChannelBidSubmission BidSubmitter::encode_bid_with(
    const crypto::HmacKeyCtx& key_ctx, Money true_bid, Rng& rng) const {
  const auto& enc = config_.enc;
  LPPA_REQUIRE(true_bid <= enc.bmax, "bid exceeds bmax");

  // Step (ii)+(iii): effective value with offset rd; zeros either disguise
  // as t + rd or spread uniformly over [0, rd].
  Money effective;
  if (true_bid > 0) {
    effective = true_bid + enc.rd;
  } else {
    const Money disguise = config_.policy.sample(rng);
    effective = (disguise > 0)
                    ? disguise + enc.rd
                    : static_cast<Money>(rng.uniform_int(
                          0, static_cast<std::int64_t>(enc.rd)));
  }

  // Step (iv): scale by cr into a random slot of [cr*e, cr*(e+1)-1].
  const std::uint64_t scaled = enc.cr * effective + rng.below(enc.cr);

  // The masked representation itself is the backend's business; the
  // disguise/offset/scale pipeline above and the sealed payload below
  // are backend-agnostic.
  ChannelBidSubmission out;
  const crypto::BidEncodeCtx ctx{&key_ctx, enc.scaled_max(),
                                 enc.scaled_width(), config_.pad_range_sets};
  backend_->encode_cell(out, ctx, scaled, rng);

  const SealedBidPayload payload{true_bid, scaled};
  const Bytes plain = payload.serialize();
  out.sealed = box_.seal(std::span<const std::uint8_t>(plain), rng);
  return out;
}

BidSubmission BidSubmitter::submit(const BidVector& bids, Rng& rng) const {
  // One cache lookup for the whole vector; the snapshot keeps every
  // channel context alive for the duration of the encode loop.
  const auto ctxs = key_ctxs_.covering(bids.size());
  BidSubmission out;
  out.channels.reserve(bids.size());
  for (ChannelId r = 0; r < bids.size(); ++r) {
    out.channels.push_back(
        encode_bid_with((*ctxs)[key_ctxs_.slot(r)], bids[r], rng));
  }
  return out;
}

bool encrypted_ge(const ChannelBidSubmission& a,
                  const ChannelBidSubmission& b) noexcept {
  // a >= b  iff  s_a ∈ [s_b, smax]  iff  G(s_a) ∩ Q([s_b, smax]) != ∅.
  return a.value_family.intersects(b.range_set);
}

}  // namespace lppa::core
