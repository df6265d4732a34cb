#include "core/ttp.h"

#include <algorithm>

#include "obs/metrics.h"

namespace lppa::core {

namespace {
// ttp.batch_size bucket ladder: powers of two around the default
// ttp_batch_size (16), so over/under-filled batches are visible.
constexpr double kBatchSizeBuckets[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
}  // namespace

namespace {

// Domain tags for the TTP's three key streams (ASCII "g0", "gbmaster",
// "gc").  Mixed through derive_stream_seed rather than XOR-ed into the
// seed: under the old `seed ^ tag` scheme the related seeds s and
// s ^ 0x6763 collapsed gc(s) onto g0(s ^ 0x6763) — one auction's sealing
// key equal to another's location-masking key.  See common/rng.h for the
// derivation and the golden-output compat note.
constexpr std::uint64_t kDomainG0 = 0x6730ULL;
constexpr std::uint64_t kDomainGbMaster = 0x67626d6173746572ULL;
constexpr std::uint64_t kDomainGc = 0x6763ULL;
// ASCII "pail": the Paillier keygen stream.  Only drawn when the config
// selects the Paillier backend, so the three HMAC key streams above are
// untouched by the backend choice.
constexpr std::uint64_t kDomainPaillier = 0x7061696cULL;

// The family check memoises the key contexts of channels below this
// index.  The index arrives in a relayed query, so a larger one derives
// its key per query instead (the same bytes) and cannot grow the memo.
constexpr ChannelId kCachedChannels = 256;

crypto::SecretKey derive_key(std::uint64_t seed, std::uint64_t domain) {
  Rng rng(derive_stream_seed(seed, domain));
  return crypto::SecretKey::generate(rng);
}

}  // namespace

TrustedThirdParty::TrustedThirdParty(PpbsBidConfig config, std::uint64_t seed,
                                     ChargingRule rule)
    : config_(std::move(config)),
      rule_(rule),
      g0_(derive_key(seed, kDomainG0)),
      gb_master_(derive_key(seed, kDomainGbMaster)),
      gc_(derive_key(seed, kDomainGc)),
      box_(gc_),
      channel_ctxs_(gb_master_, config_.per_channel_keys) {
  config_.enc.validate();
  if (config_.backend == crypto::BidBackendId::kPaillier) {
    Rng prng(derive_stream_seed(seed, kDomainPaillier));
    const auto keys =
        crypto::paillier_keygen(config_.paillier_prime_bits, prng);
    oracle_ = std::make_shared<const crypto::PaillierCompareOracle>(
        keys, config_.enc.scaled_max());
    backend_ = std::make_shared<const crypto::PaillierBackend>(keys.pub,
                                                               oracle_);
  }
}

void ChargeQuery::serialize(ByteWriter& w) const {
  w.u64(user);
  w.u64(channel);
  w.bytes(sealed.serialize());
  value_family.serialize(w);
  // Implied backend tag, as in ChannelBidSubmission: an empty family
  // means the Paillier ciphertext follows; HMAC queries keep the
  // pre-backend byte layout.
  if (value_family.size() == 0) w.u64(paillier_ct);
  w.u8(runner_up_sealed.has_value() ? 1 : 0);
  if (runner_up_sealed.has_value()) {
    LPPA_REQUIRE(runner_up_family.has_value(),
                 "runner-up sealed payload without its prefix family");
    w.bytes(runner_up_sealed->serialize());
    runner_up_family->serialize(w);
    if (runner_up_family->size() == 0) w.u64(runner_up_ct);
  }
}

ChargeQuery ChargeQuery::deserialize(ByteReader& r) {
  ChargeQuery q;
  q.user = r.u64();
  q.channel = r.u64();
  q.sealed = crypto::SealedMessage::deserialize(r.bytes());
  q.value_family = prefix::HashedPrefixSet::deserialize(r);
  if (q.value_family.size() == 0) q.paillier_ct = r.u64();
  const std::uint8_t has_runner_up = r.u8();
  LPPA_PROTOCOL_CHECK(has_runner_up <= 1, "invalid runner-up flag");
  if (has_runner_up) {
    q.runner_up_sealed = crypto::SealedMessage::deserialize(r.bytes());
    q.runner_up_family = prefix::HashedPrefixSet::deserialize(r);
    if (q.runner_up_family->size() == 0) q.runner_up_ct = r.u64();
  }
  return q;
}

void ChargeResult::serialize(ByteWriter& w) const {
  w.u64(user);
  w.u64(channel);
  w.u8(valid ? 1 : 0);
  w.u64(charge);
  w.u8(manipulated ? 1 : 0);
}

ChargeResult ChargeResult::deserialize(ByteReader& r) {
  ChargeResult res;
  res.user = r.u64();
  res.channel = r.u64();
  const std::uint8_t valid_flag = r.u8();
  res.charge = r.u64();
  const std::uint8_t manipulated_flag = r.u8();
  LPPA_PROTOCOL_CHECK(valid_flag <= 1 && manipulated_flag <= 1,
                      "invalid boolean flag in ChargeResult");
  res.valid = valid_flag != 0;
  res.manipulated = manipulated_flag != 0;
  return res;
}

std::optional<SealedBidPayload> TrustedThirdParty::open_and_verify(
    const crypto::SealedMessage& sealed,
    const prefix::HashedPrefixSet& family, std::uint64_t paillier_ct,
    ChannelId channel) const {
  const auto plain = box_.open(sealed);
  if (!plain) return std::nullopt;  // not sealed under gc
  const SealedBidPayload payload =
      SealedBidPayload::deserialize(std::span<const std::uint8_t>(*plain));

  const auto& enc = config_.enc;
  // Verify the submitted masked encoding really encodes the sealed
  // scaled value (the bidder cannot under/over-state its price to the
  // TTP).  Paillier backend: decrypt the submitted ciphertext; HMAC
  // backend: recompute the prefix family.
  if (oracle_ != nullptr) {
    if (paillier_ct == 0 || paillier_ct >= oracle_->pub().n_squared ||
        oracle_->decrypt(paillier_ct) != payload.scaled) {
      return std::nullopt;
    }
  } else {
    const auto expected =
        channel < kCachedChannels
            ? prefix::HashedPrefixSet::of_value(
                  (*channel_ctxs_.covering(channel + 1))[channel_ctxs_.slot(
                      channel)],
                  payload.scaled, enc.scaled_width())
            : prefix::HashedPrefixSet::of_value(
                  derive_channel_key(gb_master_, channel,
                                     config_.per_channel_keys),
                  payload.scaled, enc.scaled_width());
    if (expected != family) return std::nullopt;
  }

  // Consistency between the true bid and the scaled encoding: a positive
  // bid must sit exactly in its slot; a zero bid must either sit in the
  // zero band [0, rd] or be a disguise value in (rd, bmax+rd].
  const std::uint64_t effective = payload.scaled / enc.cr;
  if (payload.true_bid > enc.bmax ||
      (payload.true_bid > 0 && effective != payload.true_bid + enc.rd) ||
      (payload.true_bid == 0 && effective > enc.max_effective())) {
    return std::nullopt;
  }
  return payload;
}

ChargeResult TrustedThirdParty::process(const ChargeQuery& query) const {
  ChargeResult result;
  result.user = query.user;
  result.channel = query.channel;
  if (metrics_ != nullptr) metrics_->counter("ttp.queries").inc();

  const auto payload = open_and_verify(query.sealed, query.value_family,
                                       query.paillier_ct, query.channel);
  if (!payload) {
    result.manipulated = true;
    if (metrics_ != nullptr) metrics_->counter("ttp.manipulations").inc();
    return result;
  }
  if (payload->true_bid == 0) {
    // Disguised or true zero: the win is invalid, no charge (paper §V-B).
    result.valid = false;
    if (metrics_ != nullptr) metrics_->counter("ttp.invalid_charges").inc();
    return result;
  }
  result.valid = true;

  if (rule_ == ChargingRule::kFirstPrice) {
    result.charge = payload->true_bid;
    return result;
  }

  // Second-price extension: the winner pays the runner-up's true bid
  // (zero when the winner stood alone or the runner-up was a disguised
  // zero — a free but valid win, as in a Vickrey auction with no
  // reserve price).
  if (!query.runner_up_sealed.has_value()) {
    result.charge = 0;
    return result;
  }
  LPPA_PROTOCOL_CHECK(query.runner_up_family.has_value(),
                      "runner-up sealed payload without its prefix family");
  const auto runner_up =
      open_and_verify(*query.runner_up_sealed, *query.runner_up_family,
                      query.runner_up_ct, query.channel);
  if (!runner_up) {
    result.manipulated = true;
    result.valid = false;
    if (metrics_ != nullptr) metrics_->counter("ttp.manipulations").inc();
    return result;
  }
  result.charge = std::min(runner_up->true_bid, payload->true_bid);
  return result;
}

std::vector<ChargeResult> TrustedThirdParty::process_batch(
    const std::vector<ChargeQuery>& queries) {
  ++batches_;
  queries_ += queries.size();
  if (metrics_ != nullptr) {
    metrics_->counter("ttp.batches").inc();
    metrics_->histogram("ttp.batch_size", kBatchSizeBuckets)
        .observe(static_cast<double>(queries.size()));
  }
  std::vector<ChargeResult> results;
  results.reserve(queries.size());
  for (const auto& q : queries) results.push_back(process(q));
  return results;
}

}  // namespace lppa::core
