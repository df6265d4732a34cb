#include "prefix/hashed_set.h"

#include <algorithm>
#include <cstring>

namespace lppa::prefix {

namespace {

/// Appends uniform random digests until `digests` holds `target`; each
/// byte is one below(256) draw.  The one padding helper: pad_to and a
/// padded add_range draw identical bytes.  The bytes go to a local
/// buffer first: a store through the digest's uint8_t* may alias the
/// generator's state, which would then round-trip memory every draw.
void append_padding(std::vector<crypto::Digest>& digests, std::size_t target,
                    Rng& rng) {
  while (digests.size() < target) {
    std::uint8_t bytes[crypto::Digest::kSize];
    for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng.below(256));
    std::memcpy(digests.emplace_back().bytes.data(), bytes, sizeof bytes);
  }
}

}  // namespace

void HashedSetBatch::add_value(HashedPrefixSet& out,
                               const crypto::HmacKeyCtx& key, std::uint64_t x,
                               int width) {
  add(out, key, family_numbers(x, width), 0, nullptr);
}

void HashedSetBatch::add_range(HashedPrefixSet& out,
                               const crypto::HmacKeyCtx& key, std::uint64_t a,
                               std::uint64_t b, int width,
                               std::size_t pad_target, Rng* rng) {
  add(out, key, cover_numbers(a, b, width), pad_target, rng);
}

void HashedSetBatch::add(HashedPrefixSet& out, const crypto::HmacKeyCtx& key,
                         const PrefixNumbers& numbers, std::size_t pad_target,
                         Rng* rng) {
  if (num_digests_ + numbers.size > kMaxDigests || num_sets_ == kMaxSets) {
    run();
  }
  std::vector<crypto::Digest>& digests = out.digests_;
  digests.clear();
  digests.reserve(std::max(numbers.size, pad_target));
  digests.resize(numbers.size);
  if (pad_target > numbers.size) {
    LPPA_REQUIRE(rng != nullptr, "padding a hashed set needs an rng");
    append_padding(digests, pad_target, *rng);
  }
  for (std::size_t i = 0; i < numbers.size; ++i) {
    keys_[num_digests_] = &key;
    values_[num_digests_] = numbers.values[i];
    slots_[num_digests_] = &digests[i];
    ++num_digests_;
  }
  sets_[num_sets_++] = &out;
}

void HashedSetBatch::run() {
  crypto::HmacKeyCtx::mac_u64_batch(
      std::span<const crypto::HmacKeyCtx* const>(keys_.data(), num_digests_),
      std::span<const std::uint64_t>(values_.data(), num_digests_),
      std::span<crypto::Digest* const>(slots_.data(), num_digests_));
  for (std::size_t i = 0; i < num_sets_; ++i) {
    std::vector<crypto::Digest>& digests = sets_[i]->digests_;
    std::sort(digests.begin(), digests.end());
  }
  num_digests_ = 0;
  num_sets_ = 0;
}

HashedPrefixSet HashedPrefixSet::of_value(const crypto::SecretKey& key,
                                          std::uint64_t x, int width) {
  return of_value(crypto::HmacKeyCtx(key), x, width);
}

HashedPrefixSet HashedPrefixSet::of_range(const crypto::SecretKey& key,
                                          std::uint64_t a, std::uint64_t b,
                                          int width) {
  return of_range(crypto::HmacKeyCtx(key), a, b, width);
}

HashedPrefixSet HashedPrefixSet::of_value(const crypto::HmacKeyCtx& ctx,
                                          std::uint64_t x, int width) {
  HashedPrefixSet s;
  HashedSetBatch batch;
  batch.add_value(s, ctx, x, width);
  batch.run();
  return s;
}

HashedPrefixSet HashedPrefixSet::of_range(const crypto::HmacKeyCtx& ctx,
                                          std::uint64_t a, std::uint64_t b,
                                          int width) {
  HashedPrefixSet s;
  HashedSetBatch batch;
  batch.add_range(s, ctx, a, b, width);
  batch.run();
  return s;
}

HashedPrefixSet HashedPrefixSet::from_digests(
    std::vector<crypto::Digest> digests) {
  HashedPrefixSet s;
  s.digests_ = std::move(digests);
  if (!std::is_sorted(s.digests_.begin(), s.digests_.end())) {
    std::sort(s.digests_.begin(), s.digests_.end());
  }
  return s;
}

bool HashedPrefixSet::intersects(const HashedPrefixSet& other) const noexcept {
  // Linear merge over the two sorted vectors.  The membership check uses
  // ct_equal: a short-circuiting digest == would leak, through timing,
  // how many leading bytes of an HMAC'd prefix digest the probe matched.
  // The < used to advance the merge only orders digests, it never
  // confirms membership, so it stays an ordinary comparison.
  auto a = digests_.begin();
  auto b = other.digests_.begin();
  while (a != digests_.end() && b != other.digests_.end()) {
    if (ct_equal(a->bytes, b->bytes)) return true;
    if (*a < *b) {
      ++a;
    } else {
      ++b;
    }
  }
  return false;
}

void HashedPrefixSet::pad_to(std::size_t target, Rng& rng) {
  if (digests_.size() >= target) return;
  digests_.reserve(target);
  append_padding(digests_, target, rng);
  std::sort(digests_.begin(), digests_.end());
}

void HashedPrefixSet::serialize(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(digests_.size()));
  for (const auto& d : digests_) w.raw(std::span<const std::uint8_t>(d.bytes));
}

HashedPrefixSet HashedPrefixSet::deserialize(ByteReader& r) {
  std::vector<crypto::Digest> digests(r.count(crypto::Digest::kSize));
  for (auto& d : digests) r.raw_into(d.bytes);
  return from_digests(std::move(digests));
}

bool box_match(const HashedPrefixSet& x_family, const HashedPrefixSet& y_family,
               const HashedPrefixSet& x_range, const HashedPrefixSet& y_range)
    noexcept {
  return x_family.intersects(x_range) && y_family.intersects(y_range);
}

}  // namespace lppa::prefix
