#include "prefix/hashed_set.h"

#include <algorithm>

namespace lppa::prefix {

namespace {

std::vector<crypto::Digest> hash_prefixes(const crypto::HmacKeyCtx& ctx,
                                          const std::vector<Prefix>& prefixes) {
  std::vector<std::uint64_t> nums;
  nums.reserve(prefixes.size());
  for (const auto& p : prefixes) nums.push_back(numericalize(p));
  std::vector<crypto::Digest> out(nums.size());
  ctx.mac_u64_batch(nums, out);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

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
  s.digests_ = hash_prefixes(ctx, prefix_family(x, width));
  return s;
}

HashedPrefixSet HashedPrefixSet::of_range(const crypto::HmacKeyCtx& ctx,
                                          std::uint64_t a, std::uint64_t b,
                                          int width) {
  HashedPrefixSet s;
  s.digests_ = hash_prefixes(ctx, range_prefixes(a, b, width));
  return s;
}

HashedPrefixSet HashedPrefixSet::from_digests(
    std::vector<crypto::Digest> digests) {
  HashedPrefixSet s;
  s.digests_ = std::move(digests);
  std::sort(s.digests_.begin(), s.digests_.end());
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
  while (digests_.size() < target) {
    crypto::Digest d;
    for (auto& byte : d.bytes) byte = static_cast<std::uint8_t>(rng.below(256));
    digests_.push_back(d);
  }
  std::sort(digests_.begin(), digests_.end());
}

void HashedPrefixSet::serialize(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(digests_.size()));
  for (const auto& d : digests_) w.raw(std::span<const std::uint8_t>(d.bytes));
}

HashedPrefixSet HashedPrefixSet::deserialize(ByteReader& r) {
  std::vector<crypto::Digest> digests(r.count(crypto::Digest::kSize));
  for (auto& d : digests) {
    const Bytes raw = r.raw(crypto::Digest::kSize);
    std::copy(raw.begin(), raw.end(), d.bytes.begin());
  }
  return from_digests(std::move(digests));
}

bool box_match(const HashedPrefixSet& x_family, const HashedPrefixSet& y_family,
               const HashedPrefixSet& x_range, const HashedPrefixSet& y_range)
    noexcept {
  return x_family.intersects(x_range) && y_family.intersects(y_range);
}

}  // namespace lppa::prefix
