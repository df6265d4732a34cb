// HashedPrefixSet: the masked form of a prefix family / range cover.
//
// Each numericalised prefix is pushed through HMAC under the scheme key;
// the auctioneer only ever asks "do two sets intersect?".  Digests are
// kept sorted so intersection is a linear merge, and the set can be padded
// with uniformly random digests up to the worst-case cardinality 2w-2 to
// hide how many real prefixes a range produced (paper §IV-C.2, fix (v)).
//
// HashedSetBatch builds every set of one submission in a single pass:
// each set is sized, padded and queued as it is added, one multi-key
// HMAC batch fills all of them, and each is sorted once.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/hmac.h"
#include "prefix/prefix.h"

namespace lppa::prefix {

class HashedPrefixSet {
 public:
  HashedPrefixSet() = default;

  /// H_g(G(x)): the hashed prefix family of a value.
  static HashedPrefixSet of_value(const crypto::SecretKey& key,
                                  std::uint64_t x, int width);

  /// H_g(Q([a,b])): the hashed minimal cover of a range.
  static HashedPrefixSet of_range(const crypto::SecretKey& key,
                                  std::uint64_t a, std::uint64_t b, int width);

  /// Midstate-cached variants: same digests, but the HMAC key schedule is
  /// paid once per HmacKeyCtx instead of once per prefix.  Protocol-side
  /// callers that hash several sets under one key (a value family plus
  /// its range cover, or every submission under g0) hold one context and
  /// batch-hash through it.
  static HashedPrefixSet of_value(const crypto::HmacKeyCtx& ctx,
                                  std::uint64_t x, int width);
  static HashedPrefixSet of_range(const crypto::HmacKeyCtx& ctx,
                                  std::uint64_t a, std::uint64_t b, int width);

  /// Builds from raw digests (deserialisation path); sorts them unless
  /// they already are.
  static HashedPrefixSet from_digests(std::vector<crypto::Digest> digests);

  /// True iff the two masked sets share a digest.  This is the only
  /// operation the untrusted auctioneer performs.
  bool intersects(const HashedPrefixSet& other) const noexcept;

  /// Pads with uniform random digests up to `target` elements.  Random
  /// 32-byte strings collide with real HMAC outputs with probability
  /// ~2^-256, so padding never flips a membership answer.  Draws the
  /// same bytes as a padded HashedSetBatch::add_range.
  void pad_to(std::size_t target, Rng& rng);

  std::size_t size() const noexcept { return digests_.size(); }
  std::span<const crypto::Digest> digests() const noexcept { return digests_; }

  /// Wire encoding: u32 count, then 32-byte digests.
  void serialize(ByteWriter& w) const;
  static HashedPrefixSet deserialize(ByteReader& r);
  std::size_t wire_size() const noexcept { return 4 + 32 * digests_.size(); }

  bool operator==(const HashedPrefixSet&) const = default;

 private:
  friend class HashedSetBatch;

  std::vector<crypto::Digest> digests_;  // sorted ascending
};

/// Builds hashed sets in one pass.  add_value()/add_range() numericalise
/// a set's prefixes, size the set to its final cardinality and draw its
/// padding digests at once, so RNG draws keep the caller's order (x pads
/// before y pads, one channel's pads before its sealed-box nonce).  run()
/// then MACs every queued prefix as one multi-key HMAC batch, whatever
/// keys the sets use, and sorts each set once.  Hashing draws no
/// randomness, so when the fixed capacity fills, the batch runs early
/// and nothing observable changes.  A set added here holds unhashed
/// slots until run() returns; keys must outlive it.
class HashedSetBatch {
 public:
  HashedSetBatch() = default;
  HashedSetBatch(const HashedSetBatch&) = delete;
  HashedSetBatch& operator=(const HashedSetBatch&) = delete;

  /// out = H_key(G(x)).
  void add_value(HashedPrefixSet& out, const crypto::HmacKeyCtx& key,
                 std::uint64_t x, int width);

  /// out = H_key(Q([a,b])), padded up to `pad_target` digests with bytes
  /// drawn from `rng` now (no padding when pad_target is at most the
  /// cover's size).
  void add_range(HashedPrefixSet& out, const crypto::HmacKeyCtx& key,
                 std::uint64_t a, std::uint64_t b, int width,
                 std::size_t pad_target = 0, Rng* rng = nullptr);

  /// Hashes every queued prefix and sorts every queued set.
  void run();

 private:
  void add(HashedPrefixSet& out, const crypto::HmacKeyCtx& key,
           const PrefixNumbers& numbers, std::size_t pad_target, Rng* rng);

  static constexpr std::size_t kMaxDigests = 256;
  static constexpr std::size_t kMaxSets = 32;
  static_assert(kMaxDigests >= kMaxSetPrefixes, "a batch holds any one set");

  // One entry per queued prefix: its key, its number and its slot.
  std::array<const crypto::HmacKeyCtx*, kMaxDigests> keys_;
  std::array<std::uint64_t, kMaxDigests> values_;
  std::array<crypto::Digest*, kMaxDigests> slots_;
  std::array<HashedPrefixSet*, kMaxSets> sets_;
  std::size_t num_digests_ = 0;
  std::size_t num_sets_ = 0;
};

/// Conjunctive 2-D check used by the location protocol: point (x,y) is in
/// the box iff both axes intersect.
bool box_match(const HashedPrefixSet& x_family, const HashedPrefixSet& y_family,
               const HashedPrefixSet& x_range, const HashedPrefixSet& y_range)
    noexcept;

}  // namespace lppa::prefix
