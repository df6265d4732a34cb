// PPBS — Private Location Submission protocol (paper §IV-A).
//
// Each SU submits, under the shared HMAC key g0,
//   H(G(loc_x)), H(G(loc_y))                         — its point, masked
//   H(Q([loc_x-2λ, loc_x+2λ])), H(Q([loc_y-2λ, ...])) — its interference
//                                                       box, masked
// and the auctioneer declares i,j in conflict iff i's point families
// intersect j's box ranges on both axes — which holds exactly when
// |Δx| <= 2λ and |Δy| <= 2λ, i.e. the plaintext conflict predicate of
// auction/conflict.h, without the auctioneer learning any coordinate.
#pragma once

#include <vector>

#include "auction/conflict.h"
#include "common/bytes.h"
#include "crypto/keys.h"
#include "prefix/hashed_set.h"

namespace lppa::core {

/// The SU -> auctioneer location message.
struct LocationSubmission {
  prefix::HashedPrefixSet x_family;
  prefix::HashedPrefixSet y_family;
  prefix::HashedPrefixSet x_range;
  prefix::HashedPrefixSet y_range;

  std::size_t wire_size() const noexcept {
    return x_family.wire_size() + y_family.wire_size() + x_range.wire_size() +
           y_range.wire_size();
  }

  Bytes serialize() const;
  static LocationSubmission deserialize(std::span<const std::uint8_t> wire);

  bool operator==(const LocationSubmission&) const = default;
};

class PpbsLocation {
 public:
  /// coord_width: bit width of the coordinate space; every loc +- 2λ must
  /// fit.  pad_ranges: pad each box range cover to the worst case 2w-2
  /// (recommended; hides range-cover cardinality, cf. §IV-C fix (v)).
  PpbsLocation(const crypto::SecretKey& g0, int coord_width,
               std::uint64_t lambda, bool pad_ranges = true);

  /// SU side: masks one location.  `rng` feeds the padding digests.
  LocationSubmission submit(const auction::SuLocation& loc, Rng& rng) const;

  /// Auctioneer side: true iff the protocol says i and j interfere.
  static bool conflicts(const LocationSubmission& a,
                        const LocationSubmission& b) noexcept;

  /// Auctioneer side: reconstructs the full conflict graph via a
  /// two-axis digest hash-join — every x-range and y-range digest goes
  /// into its axis's inverted index (prefix::DigestIndex), each SU's
  /// x-family and y-family probe them, and the pairs hit on both axes
  /// are the edges.  O(n·w) expected instead of the O(n²·w) all-pairs
  /// merge, and bit-identical to it (padding digests collide with
  /// probability 2⁻²⁵⁶ and both compare the same digest multisets).
  /// This is core::build_conflict_graph (core/conflict_index.h).
  /// `num_threads` spreads the index build and the probe loop over a
  /// thread pool (0 = hardware concurrency); the resulting graph is
  /// independent of the thread count.
  static auction::ConflictGraph build_conflict_graph(
      const std::vector<LocationSubmission>& submissions,
      std::size_t num_threads = 1);

  int coord_width() const noexcept { return coord_width_; }
  std::uint64_t lambda() const noexcept { return lambda_; }

 private:
  /// Midstate-cached HMAC context for g0: every submission hashes ~4w
  /// prefixes under the same key, so the key schedule is absorbed once
  /// here instead of once per digest.  Immutable, hence safe to share
  /// across the parallel submission loop.
  crypto::HmacKeyCtx g0_ctx_;
  int coord_width_;
  std::uint64_t lambda_;
  bool pad_ranges_;
};

}  // namespace lppa::core
