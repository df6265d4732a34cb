// EncryptedBidTable: the auctioneer's bid table T in the masked domain.
//
// Implements the same BidTableView interface as the plaintext BidMatrix,
// so PSD's greedy allocator (auction/allocate.h) runs unchanged; the only
// difference is that argmax_in_column compares bids via prefix-membership
// intersections instead of integer comparison.
//
// The masked encoding is order-preserving (a >= b iff a's value family
// intersects b's range cover), so the pairwise test induces a total
// preorder on each column.  The table exploits that: each column's
// descending order is built ONCE by a stable merge sort, and
// argmax_in_column becomes an amortised O(1) pop that skips tombstoned
// (removed) entries — instead of the seed's O(n) tournament re-run every
// Algorithm-3 iteration (O(n² · w) per round).
//
// Build cost per column.  On the HMAC backend the sort's comparisons are
// answered from a class memo: users with the same value family F share a
// left class, users with the same R ∩ U (range set R, U the union of the
// column's families) share a right class, and ge(a, b) = F(a) ∩ R(b) ≠ ∅
// = F(a) ∩ (R(b) ∩ U) ≠ ∅ depends on nothing else — so one backend test
// per (left, right) class pair answers every pair exactly, Byzantine
// cells included.  Classes are found by hashing, with no sort of cell
// bytes: users are grouped by a hash of their family digests'
// fingerprints, each confirmed against its class representative with
// ct_equal; U is a fingerprint hash set whose hits are confirmed with
// ct_equal; right classes are grouped by a hash of the position list.
// Class numbering never reaches the sort's answers.  That is O(n·w)
// expected digest lookups plus at most g_F·g_R backend tests
// (≤ 2^w · 2^w for w-bit scaled bids) instead of O(n log n).  Columns where g_F·g_R > n·(⌈log₂ n⌉ + 1), and every
// column of a non-HMAC backend (Paillier ciphertexts are randomised, so
// there are no equal-value classes), keep the per-pair comparator.
// It is the one bid table every production caller allocates on; the
// per-query tournament scan it replaced lives in tests/oracles.h as the
// differential reference.
#pragma once

#include <memory>
#include <vector>

#include "auction/allocate.h"
#include "core/ppbs_bid.h"

namespace lppa::core {

/// Source-compatibility shim: the table has one argmax path (build each
/// column's order up front, then pop the first still-present entry per
/// query), so this enum has one value.  It survives only because
/// existing embedders still spell LppaConfig::argmax_strategy and the
/// constructor's strategy argument.
enum class ArgmaxStrategy : std::uint8_t {
  kSortedColumns,
};

class EncryptedBidTable : public auction::BidTableView {
 public:
  /// Holds a reference to the submissions for the duration of the
  /// allocation; the caller keeps them alive.  `sort_threads` spreads the
  /// per-column order construction over the shared thread pool (1 =
  /// serial, 0 = hardware concurrency); columns are sorted independently,
  /// so the resulting orders — and every argmax answer — are identical
  /// for any thread count.
  /// `backend` selects the masked order test (null = the seed HMAC
  /// backend, keeping every pre-backend call site valid); the table only
  /// ever calls its ge() hook.  The ArgmaxStrategy argument is the
  /// single-valued shim (see its comment) and changes nothing.
  EncryptedBidTable(const std::vector<BidSubmission>& submissions,
                    std::size_t num_channels,
                    ArgmaxStrategy strategy = ArgmaxStrategy::kSortedColumns,
                    std::size_t sort_threads = 1,
                    const crypto::BidBackend* backend = nullptr);

  std::size_t num_users() const noexcept override { return users_; }
  std::size_t num_channels() const noexcept override { return channels_; }

  bool has(UserId u, ChannelId r) const override;
  void remove(UserId u, ChannelId r) override;
  void remove_user(UserId u) override;

  /// Churn maintenance: re-activates a fully tombstoned slot AFTER the
  /// caller replaced the backing submission behind it (the table holds a
  /// reference, so the new masked bytes are already visible).  All of
  /// u's cells become present again and u is re-positioned in every
  /// column order exactly where a from-scratch stable sort of the current
  /// submissions would put it — so an incrementally maintained table
  /// stays bit-equal to a rebuilt one.  Cost per column: a binary search
  /// of at most 2·(⌈log₂ n⌉ + 1) masked compares plus an O(n) uint32
  /// memmove, vs O(n log n) compares for a rebuild.  Returns the masked
  /// compares it spent.
  std::size_t insert_user(UserId u);

  /// Column maximum under the masked order; ties break to the lowest
  /// user id (the sort is stable).
  std::optional<UserId> argmax_in_column(ChannelId r) const override;

  bool empty() const noexcept override;

  /// The masked entry (still present or not).
  const ChannelBidSubmission& entry(UserId u, ChannelId r) const;

  /// Serializes the full table state — the masked submissions plus the
  /// presence bitmap (packed, with the live-cell count cross-checked at
  /// restore time) — so a recovering auctioneer can rebuild the table
  /// exactly as the allocator left it.  serialize→deserialize→serialize
  /// is byte-identical, which the round-trip property test pins.  The
  /// column orders and cursors are NOT serialized: they are a pure
  /// function of the submissions and are rebuilt on restore, keeping the
  /// wire format identical to the seed (PR 3 recovery images stay valid).
  Bytes serialize() const;

  /// The serialize() wire image as a pure function of its inputs, shared
  /// with the tournament-scan oracle (tests/oracles.h) so both tables
  /// emit the same bytes.  `present` is the row-major bitmap
  /// (users × channels) and `live` its set-bit count.
  /// Non-HMAC backends prefix the image with a magic u32 carrying the
  /// backend id (crypto::kImageMagic); the seed HMAC format stays
  /// untagged and bit-identical, so PR 3 recovery images remain valid.
  static Bytes serialize_image(const std::vector<BidSubmission>& submissions,
                               std::size_t num_channels,
                               const std::vector<bool>& present,
                               std::size_t live,
                               const crypto::BidBackend* backend = nullptr);

  /// Inverse of serialize().  The restored table OWNS its submissions
  /// (the wire image is self-contained), unlike the referencing
  /// constructor.  Throws LppaError(kProtocol) on truncation, corruption,
  /// a live-cell count that disagrees with the bitmap, or an image whose
  /// backend tag does not match `backend` (in either direction — an
  /// untagged HMAC image refuses a Paillier session and vice versa).
  static EncryptedBidTable deserialize(
      std::span<const std::uint8_t> wire, std::size_t sort_threads = 1,
      const crypto::BidBackend* backend = nullptr);

  /// Live (still-present) cells; empty() is live_cells() == 0.
  std::size_t live_cells() const noexcept { return live_; }

  /// Masked order tests (backend ge calls) the column-order build spent.
  std::size_t order_tests() const noexcept { return order_tests_; }

 private:
  EncryptedBidTable() = default;  ///< used by deserialize

  std::size_t idx(UserId u, ChannelId r) const;

  /// Builds order_/head_ for every column.
  void build_column_orders(std::size_t sort_threads);

  const std::vector<BidSubmission>* submissions_ = nullptr;
  /// Engaged when the table owns its submissions (deserialize path); the
  /// shared_ptr keeps submissions_ stable across copies and moves.
  std::shared_ptr<const std::vector<BidSubmission>> owned_;
  std::size_t users_ = 0;
  std::size_t channels_ = 0;
  /// The masked order test; never null after construction.
  const crypto::BidBackend* backend_ = &crypto::hmac_backend();
  std::vector<bool> present_;
  std::size_t order_tests_ = 0;  ///< see order_tests()
  std::size_t live_ = 0;  ///< count of set bits in present_, so empty()
                          ///< is O(1) instead of an O(n·m) bitmap scan
                          ///< per allocation iteration

  /// order_[r]: user ids of column r, descending by masked bid (stable on
  /// ties, so equal bids keep increasing-id order).  Removal is a
  /// tombstone in present_; only insert_user reorders, by splicing the
  /// re-activated user back to its canonical position.
  std::vector<std::vector<std::uint32_t>> order_;
  /// head_[r]: cursor into order_[r].  Everything before it is known
  /// tombstoned, so advancing it from const argmax queries is pure
  /// memoisation (it never skips a present entry).  The one resurrection
  /// path, insert_user, re-establishes the invariant by pulling the
  /// cursor back over the revived entry.
  mutable std::vector<std::size_t> head_;
};

}  // namespace lppa::core
