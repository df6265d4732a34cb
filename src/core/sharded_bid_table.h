// ShardedBidTable: the auctioneer's masked bid table — one
// EncryptedBidTable per shard, stitched back together by a deterministic
// cross-shard argmax merge.  It is the only table the production paths
// allocate on (LppaAuction::run, AuctioneerSession, ChurnState); one
// shard is the paper's single table, through the same code.
//
// Each shard's table is a subset view over the global submissions vector
// (no submission is copied), covering only the SUs the ShardPlan
// assigned to that tile; shards sort their columns independently and in
// parallel.  A column-max query then asks every shard for its local
// winner (amortised O(1)) and merges the at-most
// num_shards candidates with the same masked comparison the column sorts
// use, breaking ties to the lowest global user id.
//
// Why the merge is exact: the masked encoding is order-preserving, so
// the answer over one table of every user is "the highest-value entry
// still present, lowest user id among equals".  Max over a partition is the max of the
// per-part maxima; the shard-local tie-break (lowest local id, with
// member lists ascending in global id) composed with the merge tie-break
// (lowest global id) yields exactly the same winner — so awards,
// charges, and the winner announcement are byte-identical for ANY shard
// count and thread count.  The shard_differential suite pins that
// against the per-query tournament scan in tests/oracles.h, including
// SUs on tile borders and tiles narrower than the 2λ halo.
//
// Serialization: the wire image is the GLOBAL EncryptedBidTable image
// (EncryptedBidTable::serialize_image), so PR 3 journal snapshots are
// interchangeable across shard counts — a snapshot taken under
// num_shards=1 restores into a four-shard session and vice versa,
// byte-for-byte, or fails with a typed kProtocol error.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/encrypted_bid_table.h"

namespace lppa::obs {
class Counter;
class MetricsRegistry;
class Span;
}  // namespace lppa::obs

namespace lppa::core {

class ShardedBidTable final : public auction::BidTableView {
 public:
  /// Builds per-shard tables over `submissions` partitioned by
  /// `shard_of` (shard_of[u] < num_shards; empty shards are legal).
  /// References the submissions; the caller keeps them alive.
  /// `num_threads` parallelises construction: across shards (each
  /// shard's columns then sort serially inside its task), or across the
  /// columns of a single shard.  The result is byte-identical for every
  /// thread count.  `metrics`, when set, records one "shard.table_build"
  /// span per non-empty shard and the "shard.argmax_merges" counter (one
  /// per query).  `backend` selects the masked order test for every
  /// shard table and the cross-shard merge (null = the seed HMAC
  /// backend).  `parent`, when set, is the span the "shard.table_build"
  /// spans hang under.
  ShardedBidTable(const std::vector<BidSubmission>& submissions,
                  std::size_t num_channels, std::vector<std::uint32_t> shard_of,
                  std::size_t num_shards, std::size_t num_threads = 1,
                  obs::MetricsRegistry* metrics = nullptr,
                  const crypto::BidBackend* backend = nullptr,
                  const obs::Span* parent = nullptr);

  /// Restores a serialize() image mid-allocation: the image is decoded
  /// into owned submissions (EncryptedBidTable::deserialize's checks,
  /// without its column sort), the per-shard tables are built from them
  /// and the global tombstones re-applied, so a recovering auctioneer
  /// answers every query exactly as the table that was snapshotted —
  /// whatever num_shards the snapshotting process ran with.  Throws
  /// LppaError(kProtocol) on a damaged or foreign-backend image and when
  /// the shard map does not fit it (wrong population, shard id out of
  /// range): a mis-reconfigured recovery must fail loudly, never
  /// silently diverge.  The other arguments are the constructor's.
  static ShardedBidTable restore(std::span<const std::uint8_t> image,
                                 std::vector<std::uint32_t> shard_of,
                                 std::size_t num_shards,
                                 std::size_t num_threads = 1,
                                 obs::MetricsRegistry* metrics = nullptr,
                                 const crypto::BidBackend* backend = nullptr,
                                 const obs::Span* parent = nullptr);

  /// The geometry-free balanced partition: user u -> u*num_shards/n.
  /// AuctioneerSession uses it — the masked domain hides tile geometry
  /// from the wire session, and the partition choice never affects
  /// answers, only memory locality.
  static std::vector<std::uint32_t> contiguous_shards(std::size_t n,
                                                      std::size_t num_shards);

  std::size_t num_users() const noexcept override { return users_; }
  std::size_t num_channels() const noexcept override { return channels_; }
  std::size_t num_shards() const noexcept { return shards_.size(); }

  bool has(UserId u, ChannelId r) const override;
  void remove(UserId u, ChannelId r) override;
  void remove_user(UserId u) override;

  /// Churn maintenance: re-activates a fully tombstoned global slot after
  /// the caller replaced its backing submission (see
  /// EncryptedBidTable::insert_user).  The global mirror and the owning
  /// shard's subset table update together; the slot→shard assignment is
  /// fixed at construction, so the re-activated SU re-enters the same
  /// shard it left.  With `metrics` set, the masked compares the splice
  /// spent are added to the "churn.splice_compares" counter.
  void insert_user(UserId u);

  /// Deep copy (the per-shard tables live behind unique_ptr, so the
  /// implicit copy is deleted).  Allocation consumes a table; churn
  /// rounds clone the pristine maintained table and allocate on the copy.
  ShardedBidTable clone() const;

  /// Global column maximum: per-shard argmax + masked merge; ties break
  /// to the lowest global user id, as in a single stable-sorted column.
  std::optional<UserId> argmax_in_column(ChannelId r) const override;

  bool empty() const noexcept override { return live_ == 0; }

  /// Global EncryptedBidTable-format image (see class comment).
  Bytes serialize() const;

  /// Masked order tests the shard tables' column-order builds spent.
  std::size_t order_tests() const noexcept;

 private:
  ShardedBidTable() = default;  ///< used by clone only

  std::size_t idx(UserId u, ChannelId r) const;
  void build_shards(std::size_t num_threads, const obs::Span* parent);

  const std::vector<BidSubmission>* submissions_ = nullptr;
  std::shared_ptr<const std::vector<BidSubmission>> owned_;  ///< restore path
  /// The masked order test; never null after construction.
  const crypto::BidBackend* backend_ = &crypto::hmac_backend();
  std::size_t users_ = 0;
  std::size_t channels_ = 0;
  std::vector<std::uint32_t> shard_of_;     ///< global id -> shard
  std::vector<std::uint32_t> local_index_;  ///< global id -> id inside shard
  std::vector<std::vector<std::uint32_t>> members_;  ///< shard -> global ids
  /// Empty shards hold nullptr (EncryptedBidTable requires >= 1 user).
  std::vector<std::unique_ptr<EncryptedBidTable>> shards_;
  /// Global presence mirror + live counter: authoritative for has() /
  /// empty() / serialize(); removals are forwarded to the owning shard
  /// so its sorted-column cursors keep skipping tombstones.
  std::vector<bool> present_;
  std::size_t live_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* merges_ = nullptr;  ///< "shard.argmax_merges", with metrics_
};

}  // namespace lppa::core
