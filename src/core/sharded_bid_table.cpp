#include "core/sharded_bid_table.h"

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace lppa::core {

ShardedBidTable::ShardedBidTable(const std::vector<BidSubmission>& submissions,
                                 std::size_t num_channels,
                                 std::vector<std::uint32_t> shard_of,
                                 std::size_t num_shards,
                                 std::size_t num_threads,
                                 obs::MetricsRegistry* metrics,
                                 const crypto::BidBackend* backend,
                                 const obs::Span* parent)
    : submissions_(&submissions),
      backend_(&crypto::resolve_backend(backend)),
      users_(submissions.size()),
      channels_(num_channels),
      shard_of_(std::move(shard_of)),
      metrics_(metrics),
      merges_(metrics != nullptr ? &metrics->counter("shard.argmax_merges")
                                 : nullptr) {
  LPPA_REQUIRE(users_ > 0, "ShardedBidTable requires at least one user");
  LPPA_REQUIRE(channels_ > 0, "ShardedBidTable requires at least one channel");
  LPPA_REQUIRE(num_shards >= 1, "ShardedBidTable requires at least one shard");
  LPPA_REQUIRE(shard_of_.size() == users_,
               "shard map must cover every submission");
  for (const std::uint32_t s : shard_of_) {
    LPPA_REQUIRE(s < num_shards, "shard id out of range");
  }
  for (const auto& s : submissions) {
    LPPA_REQUIRE(s.channels.size() == channels_,
                 "every submission must cover every channel");
  }
  members_.resize(num_shards);
  local_index_.resize(users_);
  for (std::size_t u = 0; u < users_; ++u) {
    auto& m = members_[shard_of_[u]];
    local_index_[u] = static_cast<std::uint32_t>(m.size());
    m.push_back(static_cast<std::uint32_t>(u));
  }
  present_.assign(users_ * channels_, true);
  live_ = users_ * channels_;
  build_shards(num_threads, parent);
}

void ShardedBidTable::build_shards(std::size_t num_threads,
                                   const obs::Span* parent) {
  const std::size_t num_shards = members_.size();
  shards_.resize(num_shards);
  // One task per shard.  Several shards sort their columns serially
  // inside their tasks, so nested pool scheduling never happens; a
  // single shard runs inline and spreads its column sorts over the pool
  // instead.  Shards and columns are fully independent, so the tables —
  // and every later answer — are thread-count-invariant.
  const std::size_t sort_threads = num_shards == 1 ? num_threads : 1;
  parallel_for(num_shards, num_threads, [&](std::size_t s) {
    if (members_[s].empty()) return;
    obs::Span build_span(metrics_, "shard.table_build", parent);
    shards_[s] = std::make_unique<EncryptedBidTable>(
        EncryptedBidTable::subset_view(*submissions_, channels_, members_[s],
                                       sort_threads, backend_));
  });
}

ShardedBidTable ShardedBidTable::restore(std::span<const std::uint8_t> image,
                                         std::vector<std::uint32_t> shard_of,
                                         std::size_t num_shards,
                                         std::size_t num_threads,
                                         obs::MetricsRegistry* metrics,
                                         const crypto::BidBackend* backend,
                                         const obs::Span* parent) {
  EncryptedBidTable global = EncryptedBidTable::decode(image, backend);
  LPPA_PROTOCOL_CHECK(num_shards >= 1, "restored shard count must be >= 1");
  LPPA_PROTOCOL_CHECK(shard_of.size() == global.num_users(),
                      "shard map does not match the bid table image");
  for (const std::uint32_t s : shard_of) {
    LPPA_PROTOCOL_CHECK(s < num_shards,
                        "shard map entry outside the configured shard count");
  }
  ShardedBidTable table(*global.owned_, global.num_channels(),
                        std::move(shard_of), num_shards, num_threads, metrics,
                        global.backend_, parent);
  // Keep the submissions alive: the subset views reference the vector
  // the shared_ptr owns.
  table.owned_ = global.owned_;
  table.submissions_ = table.owned_.get();
  // Re-apply the image's tombstones.  Shard cursors skip them lazily, so
  // the restored table resumes exactly where the snapshotted one left
  // off, whatever shard count either side ran.
  for (std::size_t u = 0; u < table.users_; ++u) {
    for (std::size_t r = 0; r < table.channels_; ++r) {
      if (!global.present_[u * table.channels_ + r]) {
        table.remove(u, r);
      }
    }
  }
  return table;
}

std::vector<std::uint32_t> ShardedBidTable::contiguous_shards(
    std::size_t n, std::size_t num_shards) {
  LPPA_REQUIRE(num_shards >= 1, "shard count must be >= 1");
  std::vector<std::uint32_t> shard_of(n);
  for (std::size_t u = 0; u < n; ++u) {
    shard_of[u] = static_cast<std::uint32_t>(u * num_shards / n);
  }
  return shard_of;
}

std::size_t ShardedBidTable::idx(UserId u, ChannelId r) const {
  LPPA_REQUIRE(u < users_ && r < channels_, "bid table index out of range");
  return u * channels_ + r;
}

bool ShardedBidTable::has(UserId u, ChannelId r) const {
  return present_[idx(u, r)];
}

void ShardedBidTable::remove(UserId u, ChannelId r) {
  const std::size_t k = idx(u, r);
  if (!present_[k]) return;
  present_[k] = false;
  --live_;
  shards_[shard_of_[u]]->remove(local_index_[u], r);
}

void ShardedBidTable::remove_user(UserId u) {
  for (std::size_t r = 0; r < channels_; ++r) {
    remove(u, r);
  }
}

void ShardedBidTable::insert_user(UserId u) {
  LPPA_REQUIRE(u < users_, "bid table index out of range");
  for (std::size_t r = 0; r < channels_; ++r) {
    LPPA_REQUIRE(!present_[u * channels_ + r],
                 "insert_user requires a fully tombstoned slot");
    present_[u * channels_ + r] = true;
  }
  live_ += channels_;
  // u was a member of its shard at construction, so the shard table
  // exists and holds u's (tombstoned) local slot.
  const std::size_t compares =
      shards_[shard_of_[u]]->insert_user(local_index_[u]);
  if (metrics_ != nullptr) {
    metrics_->counter("churn.splice_compares").inc(compares);
  }
}

ShardedBidTable ShardedBidTable::clone() const {
  ShardedBidTable copy;
  copy.submissions_ = submissions_;
  copy.owned_ = owned_;
  copy.backend_ = backend_;
  copy.users_ = users_;
  copy.channels_ = channels_;
  copy.shard_of_ = shard_of_;
  copy.local_index_ = local_index_;
  copy.members_ = members_;
  copy.present_ = present_;
  copy.live_ = live_;
  copy.metrics_ = metrics_;
  copy.merges_ = merges_;
  copy.shards_.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s] != nullptr) {
      copy.shards_[s] = std::make_unique<EncryptedBidTable>(*shards_[s]);
    }
  }
  return copy;
}

std::optional<auction::UserId> ShardedBidTable::argmax_in_column(
    ChannelId r) const {
  LPPA_REQUIRE(r < channels_, "bid table index out of range");
  std::optional<UserId> best;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s] == nullptr) continue;
    const auto local = shards_[s]->argmax_in_column(r);
    if (!local) continue;
    const UserId g = members_[s][*local];
    if (!best) {
      best = g;
      continue;
    }
    const auto& challenger = (*submissions_)[g].channels[r];
    const auto& incumbent = (*submissions_)[*best].channels[r];
    const bool challenger_ge = backend_->ge(challenger, incumbent);
    // Strictly greater replaces; a masked tie keeps the lower GLOBAL id
    // (global ids interleave across shards, so the explicit comparison —
    // not the visit order — carries the tie-break).  The result is the
    // highest-value live entry with the lowest id among equals: exactly
    // the winner of one stable-sorted column over every user.
    if (challenger_ge && !backend_->ge(incumbent, challenger)) {
      best = g;
    } else if (challenger_ge && g < *best) {
      best = g;
    }
  }
  if (merges_ != nullptr) merges_->inc();
  return best;
}

std::size_t ShardedBidTable::order_tests() const noexcept {
  std::size_t tests = 0;
  for (const auto& shard : shards_) {
    if (shard != nullptr) tests += shard->order_tests();
  }
  return tests;
}

Bytes ShardedBidTable::serialize() const {
  return EncryptedBidTable::serialize_image(*submissions_, channels_, present_,
                                            live_, backend_);
}

}  // namespace lppa::core
