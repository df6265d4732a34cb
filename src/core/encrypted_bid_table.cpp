#include "core/encrypted_bid_table.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace lppa::core {

namespace {

/// Bottom-up stable merge sort over user ids.  Deliberately hand-rolled
/// instead of std::stable_sort: the comparator runs masked membership
/// tests over UNTRUSTED digests, and a Byzantine submission can make the
/// induced relation inconsistent (not a strict weak ordering).  Feeding
/// that to std::stable_sort is undefined behaviour; a plain merge
/// consumes each element exactly once whatever the comparator answers,
/// so the worst an adversary buys is a scrambled order for the column
/// their forged digests live in — never UB on the auctioneer.
template <typename Greater>
void stable_merge_sort(std::vector<std::uint32_t>& items,
                       const Greater& greater) {
  const std::size_t n = items.size();
  if (n < 2) return;
  std::vector<std::uint32_t> buf(n);
  for (std::size_t width = 1; width < n; width *= 2) {
    for (std::size_t lo = 0; lo + width < n; lo += 2 * width) {
      const std::size_t mid = lo + width;
      const std::size_t hi = std::min(n, mid + width);
      std::size_t a = lo, b = mid, o = lo;
      while (a < mid && b < hi) {
        // The right run overtakes only when strictly greater, which keeps
        // the sort stable: equal masked bids stay in increasing-id order.
        buf[o++] = greater(items[b], items[a]) ? items[b++] : items[a++];
      }
      while (a < mid) buf[o++] = items[a++];
      while (b < hi) buf[o++] = items[b++];
      std::copy(buf.begin() + static_cast<std::ptrdiff_t>(lo),
                buf.begin() + static_cast<std::ptrdiff_t>(hi),
                items.begin() + static_cast<std::ptrdiff_t>(lo));
    }
  }
}

}  // namespace

EncryptedBidTable::EncryptedBidTable(
    const std::vector<BidSubmission>& submissions, std::size_t num_channels,
    ArgmaxStrategy strategy, std::size_t sort_threads,
    const crypto::BidBackend* backend)
    : submissions_(&submissions),
      users_(submissions.size()),
      channels_(num_channels),
      backend_(&crypto::resolve_backend(backend)),
      strategy_(strategy) {
  LPPA_REQUIRE(users_ > 0, "EncryptedBidTable requires at least one user");
  LPPA_REQUIRE(channels_ > 0, "EncryptedBidTable requires at least one channel");
  for (const auto& s : submissions) {
    LPPA_REQUIRE(s.channels.size() == channels_,
                 "every submission must cover every channel");
  }
  present_.assign(users_ * channels_, true);
  live_ = users_ * channels_;
  if (strategy_ == ArgmaxStrategy::kSortedColumns) {
    build_column_orders(sort_threads);
  }
}

EncryptedBidTable EncryptedBidTable::subset_view(
    const std::vector<BidSubmission>& all, std::size_t num_channels,
    std::vector<std::uint32_t> members, ArgmaxStrategy strategy,
    std::size_t sort_threads, const crypto::BidBackend* backend) {
  EncryptedBidTable t;
  t.submissions_ = &all;
  t.members_ = std::move(members);
  t.users_ = t.members_.size();
  t.channels_ = num_channels;
  t.backend_ = &crypto::resolve_backend(backend);
  t.strategy_ = strategy;
  LPPA_REQUIRE(t.users_ > 0, "EncryptedBidTable requires at least one user");
  LPPA_REQUIRE(t.channels_ > 0,
               "EncryptedBidTable requires at least one channel");
  for (const std::uint32_t id : t.members_) {
    LPPA_REQUIRE(id < all.size(), "subset member id out of range");
    LPPA_REQUIRE(all[id].channels.size() == t.channels_,
                 "every submission must cover every channel");
  }
  t.present_.assign(t.users_ * t.channels_, true);
  t.live_ = t.users_ * t.channels_;
  if (strategy == ArgmaxStrategy::kSortedColumns) {
    t.build_column_orders(sort_threads);
  }
  return t;
}

void EncryptedBidTable::build_column_orders(std::size_t sort_threads) {
  order_.assign(channels_, {});
  head_.assign(channels_, 0);
  // Columns are fully independent, so the per-column sorts parallelise
  // with no shared mutable state and a thread-count-independent result.
  parallel_for(channels_, sort_threads, [&](std::size_t r) {
    auto& ord = order_[r];
    ord.resize(users_);
    for (std::size_t u = 0; u < users_; ++u) {
      ord[u] = static_cast<std::uint32_t>(u);
    }
    stable_merge_sort(ord, [&](std::uint32_t u, std::uint32_t v) {
      // u strictly greater than v in the masked order:  NOT (v >= u).
      return !backend_->ge(sub(v).channels[r], sub(u).channels[r]);
    });
  });
}

std::size_t EncryptedBidTable::idx(UserId u, ChannelId r) const {
  LPPA_REQUIRE(u < users_ && r < channels_, "bid table index out of range");
  return u * channels_ + r;
}

bool EncryptedBidTable::has(UserId u, ChannelId r) const {
  return present_[idx(u, r)];
}

void EncryptedBidTable::remove(UserId u, ChannelId r) {
  const std::size_t k = idx(u, r);
  if (present_[k]) {
    present_[k] = false;
    --live_;
  }
}

void EncryptedBidTable::remove_user(UserId u) {
  for (std::size_t r = 0; r < channels_; ++r) {
    const std::size_t k = idx(u, r);
    if (present_[k]) {
      present_[k] = false;
      --live_;
    }
  }
}

std::size_t EncryptedBidTable::insert_user(UserId u) {
  LPPA_REQUIRE(u < users_, "bid table index out of range");
  for (std::size_t r = 0; r < channels_; ++r) {
    LPPA_REQUIRE(!present_[u * channels_ + r],
                 "insert_user requires a fully tombstoned slot");
  }
  for (std::size_t r = 0; r < channels_; ++r) {
    present_[u * channels_ + r] = true;
  }
  live_ += channels_;
  if (strategy_ != ArgmaxStrategy::kSortedColumns) return 0;
  const auto uid = static_cast<std::uint32_t>(u);
  std::size_t compares = 0;
  for (std::size_t r = 0; r < channels_; ++r) {
    auto& ord = order_[r];
    std::size_t& h = head_[r];
    // Drop u's stale position first — the submission bytes behind the
    // slot were replaced, so the old rank means nothing.  Erasing a
    // (tombstoned) entry before the cursor shifts the cursor with it.
    const auto stale = std::find(ord.begin(), ord.end(), uid);
    LPPA_REQUIRE(stale != ord.end(), "column order lost a user id");
    if (static_cast<std::size_t>(stale - ord.begin()) < h) --h;
    ord.erase(stale);
    // Canonical position: descending masked bid, ties in increasing id —
    // exactly where the stable merge sort of a full rebuild places u.
    // "u goes before v" is monotone along a column the merge sort built
    // (false, then true), so the first such entry is a lower bound found
    // in O(log n) probes of at most two masked tests each.  On a column a
    // Byzantine submission scrambled, the search still lands somewhere in
    // [0, size]: the order stays a permutation of the slot ids.
    const auto& su = sub(u).channels[r];
    const auto goes_before = [&](std::uint32_t v) {
      const auto& sv = sub(v).channels[r];
      ++compares;
      if (!backend_->ge(sv, su)) return true;  // u strictly greater than v
      ++compares;
      return backend_->ge(su, sv) && uid < v;  // masked tie
    };
    std::size_t lo = 0, hi = ord.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (goes_before(ord[mid])) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    ord.insert(ord.begin() + static_cast<std::ptrdiff_t>(lo), uid);
    // Resurrection: a live entry may now sit before the cursor; pull the
    // cursor back so the tombstone-skip memoisation stays sound.
    if (lo < h) h = lo;
  }
  return compares;
}

std::optional<auction::UserId> EncryptedBidTable::argmax_in_column(
    ChannelId r) const {
  return strategy_ == ArgmaxStrategy::kSortedColumns ? argmax_sorted(r)
                                                     : argmax_scan(r);
}

std::optional<auction::UserId> EncryptedBidTable::argmax_sorted(
    ChannelId r) const {
  LPPA_REQUIRE(r < channels_, "bid table index out of range");
  const auto& ord = order_[r];
  std::size_t& h = head_[r];
  // Skip tombstones.  The only resurrection path (insert_user) pulls the
  // cursor back over the revived entry, so the skip is sound memoisation;
  // total cursor movement over a round is O(n) per column.
  while (h < ord.size() && !present_[ord[h] * channels_ + r]) ++h;
  if (h == ord.size()) return std::nullopt;
  return static_cast<UserId>(ord[h]);
}

std::optional<auction::UserId> EncryptedBidTable::argmax_scan(
    ChannelId r) const {
  std::optional<UserId> best;
  for (std::size_t u = 0; u < users_; ++u) {
    if (!present_[idx(u, r)]) continue;
    if (!best) {
      best = u;
      continue;
    }
    const auto& challenger = sub(u).channels[r];
    const auto& incumbent = sub(*best).channels[r];
    // Strictly-greater test keeps the first-seen user on ties, matching
    // the deterministic tie-break of the plaintext BidMatrix.
    if (!backend_->ge(incumbent, challenger)) best = u;
  }
  return best;
}

bool EncryptedBidTable::empty() const noexcept { return live_ == 0; }

Bytes EncryptedBidTable::serialize() const {
  LPPA_REQUIRE(members_.empty(),
               "subset (shard) tables do not serialize; emit the global image");
  return serialize_image(*submissions_, channels_, present_, live_, backend_);
}

Bytes EncryptedBidTable::serialize_image(
    const std::vector<BidSubmission>& submissions, std::size_t num_channels,
    const std::vector<bool>& present, std::size_t live,
    const crypto::BidBackend* backend) {
  LPPA_REQUIRE(present.size() == submissions.size() * num_channels,
               "presence bitmap does not match the table dimensions");
  const crypto::BidBackend& be = crypto::resolve_backend(backend);
  ByteWriter w;
  // HMAC images stay untagged (the seed format, bit-identical); other
  // backends lead with a magic u32 carrying their id.  The magic's high
  // bit is what restore keys off — a user count never has it set.
  if (be.id() != crypto::BidBackendId::kHmacPrefix) {
    w.u32(crypto::kImageMagic |
          static_cast<std::uint32_t>(static_cast<std::uint8_t>(be.id())));
  }
  w.u32(static_cast<std::uint32_t>(submissions.size()));
  w.u32(static_cast<std::uint32_t>(num_channels));
  for (const auto& s : submissions) {
    w.bytes(s.serialize());
  }
  w.u64(live);
  // Presence bitmap packed 8 cells per byte, row-major like idx().
  Bytes packed((present.size() + 7) / 8, 0);
  for (std::size_t k = 0; k < present.size(); ++k) {
    if (present[k]) packed[k / 8] |= static_cast<std::uint8_t>(1u << (k % 8));
  }
  w.raw(packed);
  return w.take();
}

EncryptedBidTable EncryptedBidTable::deserialize(
    std::span<const std::uint8_t> wire, ArgmaxStrategy strategy,
    std::size_t sort_threads, const crypto::BidBackend* backend) {
  ByteReader r(wire);
  EncryptedBidTable table;
  table.backend_ = &crypto::resolve_backend(backend);
  // Backend tag: legacy (HMAC) images start with the u32 user count,
  // whose high bit is never set; tagged images start with the magic.
  const std::uint32_t first = r.u32();
  crypto::BidBackendId image_backend = crypto::BidBackendId::kHmacPrefix;
  if ((first & 0x80000000u) != 0) {
    LPPA_PROTOCOL_CHECK((first & crypto::kImageMagicMask) ==
                            crypto::kImageMagic,
                        "bid table image has an unrecognised backend tag");
    image_backend =
        static_cast<crypto::BidBackendId>(static_cast<std::uint8_t>(first));
    table.users_ = r.u32();
  } else {
    table.users_ = first;
  }
  LPPA_PROTOCOL_CHECK(
      image_backend == table.backend_->id(),
      std::string("snapshot backend mismatch: image backend id ") +
          std::to_string(static_cast<int>(image_backend)) +
          ", session backend " + table.backend_->name());
  table.channels_ = r.u32();
  LPPA_PROTOCOL_CHECK(table.users_ > 0 && table.channels_ > 0,
                      "bid table image has no users or channels");
  auto submissions = std::make_shared<std::vector<BidSubmission>>();
  submissions->reserve(table.users_);
  for (std::size_t u = 0; u < table.users_; ++u) {
    BidSubmission s = BidSubmission::deserialize(r.bytes());
    LPPA_PROTOCOL_CHECK(s.channels.size() == table.channels_,
                        "bid table image channel count mismatch");
    submissions->push_back(std::move(s));
  }
  const std::uint64_t stored_live = r.u64();
  const std::size_t cells = table.users_ * table.channels_;
  const Bytes packed = r.raw((cells + 7) / 8);
  LPPA_PROTOCOL_CHECK(r.at_end(), "trailing bytes after bid table image");
  table.present_.assign(cells, false);
  std::size_t live = 0;
  for (std::size_t k = 0; k < cells; ++k) {
    if ((packed[k / 8] >> (k % 8)) & 1u) {
      table.present_[k] = true;
      ++live;
    }
  }
  // Unused trailing bits of the last byte must be zero — a flip there
  // would otherwise be silently accepted.
  for (std::size_t b = cells; b < packed.size() * 8; ++b) {
    LPPA_PROTOCOL_CHECK(((packed[b / 8] >> (b % 8)) & 1u) == 0,
                        "bid table image has garbage padding bits");
  }
  // The live counter is what keeps empty() O(1); restoring it wrong
  // would stall or truncate the allocation loop, so cross-check it
  // against the bitmap instead of trusting either side alone.
  LPPA_PROTOCOL_CHECK(stored_live == live,
                      "bid table image live-cell count mismatch");
  table.live_ = live;
  table.owned_ = std::move(submissions);
  table.submissions_ = table.owned_.get();
  // Column orders are a pure function of the submissions, so they are
  // rebuilt rather than shipped: the wire format stays byte-identical to
  // the seed, and a restored table answers argmax exactly like the one
  // that was snapshotted (cursors re-advance past tombstones lazily).
  table.strategy_ = strategy;
  if (strategy == ArgmaxStrategy::kSortedColumns) {
    table.build_column_orders(sort_threads);
  }
  return table;
}

const ChannelBidSubmission& EncryptedBidTable::entry(UserId u,
                                                     ChannelId r) const {
  LPPA_REQUIRE(u < users_ && r < channels_, "bid table index out of range");
  return sub(u).channels[r];
}

}  // namespace lppa::core
