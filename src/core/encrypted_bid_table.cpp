#include "core/encrypted_bid_table.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

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

/// An empty hash bucket; also DigestPositions' answer for an absent digest.
constexpr std::uint32_t kEmpty = 0xffffffffu;

std::span<const std::uint8_t> raw_bytes(
    std::span<const crypto::Digest> s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size_bytes()};
}

/// Folds one 64-bit word into a running hash: the state XOR the word,
/// through splitmix64's bijective finalizer.  Each step mixes fully, so
/// structured words (a list's length, small positions) cannot cancel
/// one another.  Hashes start as fold(kHashSeed, length).  A hash only
/// picks a bucket and every bucket hit is confirmed exactly, so a
/// collision — even a forged one — costs time, never a wrong class.
constexpr std::uint64_t kHashSeed = 0x9e3779b97f4a7c15ull;

std::uint64_t fold(std::uint64_t h, std::uint64_t word) noexcept {
  std::uint64_t x = h ^ word;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Open-addressing slot count for `items` entries at load factor ≤ 0.5.
std::size_t table_capacity(std::size_t items) {
  std::size_t cap = 16;
  while (cap < 2 * items) cap <<= 1;
  return cap;
}

/// Users of one column grouped by a per-user key: users with equal keys
/// share a class id.
struct Classes {
  std::vector<std::uint32_t> of;   ///< user -> class id
  std::vector<std::uint32_t> rep;  ///< class id -> one member
};

/// Groups users 0..users-1 by a hash of their key: user u joins the first
/// class whose key hash equals hash(u) and whose representative r passes
/// same(r, u), else opens a new class with u as its representative.
/// Classes are numbered in order of first appearance.
template <typename Hash, typename Same>
Classes group_by_hash(std::size_t users, const Hash& hash, const Same& same) {
  Classes c;
  c.of.resize(users);
  std::vector<std::uint64_t> class_hash;
  std::vector<std::uint32_t> buckets(table_capacity(users), kEmpty);
  const std::size_t mask = buckets.size() - 1;
  for (std::uint32_t u = 0; u < users; ++u) {
    const std::uint64_t h = hash(u);
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (buckets[i] != kEmpty &&
           !(class_hash[buckets[i]] == h && same(c.rep[buckets[i]], u))) {
      i = (i + 1) & mask;
    }
    if (buckets[i] == kEmpty) {
      buckets[i] = static_cast<std::uint32_t>(c.rep.size());
      c.rep.push_back(u);
      class_hash.push_back(h);
    }
    c.of[u] = buckets[i];
  }
  return c;
}

/// A set of distinct digests with positions 0, 1, … in insertion order,
/// hashed by fingerprint and confirmed with ct_equal on all 32 bytes.
/// A prefix::DigestIndex holding each position as its digest's one owner
/// would answer the same, but its chain walk and output vector made the
/// city world's table build ~20 % slower.
class DigestPositions {
 public:
  explicit DigestPositions(std::size_t expected)
      : buckets_(table_capacity(expected), kEmpty) {
    digests_.reserve(expected);
  }

  /// Adds `d` unless an equal digest is already present.
  void add(const crypto::Digest& d) {
    const std::size_t i = find(d);
    if (buckets_[i] == kEmpty) {
      buckets_[i] = static_cast<std::uint32_t>(digests_.size());
      digests_.push_back(d);
    }
  }

  /// Position of `d`, or kEmpty when absent.
  std::uint32_t position(const crypto::Digest& d) const noexcept {
    return buckets_[find(d)];
  }

 private:
  std::size_t find(const crypto::Digest& d) const noexcept {
    const std::size_t mask = buckets_.size() - 1;
    std::size_t i = static_cast<std::size_t>(d.fingerprint()) & mask;
    while (buckets_[i] != kEmpty && !ct_equal(digests_[buckets_[i]], d)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  std::vector<std::uint32_t> buckets_;
  std::vector<crypto::Digest> digests_;
};

/// Per-user lists in CSR form: user u's list is items[at[u] .. at[u + 1]).
/// Lists are built in user order: push items, then close() the list.
template <typename T>
struct FlatLists {
  std::vector<T> items;
  std::vector<std::uint32_t> at{0};

  explicit FlatLists(std::size_t users) { at.reserve(users + 1); }

  void close() { at.push_back(static_cast<std::uint32_t>(items.size())); }
  std::span<const T> operator[](std::uint32_t u) const {
    return {items.data() + at[u], at[u + 1] - at[u]};
  }
};

/// The HMAC order test is ge(a, b) = F(a) ∩ R(b) ≠ ∅, with F the value
/// family and R the range set.  Let U be the union of the column's
/// families.  Every F(a) ⊆ U, so ge(a, b) = F(a) ∩ (R(b) ∩ U) ≠ ∅: the
/// answer depends on a only through F(a) (its left class) and on b only
/// through R(b) ∩ U (its right class).  ge on one representative per
/// class therefore answers every pair exactly — forged or inconsistent
/// digests included.  Nullopt when g_left · g_right exceeds `max_pairs`,
/// i.e. the classes would save nothing over per-pair tests.
template <typename Cell>
std::optional<std::pair<Classes, Classes>> hmac_column_classes(
    std::size_t users, const Cell& cell, std::uint64_t max_pairs) {
  using Digests = std::span<const crypto::Digest>;
  // One pass reads every cell's two digest spans and hashes the family's
  // fingerprints; the passes below reuse the spans.
  std::vector<Digests> families(users);
  std::vector<Digests> ranges(users);
  std::vector<std::uint64_t> family_hash(users);
  for (std::uint32_t u = 0; u < users; ++u) {
    const ChannelBidSubmission& c = cell(u);
    families[u] = c.value_family.digests();
    ranges[u] = c.range_set.digests();
    std::uint64_t h = fold(kHashSeed, families[u].size());
    for (const auto& d : families[u]) h = fold(h, d.fingerprint());
    family_hash[u] = h;
  }
  // Left classes: users with byte-identical families (the same digests
  // in the same sorted order, so the same set), grouped by the hash and
  // confirmed with ct_equal on every byte.
  Classes left = group_by_hash(
      users, [&](std::uint32_t u) { return family_hash[u]; },
      [&](std::uint32_t a, std::uint32_t b) {
        return ct_equal(raw_bytes(families[a]), raw_bytes(families[b]));
      });
  if (left.rep.size() > max_pairs) return std::nullopt;
  // U: one family per left class covers it.
  std::size_t universe_size = 0;
  for (const std::uint32_t u : left.rep) universe_size += families[u].size();
  DigestPositions universe(universe_size);
  for (const std::uint32_t u : left.rep) {
    for (const auto& d : families[u]) universe.add(d);
  }
  // Right keys: R(u) ∩ U as positions in U, in R's (sorted) digest
  // order, so equal sets give equal position lists; a repeated digest is
  // adjacent in R and its repeated position is dropped.
  FlatLists<std::uint32_t> traces(users);
  for (std::uint32_t u = 0; u < users; ++u) {
    for (const auto& d : ranges[u]) {
      const std::uint32_t pos = universe.position(d);
      if (pos == kEmpty) continue;
      if (traces.items.size() == traces.at.back() ||
          traces.items.back() != pos) {
        traces.items.push_back(pos);
      }
    }
    traces.close();
  }
  Classes right = group_by_hash(
      users,
      [&](std::uint32_t u) {
        std::uint64_t h = fold(kHashSeed, traces[u].size());
        for (const std::uint32_t pos : traces[u]) h = fold(h, pos);
        return h;
      },
      [&](std::uint32_t a, std::uint32_t b) {
        return std::ranges::equal(traces[a], traces[b]);
      });
  if (std::uint64_t{left.rep.size()} * right.rep.size() > max_pairs) {
    return std::nullopt;
  }
  return std::pair{std::move(left), std::move(right)};
}

}  // namespace

EncryptedBidTable::EncryptedBidTable(
    const std::vector<BidSubmission>& submissions, std::size_t num_channels,
    ArgmaxStrategy /*single-valued shim*/, std::size_t sort_threads,
    const crypto::BidBackend* backend)
    : submissions_(&submissions),
      users_(submissions.size()),
      channels_(num_channels),
      backend_(&crypto::resolve_backend(backend)) {
  LPPA_REQUIRE(users_ > 0, "EncryptedBidTable requires at least one user");
  LPPA_REQUIRE(channels_ > 0, "EncryptedBidTable requires at least one channel");
  for (const auto& s : submissions) {
    LPPA_REQUIRE(s.channels.size() == channels_,
                 "every submission must cover every channel");
  }
  present_.assign(users_ * channels_, true);
  live_ = users_ * channels_;
  build_column_orders(sort_threads);
}

void EncryptedBidTable::build_column_orders(std::size_t sort_threads) {
  order_.assign(channels_, {});
  head_.assign(channels_, 0);
  std::vector<std::size_t> tests(channels_, 0);
  // The class memo pays off only while it holds fewer pairs than a
  // per-pair merge sort would test: n·(⌈log₂ n⌉ + 1).
  const std::uint64_t max_pairs =
      std::uint64_t{users_} * (std::bit_width(users_ - 1) + 1);
  const bool hmac = backend_->id() == crypto::BidBackendId::kHmacPrefix;
  // Columns are fully independent, so the per-column sorts parallelise
  // with no shared mutable state and a thread-count-independent result.
  parallel_for(channels_, sort_threads, [&](std::size_t r) {
    auto& ord = order_[r];
    ord.resize(users_);
    std::iota(ord.begin(), ord.end(), 0u);
    const auto cell = [&](std::uint32_t u) -> const ChannelBidSubmission& {
      return (*submissions_)[u].channels[r];
    };
    std::size_t& spent = tests[r];
    const auto classes = hmac && users_ > 1
                             ? hmac_column_classes(users_, cell, max_pairs)
                             : std::nullopt;
    if (!classes) {
      stable_merge_sort(ord, [&](std::uint32_t u, std::uint32_t v) {
        // u strictly greater than v in the masked order:  NOT (v >= u).
        ++spent;
        return !backend_->ge(cell(v), cell(u));
      });
      return;
    }
    // Same comparator, answered per (left class of v, right class of u)
    // and filled lazily: 0 = unasked, 1 = v >= u, 2 = u > v.  The merge
    // sort sees the answers the per-pair test would give, so it produces
    // the same permutation.
    const auto& [left, right] = *classes;
    std::vector<std::uint8_t> memo(left.rep.size() * right.rep.size(), 0);
    stable_merge_sort(ord, [&](std::uint32_t u, std::uint32_t v) {
      std::uint8_t& m = memo[left.of[v] * right.rep.size() + right.of[u]];
      if (m == 0) {
        ++spent;
        m = backend_->ge(cell(left.rep[left.of[v]]),
                         cell(right.rep[right.of[u]]))
                ? 1
                : 2;
      }
      return m == 2;
    });
  });
  order_tests_ = std::accumulate(tests.begin(), tests.end(), std::size_t{0});
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
    const auto& su = (*submissions_)[u].channels[r];
    const auto goes_before = [&](std::uint32_t v) {
      const auto& sv = (*submissions_)[v].channels[r];
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

bool EncryptedBidTable::empty() const noexcept { return live_ == 0; }

Bytes EncryptedBidTable::serialize() const {
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
    std::span<const std::uint8_t> wire, std::size_t sort_threads,
    const crypto::BidBackend* backend) {
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
  // Each user is a length-prefixed BidSubmission: 4 + 4 bytes of
  // prefixes plus at least kMinWireSize per channel.
  r.expect_items(table.users_,
                 8 + table.channels_ * ChannelBidSubmission::kMinWireSize);
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
  table.build_column_orders(sort_threads);
  return table;
}

const ChannelBidSubmission& EncryptedBidTable::entry(UserId u,
                                                     ChannelId r) const {
  LPPA_REQUIRE(u < users_ && r < channels_, "bid table index out of range");
  return (*submissions_)[u].channels[r];
}

}  // namespace lppa::core
