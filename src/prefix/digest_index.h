// DigestIndex: an inverted index from hashed-prefix digests to the
// submissions that contain them.
//
// The PMV trick (SafeQ, the paper's [11]) makes range membership a set
// intersection over keyed digests — which means the auctioneer's
// all-pairs conflict scan is really a join on digest equality.  Instead
// of merge-intersecting every (family, range) pair (O(n²·w) digest
// comparisons), the conflict build indexes every range digest once per
// axis and probes each family digest against the matching axis: O(n·w)
// expected work, with no digest merge left per candidate pair
// (core/conflict_index.h joins the two axes' hit lists).  Padding
// digests (uniform random 32-byte strings) sit harmlessly in the index
// — they equal a real family digest with probability 2⁻²⁵⁶, and because
// both the pairwise and the indexed path compare the very same digest
// multisets, the two paths produce *identical* graphs, not merely equal
// with high probability.
//
// The table is a flat open-addressing hash map (linear probing).  HMAC
// outputs are uniform, so the first eight bytes (Digest::fingerprint)
// are already a perfect hash seed: its low bits pick the home slot and
// its high 32 bits are the slot's tag.  A slot is 8 bytes, {tag, key}:
// the tag and the position of the slot's key in a dense array that
// holds, per occupied slot, the 32-byte digest and the head of its owner
// chain beside it — so the half-empty slot array costs 8 bytes per free
// slot, and a probe reads a key only when the tag matches.  Most probes
// of a conflict build miss (about three in four on city worlds), and a
// miss never touches the key array.
//
// The tag does not weaken the constant-time contract.  It only filters
// candidates: every match is still confirmed by ct_equal on all 32
// bytes, so no answer rests on the tag, and a tag mismatch skips only a
// slot whose digest differs anyway.  What the timing of the tag check
// can reveal is that a probed digest is (or is not) in the index — which
// the join's output, the partner list, reveals anyway.
//
// Owners of one digest form a chain through a side array.  build() lays
// each digest's chain out as one contiguous run of that array (a count
// pass, then a place pass), so a hit walks adjacent entries instead of
// scattered ones.  insert() and erase() keep working on a built index —
// a new owner is prepended, an erased one unlinked — so the conflict
// build and churn maintenance (core::ChurnState) share this one type.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/sha256.h"
#include "prefix/hashed_set.h"

namespace lppa::prefix {

class DigestIndex {
 public:
  DigestIndex() = default;

  /// Pre-sizes the table for `expected` insertions (load factor 0.5).
  void reserve(std::size_t expected);

  /// Bulk build: replaces the contents with every digest of `sets[j]`
  /// for owner j — the same (digest, owner) multiset as insert_all of
  /// each set in turn on an empty index, sized as reserve(Σ sizes)
  /// would size it — and lays each digest's owners out as one
  /// contiguous run, ascending by owner.
  void build(std::span<const HashedPrefixSet* const> sets);

  /// Records that `owner`'s set contains digest `d`.
  void insert(const crypto::Digest& d, std::uint32_t owner);

  /// Inserts every digest of `set` for `owner`.
  void insert_all(const HashedPrefixSet& set, std::uint32_t owner);

  /// Removes ONE (d, owner) pair previously recorded by insert — the
  /// churn-maintenance inverse of insert, symmetric call-for-call so
  /// erase_all(set, u) exactly undoes insert_all(set, u) even when `set`
  /// contains duplicate digests.  The freed entry is recycled by later
  /// insertions.  Returns false when no such pair is present.
  bool erase(const crypto::Digest& d, std::uint32_t owner);

  /// Erases every digest of `set` for `owner`; returns how many pairs
  /// were actually removed.
  std::size_t erase_all(const HashedPrefixSet& set, std::uint32_t owner);

  /// Appends to `out` every owner recorded for digest `d` (possibly with
  /// duplicates if an owner inserted the digest twice).  Returns the
  /// number of owners appended.
  std::size_t collect(const crypto::Digest& d,
                      std::vector<std::uint32_t>& out) const;

  /// Number of distinct digests in the table.  Digests whose last owner
  /// was erased still count until the next rehash compacts them away.
  std::size_t distinct_digests() const noexcept { return keys_.size(); }

  /// Live (digest, owner) pairs: insertions minus erasures.
  std::size_t entry_count() const noexcept { return live_entries_; }

  /// Current slot-array capacity (always a power of two once non-empty).
  /// reserve(expected) guarantees that up to `expected` subsequent
  /// insertions never rehash, i.e. slot_capacity() stays constant.
  std::size_t slot_capacity() const noexcept { return slots_.size(); }

  /// Bytes held by the slot array, the key array and the owner chains —
  /// the conflict.index_bytes figure of the conflict build.
  std::size_t memory_bytes() const noexcept {
    return slots_.size() * sizeof(Slot) + keys_.capacity() * sizeof(Key) +
           entries_.capacity() * sizeof(Entry);
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Slot {
    std::uint32_t tag = 0;      ///< high 32 bits of the key's fingerprint
    std::uint32_t key = kNil;   ///< index into keys_, kNil = empty
  };
  /// One per occupied slot.  A key whose whole owner chain was erased
  /// (head == kNil) stays (so linear-probe chains that stepped over its
  /// slot remain intact) until a rehash compacts it away or an insert of
  /// the same digest revives it.
  struct Key {
    crypto::Digest digest;
    std::uint32_t head = kNil;  ///< chain head into entries_
  };
  struct Entry {
    std::uint32_t owner;
    std::uint32_t next;  ///< next entry for the same digest, kNil = end
  };

  static std::uint32_t tag_of(std::uint64_t fingerprint) noexcept {
    return static_cast<std::uint32_t>(fingerprint >> 32);
  }

  void rehash_to(std::size_t capacity);
  std::size_t find_slot(const crypto::Digest& d) const noexcept;

  std::vector<Slot> slots_;     // capacity is always a power of two
  std::vector<Key> keys_;       // one per occupied slot (incl. dead)
  std::vector<Entry> entries_;  // owner chains
  std::size_t dead_slots_ = 0;  // keys with an empty chain
  std::size_t live_entries_ = 0;   // entries not on the free list
  std::uint32_t free_head_ = kNil;  // recycled entries_ indices
};

}  // namespace lppa::prefix
