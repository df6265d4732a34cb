#include "prefix/digest_index.h"

#include <algorithm>

namespace lppa::prefix {

namespace {

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 16;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

void DigestIndex::reserve(std::size_t expected) {
  entries_.reserve(expected);
  grow(next_pow2(expected * 2 + 1));
  // After grow: a rehash rebuilds keys_ at its old capacity.
  keys_.reserve(expected);
}

std::size_t DigestIndex::find_slot(const crypto::Digest& d) const noexcept {
  // Probe confirmation goes through ct_equal for the same reason as
  // HashedPrefixSet::intersects: a short-circuiting key comparison would
  // leak the matched byte count of an HMAC'd digest through timing.
  // kDeadChain slots are still *occupied* for probing purposes: freeing
  // them in place would sever the probe chains of digests inserted after
  // them, so they persist until rehash_to drops them.
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(d.fingerprint()) & mask;
  while (slots_[i].head != kNil &&
         !ct_equal(keys_[slots_[i].key].bytes, d.bytes)) {
    i = (i + 1) & mask;
  }
  return i;
}

void DigestIndex::rehash_to(std::size_t capacity) {
  const std::vector<Slot> old = std::move(slots_);
  const std::vector<crypto::Digest> old_keys = std::move(keys_);
  slots_.assign(capacity, Slot{});
  keys_ = std::vector<crypto::Digest>();
  keys_.reserve(old_keys.capacity());
  dead_slots_ = 0;
  const std::size_t mask = capacity - 1;
  for (const Slot& s : old) {
    if (s.head >= kDeadChain) continue;  // empty or fully-erased: drop
    // Surviving keys are distinct, so the first free slot is theirs.
    const crypto::Digest& key = old_keys[s.key];
    std::size_t i = static_cast<std::size_t>(key.fingerprint()) & mask;
    while (slots_[i].head != kNil) i = (i + 1) & mask;
    slots_[i] = Slot{s.head, static_cast<std::uint32_t>(keys_.size())};
    keys_.push_back(key);
  }
}

void DigestIndex::grow(std::size_t min_capacity) {
  if (slots_.size() >= min_capacity) return;
  rehash_to(min_capacity);
}

void DigestIndex::insert(const crypto::Digest& d, std::uint32_t owner) {
  if (slots_.empty() || (keys_.size() + 1) * 2 > slots_.size()) {
    // Rehash drops fully-erased slots, so under churn the table only
    // doubles when the *live* digest population actually outgrew it.
    const std::size_t live = keys_.size() - dead_slots_;
    rehash_to(std::max(slots_.size(), next_pow2((live + 1) * 2 + 1)));
  }
  const std::size_t i = find_slot(d);
  Slot& slot = slots_[i];
  const bool fresh = slot.head == kNil;
  const bool revived = slot.head == kDeadChain;
  if (fresh) {
    slot.key = static_cast<std::uint32_t>(keys_.size());
    keys_.push_back(d);
  }
  if (revived) --dead_slots_;
  // Prepend to the owner chain (order is irrelevant: probers dedupe),
  // recycling an erased entry when one is available.
  const std::uint32_t next = (fresh || revived) ? kNil : slot.head;
  std::uint32_t e;
  if (free_head_ != kNil) {
    e = free_head_;
    free_head_ = entries_[e].next;
    entries_[e] = Entry{owner, next};
  } else {
    entries_.push_back(Entry{owner, next});
    e = static_cast<std::uint32_t>(entries_.size() - 1);
  }
  slot.head = e;
  ++live_entries_;
}

void DigestIndex::insert_all(const HashedPrefixSet& set, std::uint32_t owner) {
  for (const auto& d : set.digests()) insert(d, owner);
}

bool DigestIndex::erase(const crypto::Digest& d, std::uint32_t owner) {
  if (slots_.empty()) return false;
  Slot& slot = slots_[find_slot(d)];
  if (slot.head >= kDeadChain) return false;
  std::uint32_t* link = &slot.head;
  while (*link != kNil) {
    Entry& e = entries_[*link];
    if (e.owner == owner) {
      const std::uint32_t freed = *link;
      *link = e.next;
      e.owner = kNil;  // poison: a freed entry must never report an owner
      e.next = free_head_;
      free_head_ = freed;
      --live_entries_;
      if (slot.head == kNil) {
        slot.head = kDeadChain;
        ++dead_slots_;
      }
      return true;
    }
    link = &e.next;
  }
  return false;
}

std::size_t DigestIndex::erase_all(const HashedPrefixSet& set,
                                   std::uint32_t owner) {
  std::size_t erased = 0;
  for (const auto& d : set.digests()) {
    if (erase(d, owner)) ++erased;
  }
  return erased;
}

std::size_t DigestIndex::collect(const crypto::Digest& d,
                                 std::vector<std::uint32_t>& out) const {
  if (slots_.empty()) return 0;
  const Slot& slot = slots_[find_slot(d)];
  if (slot.head >= kDeadChain) return 0;
  std::size_t appended = 0;
  for (std::uint32_t e = slot.head; e != kNil; e = entries_[e].next) {
    out.push_back(entries_[e].owner);
    ++appended;
  }
  return appended;
}

}  // namespace lppa::prefix
