#include "prefix/digest_index.h"

#include <algorithm>

namespace lppa::prefix {

namespace {

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 16;
  while (p < v) p <<= 1;
  return p;
}

/// Slot capacity for `expected` digests at load factor 0.5.
std::size_t capacity_for(std::size_t expected) {
  return next_pow2(expected * 2 + 1);
}

}  // namespace

void DigestIndex::reserve(std::size_t expected) {
  entries_.reserve(expected);
  if (slots_.size() < capacity_for(expected)) {
    rehash_to(capacity_for(expected));
  }
  keys_.reserve(expected);
}

std::size_t DigestIndex::find_slot(const crypto::Digest& d) const noexcept {
  // Probe confirmation goes through ct_equal for the same reason as
  // HashedPrefixSet::intersects: a short-circuiting key comparison would
  // leak the matched byte count of an HMAC'd digest through timing.  The
  // tag only decides whether the key is worth reading (see the header).
  // Dead keys are still *occupied* for probing purposes: freeing their
  // slots in place would sever the probe chains of digests inserted
  // after them, so they persist until rehash_to drops them.
  const std::uint64_t fp = d.fingerprint();
  const std::uint32_t tag = tag_of(fp);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(fp) & mask;
  while (slots_[i].key != kNil &&
         !(slots_[i].tag == tag && ct_equal(keys_[slots_[i].key].digest, d))) {
    i = (i + 1) & mask;
  }
  return i;
}

void DigestIndex::rehash_to(std::size_t capacity) {
  // Drop the dead keys (in place, keeping key order and capacity), then
  // re-place the survivors.  Surviving keys are distinct, so the first
  // free slot is theirs.
  std::erase_if(keys_, [](const Key& k) { return k.head == kNil; });
  dead_slots_ = 0;
  slots_.assign(capacity, Slot{});
  const std::size_t mask = capacity - 1;
  for (std::uint32_t k = 0; k < keys_.size(); ++k) {
    const std::uint64_t fp = keys_[k].digest.fingerprint();
    std::size_t i = static_cast<std::size_t>(fp) & mask;
    while (slots_[i].key != kNil) i = (i + 1) & mask;
    slots_[i] = Slot{tag_of(fp), k};
  }
}

void DigestIndex::build(std::span<const HashedPrefixSet* const> sets) {
  std::size_t total = 0;
  for (const HashedPrefixSet* set : sets) total += set->size();
  slots_.clear();
  keys_.clear();
  entries_.clear();
  free_head_ = kNil;
  reserve(total);

  // Count pass: find or open each digest's key, count its occurrences in
  // the key's head field, and remember which key each occurrence hit.
  std::vector<std::uint32_t> key_of;
  key_of.reserve(total);
  for (const HashedPrefixSet* set : sets) {
    for (const crypto::Digest& d : set->digests()) {
      Slot& slot = slots_[find_slot(d)];
      if (slot.key == kNil) {
        slot = Slot{tag_of(d.fingerprint()),
                    static_cast<std::uint32_t>(keys_.size())};
        keys_.push_back(Key{d, 0});
      }
      ++keys_[slot.key].head;
      key_of.push_back(slot.key);
    }
  }
  // Runs in key order: head = one past the end of the key's run, so the
  // place pass can fill each run back to front.
  std::uint32_t end = 0;
  for (Key& k : keys_) {
    end += k.head;
    k.head = end;
  }
  // Place pass, owners descending and each run filled back to front: a
  // run ends up ascending by owner with its head at the run's start.
  // Every entry links to its right neighbour; the last of a run is
  // terminated below.
  entries_.resize(total);
  std::size_t occurrence = total;
  for (std::size_t j = sets.size(); j-- > 0;) {
    for (std::size_t n = sets[j]->size(); n-- > 0;) {
      const std::uint32_t e = --keys_[key_of[--occurrence]].head;
      entries_[e] = Entry{static_cast<std::uint32_t>(j), e + 1};
    }
  }
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    const std::uint32_t run_end =
        k + 1 < keys_.size() ? keys_[k + 1].head
                             : static_cast<std::uint32_t>(total);
    entries_[run_end - 1].next = kNil;
  }
  live_entries_ = total;
}

void DigestIndex::insert(const crypto::Digest& d, std::uint32_t owner) {
  if (slots_.empty() || (keys_.size() + 1) * 2 > slots_.size()) {
    // Rehash drops dead keys, so under churn the table only doubles when
    // the *live* digest population actually outgrew it.
    const std::size_t live = keys_.size() - dead_slots_;
    rehash_to(std::max(slots_.size(), capacity_for(live + 1)));
  }
  Slot& slot = slots_[find_slot(d)];
  if (slot.key == kNil) {
    slot = Slot{tag_of(d.fingerprint()),
                static_cast<std::uint32_t>(keys_.size())};
    keys_.push_back(Key{d, kNil});
  } else if (keys_[slot.key].head == kNil) {
    --dead_slots_;  // revived
  }
  Key& key = keys_[slot.key];
  // Prepend to the owner chain (order is irrelevant: probers dedupe),
  // recycling an erased entry when one is available.
  std::uint32_t e;
  if (free_head_ != kNil) {
    e = free_head_;
    free_head_ = entries_[e].next;
    entries_[e] = Entry{owner, key.head};
  } else {
    entries_.push_back(Entry{owner, key.head});
    e = static_cast<std::uint32_t>(entries_.size() - 1);
  }
  key.head = e;
  ++live_entries_;
}

void DigestIndex::insert_all(const HashedPrefixSet& set, std::uint32_t owner) {
  for (const auto& d : set.digests()) insert(d, owner);
}

bool DigestIndex::erase(const crypto::Digest& d, std::uint32_t owner) {
  if (slots_.empty()) return false;
  const Slot& slot = slots_[find_slot(d)];
  if (slot.key == kNil) return false;
  Key& key = keys_[slot.key];
  std::uint32_t* link = &key.head;
  while (*link != kNil) {
    Entry& e = entries_[*link];
    if (e.owner == owner) {
      const std::uint32_t freed = *link;
      *link = e.next;
      e.owner = kNil;  // poison: a freed entry must never report an owner
      e.next = free_head_;
      free_head_ = freed;
      --live_entries_;
      if (key.head == kNil) ++dead_slots_;
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
  if (slot.key == kNil) return 0;
  std::size_t appended = 0;
  for (std::uint32_t e = keys_[slot.key].head; e != kNil;
       e = entries_[e].next) {
    out.push_back(entries_[e].owner);
    ++appended;
  }
  return appended;
}

}  // namespace lppa::prefix
