// Key-to-chain table: an open-addressing hash table from a 64-bit key to
// the head and tail of that key's chain, a doubly linked list whose links
// live in the owner's own array. engine::JoinBuffer chains join-buffer
// entries by join key; store::Table chains row slots by an indexed
// column's Value::HashSql.
//
// Slots are 16 bytes ({key, head, tail}) probed linearly from the key's
// Fibonacci home slot. The table doubles when a claim would make it more
// than half full, so every probe reaches an empty slot, and erasing
// shifts the rest of the probe cluster back instead of leaving a
// tombstone. A default-constructed table allocates nothing.

#ifndef RFIDCEP_COMMON_CHAIN_TABLE_H_
#define RFIDCEP_COMMON_CHAIN_TABLE_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/hash.h"

namespace rfidcep::common {

class ChainTable {
 public:
  // Position of a chain element in the owner's array.
  using Index = uint32_t;
  static constexpr Index kNone = std::numeric_limits<Index>::max();
  static constexpr size_t kNoSlot = std::numeric_limits<size_t>::max();

  struct Slot {
    uint64_t key = 0;
    Index head = kNone;  // kNone: the slot is empty.
    Index tail = kNone;
  };

  // First probe position of `key` in a table of `capacity` slots (a power
  // of two): the top bits of key * 2^64/phi. Keys that share it at some
  // capacity share it at every smaller one.
  static size_t HomeSlot(uint64_t key, size_t capacity) {
    assert(std::has_single_bit(capacity));
    const int bits = std::countr_zero(capacity);
    return bits == 0 ? 0
                     : static_cast<size_t>((key * kGoldenGamma) >> (64 - bits));
  }

  // The slot holding `key`'s chain, or kNoSlot.
  size_t Find(uint64_t key) const {
    if (slots_.empty()) return kNoSlot;
    const size_t mask = slots_.size() - 1;
    for (size_t s = HomeSlot(key, slots_.size());; s = (s + 1) & mask) {
      const Slot& slot = slots_[s];
      if (slot.head == kNone) return kNoSlot;
      if (slot.key == key) return s;
    }
  }

  // The slot holding `key`'s chain. When the key has none, claims an
  // empty slot for it (head kNone, counted in size()), which the caller
  // fills before its next call on the table. May grow the table, which
  // moves slots.
  size_t FindOrClaim(uint64_t key);

  // Empties slot `s` and shifts the rest of its probe cluster back.
  void Erase(size_t s);

  // Takes an element whose chain neighbours are `prev` and `next` off
  // `key`'s chain ends: a head or tail moves past it, and the slot is
  // erased when the chain is left empty. The owner relinks the
  // neighbours.
  void Unlink(uint64_t key, Index prev, Index next) {
    if (prev != kNone && next != kNone) return;
    const size_t s = Find(key);
    assert(s != kNoSlot);
    Slot& slot = slots_[s];
    if (prev == kNone) slot.head = next;
    if (next == kNone) slot.tail = prev;
    if (slot.head == kNone) Erase(s);
  }

  // Drops every chain and the slot array.
  void Clear() {
    slots_.clear();
    used_ = 0;
  }

  Slot& operator[](size_t s) { return slots_[s]; }
  const Slot& operator[](size_t s) const { return slots_[s]; }

  // Slot count: 0, or a power of two.
  size_t capacity() const { return slots_.size(); }
  // Occupied slots.
  size_t size() const { return used_; }

 private:
  void Grow();

  std::vector<Slot> slots_;
  uint32_t used_ = 0;
};

}  // namespace rfidcep::common

#endif  // RFIDCEP_COMMON_CHAIN_TABLE_H_
