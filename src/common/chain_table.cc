#include "common/chain_table.h"

#include <algorithm>
#include <utility>

namespace rfidcep::common {

namespace {

constexpr size_t kMinCapacity = 8;

}  // namespace

size_t ChainTable::FindOrClaim(uint64_t key) {
  if (2 * (static_cast<size_t>(used_) + 1) > slots_.size()) {
    if (size_t s = Find(key); s != kNoSlot) return s;
    Grow();
  }
  const size_t mask = slots_.size() - 1;
  for (size_t s = HomeSlot(key, slots_.size());; s = (s + 1) & mask) {
    Slot& slot = slots_[s];
    if (slot.head == kNone) {
      slot.key = key;
      ++used_;
      return s;
    }
    if (slot.key == key) return s;
  }
}

void ChainTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max(kMinCapacity, 2 * old.size()), Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.head == kNone) continue;
    size_t s = HomeSlot(slot.key, slots_.size());
    while (slots_[s].head != kNone) s = (s + 1) & mask;
    slots_[s] = slot;
  }
}

void ChainTable::Erase(size_t s) {
  const size_t mask = slots_.size() - 1;
  size_t hole = s;
  for (size_t next = (s + 1) & mask; slots_[next].head != kNone;
       next = (next + 1) & mask) {
    // A slot may move back into the hole only if its home is not inside
    // (hole, next]: otherwise its probe would start past the hole.
    const size_t home = HomeSlot(slots_[next].key, slots_.size());
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole] = Slot{};
  --used_;
}

}  // namespace rfidcep::common
