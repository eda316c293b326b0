#include "engine/join_buffer.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rfidcep::engine {

namespace {

constexpr size_t kMinCapacity = 8;

}  // namespace

JoinBuffer::Index JoinBuffer::Append(uint64_t key,
                                     events::EventInstancePtr instance,
                                     TimePoint deadline, Members members) {
  assert(members != 0);
#ifndef NDEBUG
  ++mutations_;
#endif
  size_t s = table_.FindOrClaim(key);
  if (Index tail = table_[s].tail; table_[s].head != kNone) {
    Entry& last = pool_[tail];
    if (last.instance == instance && (last.members & members) == 0) {
      last.members |= members;
      if (deadline > last.deadline) {
        last.deadline = deadline;
        if (deadline != kTimeInfinity) PushExpiry(deadline, key);
      }
      return tail;
    }
  }
  Index index;
  if (free_ != kNone) {
    index = free_;
    free_ = pool_[index].next;
  } else {
    assert(pool_.size() < kNone);
    if (pool_.size() == pool_.capacity()) {
      pool_.reserve(std::max(kMinCapacity, 2 * pool_.capacity()));
    }
    index = static_cast<Index>(pool_.size());
    pool_.emplace_back();
  }
  Entry& entry = pool_[index];
  entry.instance = std::move(instance);
  entry.deadline = deadline;
  entry.key = key;
  entry.members = members;
  entry.next = kNone;
  common::ChainTable::Slot& slot = table_[s];
  if (slot.head == kNone) {
    slot.head = index;
    entry.prev = kNone;
  } else {
    entry.prev = slot.tail;
    pool_[slot.tail].next = index;
  }
  slot.tail = index;
  ++size_;
  if (deadline != kTimeInfinity) PushExpiry(deadline, key);
  return index;
}

void JoinBuffer::ReleaseAll(Members members) {
  for (Index i = 0; i < pool_.size(); ++i) {
    if (pool_[i].instance != nullptr && (pool_[i].members & members) != 0) {
      Release(i, members);
    }
  }
}

void JoinBuffer::Remove(Index index) {
  Entry& entry = pool_[index];
  table_.Unlink(entry.key, entry.prev, entry.next);
  if (entry.prev != kNone) pool_[entry.prev].next = entry.next;
  if (entry.next != kNone) pool_[entry.next].prev = entry.prev;
  Free(index);
}

JoinBuffer::Index JoinBuffer::Head(uint64_t key) const {
  size_t s = table_.Find(key);
  return s == kNoSlot ? kNone : table_[s].head;
}

JoinBuffer::Index JoinBuffer::PruneFront(uint64_t key, TimePoint clock) {
  size_t s = table_.Find(key);
  return s == kNoSlot ? kNone : PruneSlot(s, clock);
}

void JoinBuffer::PruneAllFronts(TimePoint clock) {
  // Erasing a slot shifts later members of its cluster back into it, so
  // re-examine the same slot until it holds a surviving chain. A shift
  // only moves a slot toward the start of its cluster, so no chain is
  // skipped; one wrapped around from the table's start may be pruned
  // twice, which is a no-op.
  for (size_t s = 0; s < table_.capacity(); ++s) {
    while (table_[s].head != kNone && PruneSlot(s, clock) == kNone) continue;
  }
}

void JoinBuffer::Drain(TimePoint clock) {
  while (ring_size_ > 0 && ring_[ring_head_].deadline < clock) {
    uint64_t key = ring_[ring_head_].key;
    ring_head_ = (ring_head_ + 1) & static_cast<uint32_t>(ring_.size() - 1);
    --ring_size_;
    PruneFront(key, clock);
  }
}

JoinBuffer::Index JoinBuffer::PruneSlot(size_t s, TimePoint clock) {
  common::ChainTable::Slot& slot = table_[s];
  Index head = slot.head;
  while (head != kNone && pool_[head].deadline < clock) {
    Index next = pool_[head].next;
    Free(head);
    head = next;
  }
  if (head == kNone) {
    table_.Erase(s);
    return kNone;
  }
  pool_[head].prev = kNone;
  slot.head = head;
  return head;
}

void JoinBuffer::Free(Index index) {
  Entry& entry = pool_[index];
  entry.instance.reset();
  entry.members = 0;
  entry.prev = kNone;
  entry.next = free_;
  free_ = index;
  --size_;
}

void JoinBuffer::PushExpiry(TimePoint deadline, uint64_t key) {
  if (ring_size_ == ring_.size()) {
    std::vector<Expiry> grown(std::max(kMinCapacity, 2 * ring_.size()));
    for (uint32_t i = 0; i < ring_size_; ++i) {
      grown[i] = ring_[(ring_head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(grown);
    ring_head_ = 0;
  }
  size_t mask = ring_.size() - 1;
  ring_[(ring_head_ + ring_size_) & mask] = Expiry{deadline, key};
  ++ring_size_;
}

}  // namespace rfidcep::engine
