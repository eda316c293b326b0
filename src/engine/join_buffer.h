// Flat join buffer: the per-node instance store behind RCEDA's slot
// buffers and NOT logs (paper §4.4–§4.6).
//
// A binary graph node buffers unconsumed constituent instances until
// chronicle pairing consumes them or their deadline passes; a NOT node
// logs its child's occurrences until they fall out of every window that
// could query them. Both group entries by a 64-bit equality-join key
// (events::ComputeJoinKey) and prune by per-entry deadlines. JoinBuffer
// keeps them in three flat arrays:
//
//   * a pool of entries (instance, deadline, key, member mask, prev/next
//     index) with a free list, so consumed and pruned entries are reused
//     at once and the pool never exceeds the peak number of live entries;
//   * a common::ChainTable mapping a join key to the head and tail of
//     that key's doubly linked chain, which keeps the key's entries in
//     insertion order;
//   * a ring of (deadline, key) expiry records in insertion order, drained
//     lazily as the clock passes each deadline: a drained record prunes
//     the expired front of its key's chain.
//
// One buffer can serve up to 64 members (a window family: graph nodes
// that differ only by their windows, see detector.h). Each entry carries
// the mask of members holding it. Members appending the instance that
// already sits at the tail of its key's chain only set their bits there;
// a member releasing an entry clears its bit, and the entry is freed with
// the last bit. Deadlines are the buffer's own: an entry's deadline is
// the largest one any member appended it with, so expiry never frees an
// entry some member may still see; each member filters by its own
// deadline when it scans.
//
// A default-constructed buffer allocates nothing, and no operation
// allocates per key: once the arrays have grown to the working set,
// appending, consuming and expiring reuse pool slots, table slots and ring
// cells.

#ifndef RFIDCEP_ENGINE_JOIN_BUFFER_H_
#define RFIDCEP_ENGINE_JOIN_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/chain_table.h"
#include "common/time.h"
#include "events/event_instance.h"

namespace rfidcep::engine {

class JoinBuffer {
 public:
  // Pool position of an entry. Stable while the entry is live.
  using Index = common::ChainTable::Index;
  static constexpr Index kNone = common::ChainTable::kNone;
  // One bit per member; a buffer serves at most 64 members.
  using Members = uint64_t;

  struct Entry {
    events::EventInstancePtr instance;  // Null while on the free list.
    TimePoint deadline = 0;
    uint64_t key = 0;
    Members members = 0;  // Members holding the entry; never 0 while live.
    Index prev = kNone;
    Index next = kNone;
  };

  // Live entries.
  size_t size() const { return size_; }

  // Buffers `instance` under `key` for `members`: one or more bits, all
  // appended at once as one entry with one expiry record. When the tail
  // of `key`'s chain already holds `instance` for other members,
  // `members` join that entry and its deadline rises to `deadline` if
  // later; otherwise a new entry is appended at the tail. A finite
  // deadline also queues an expiry record; kTimeInfinity never expires.
  // Returns the entry's index.
  Index Append(uint64_t key, events::EventInstancePtr instance,
               TimePoint deadline, Members members = 1);

  // Clears `members` from entry `index`; frees the entry when no member
  // is left. Returns whether it was freed. Inline up to the free: most
  // releases by a family member only clear its bit.
  bool Release(Index index, Members members) {
#ifndef NDEBUG
    ++mutations_;
#endif
    Entry& entry = pool_[index];
    entry.members &= ~members;
    if (entry.members != 0) return false;
    Remove(index);
    return true;
  }
  // Release(index, members) on every entry holding any of `members`.
  void ReleaseAll(Members members);

  // Unlinks entry `index` from its chain and frees it, whoever holds it.
  void Remove(Index index);

  // Head of `key`'s chain, or kNone.
  Index Head(uint64_t key) const;
  // Removes the entries at the front of `key`'s chain whose deadline is
  // before `clock`, and returns the new head (kNone: no chain left).
  Index PruneFront(uint64_t key, TimePoint clock);
  // PruneFront on every chain.
  void PruneAllFronts(TimePoint clock);
  // Pops the expiry records whose deadline is before `clock`, in
  // insertion order up to the first live one, pruning each record's chain
  // front. Entries stuck behind a live chain front or a live record stay
  // until a later drain or scan reaches them. Inline up to the first
  // check: every member of a family drains the shared buffer on each
  // arrival, and all but the first find nothing to do.
  void DrainExpired(TimePoint clock) {
    if (ring_size_ > 0 && ring_[ring_head_].deadline < clock) Drain(clock);
  }

  const Entry& entry(Index index) const { return pool_[index]; }
  Index next(Index index) const { return pool_[index].next; }

  // Calls f(head) for every chain, in table order, until f returns true;
  // returns whether one did.
  template <typename F>
  bool AnyChain(F&& f) const {
    for (size_t s = 0; s < table_.capacity(); ++s) {
      if (Index head = table_[s].head; head != kNone && f(head)) return true;
    }
    return false;
  }

  // Append and Release calls so far, counted in debug builds only (0
  // otherwise): the detector asserts that a window family's emissions
  // leave its buffers alone (Detector::PairRun).
  uint64_t mutations() const { return mutations_; }

  // Array capacities (tests: bounded memory under churn).
  size_t pool_capacity() const { return pool_.capacity(); }
  size_t table_capacity() const { return table_.capacity(); }
  size_t expiry_capacity() const { return ring_.size(); }

 private:
  struct Expiry {
    TimePoint deadline;
    uint64_t key;
  };

  static constexpr size_t kNoSlot = common::ChainTable::kNoSlot;

  // PruneFront on the chain in slot `s`.
  Index PruneSlot(size_t s, TimePoint clock);
  void Free(Index index);
  void PushExpiry(TimePoint deadline, uint64_t key);
  // DrainExpired past its first check.
  void Drain(TimePoint clock);

  std::vector<Entry> pool_;
  common::ChainTable table_;
  std::vector<Expiry> ring_;  // Empty, or a power-of-two size.
  uint32_t ring_head_ = 0;
  uint32_t ring_size_ = 0;
  uint32_t size_ = 0;   // Live entries.
  Index free_ = kNone;  // Free-list head, linked through Entry::next.
  uint64_t mutations_ = 0;
};

}  // namespace rfidcep::engine

#endif  // RFIDCEP_ENGINE_JOIN_BUFFER_H_
