// JoinBuffer (engine/join_buffer.h) against a model: per-key
// std::deque chains plus a (deadline, key) expiry deque whose drained
// records prune the front of their key's chain. Keys are drawn
// from a small set in which many share a probe position — including the
// wildcard key 0 and keys homed on the table's last slot, whose clusters
// wrap around — so unlinking, backward-shift deletion and table growth
// are all exercised on crowded clusters. The member-mask tests below
// cover a buffer shared by a window family, and how the detector groups
// nodes into families of at most 64.

#include "engine/join_buffer.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <map>
#include <new>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/detector.h"
#include "engine/graph.h"
#include "events/binding.h"
#include "events/event_instance.h"
#include "rules/parser.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rfidcep::engine {
namespace {

using common::ChainTable;
using events::EventInstance;
using events::EventInstancePtr;
using events::kWildcardJoinKey;
using Index = JoinBuffer::Index;

EventInstancePtr MakeInstance(uint64_t seq) {
  return EventInstance::MakeComplex(0, 0, events::Bindings(), {}, seq);
}

// `count` distinct nonzero keys whose home slot in the buffer's
// common::ChainTable at capacity 1024 is `home`, hence the same at every
// smaller power-of-two capacity once scaled (HomeSlot keeps the top bits).
std::vector<uint64_t> KeysHomedAt(size_t home, size_t count,
                                  std::mt19937_64* rng) {
  std::vector<uint64_t> keys;
  while (keys.size() < count) {
    uint64_t key = (*rng)();
    if (key != 0 && ChainTable::HomeSlot(key, 1024) == home) {
      keys.push_back(key);
    }
  }
  return keys;
}

struct ModelEntry {
  uint64_t seq;
  TimePoint deadline;
  Index index;
};

class Model {
 public:
  void Append(uint64_t key, uint64_t seq, TimePoint deadline, Index index) {
    chains_[key].push_back(ModelEntry{seq, deadline, index});
    ++size_;
    if (deadline != kTimeInfinity) expiry_.emplace_back(deadline, key);
  }
  void RemoveAt(uint64_t key, size_t pos) {
    std::deque<ModelEntry>& chain = chains_.at(key);
    chain.erase(chain.begin() + static_cast<long>(pos));
    --size_;
    if (chain.empty()) chains_.erase(key);
  }
  void PruneFront(uint64_t key, TimePoint clock) {
    auto it = chains_.find(key);
    if (it == chains_.end()) return;
    while (!it->second.empty() && it->second.front().deadline < clock) {
      it->second.pop_front();
      --size_;
    }
    if (it->second.empty()) chains_.erase(it);
  }
  void PruneAllFronts(TimePoint clock) {
    std::vector<uint64_t> keys;
    for (const auto& [key, chain] : chains_) keys.push_back(key);
    for (uint64_t key : keys) PruneFront(key, clock);
  }
  void DrainExpired(TimePoint clock) {
    while (!expiry_.empty() && expiry_.front().first < clock) {
      PruneFront(expiry_.front().second, clock);
      expiry_.pop_front();
    }
  }
  // Every entry goes; expiry records stay, as in the buffer.
  void RemoveAll() {
    chains_.clear();
    size_ = 0;
  }

  const std::map<uint64_t, std::deque<ModelEntry>>& chains() const {
    return chains_;
  }
  size_t size() const { return size_; }

 private:
  std::map<uint64_t, std::deque<ModelEntry>> chains_;
  std::deque<std::pair<TimePoint, uint64_t>> expiry_;
  size_t size_ = 0;
};

void ExpectMatchesModel(const JoinBuffer& buffer, const Model& model,
                        const std::vector<uint64_t>& keys, size_t step) {
  SCOPED_TRACE("step " + std::to_string(step));
  ASSERT_EQ(buffer.size(), model.size());
  for (uint64_t key : keys) {
    auto it = model.chains().find(key);
    Index i = buffer.Head(key);
    if (it == model.chains().end()) {
      ASSERT_EQ(i, JoinBuffer::kNone) << "key " << key;
      continue;
    }
    Index prev = JoinBuffer::kNone;
    for (const ModelEntry& expected : it->second) {
      ASSERT_NE(i, JoinBuffer::kNone) << "chain too short, key " << key;
      ASSERT_EQ(i, expected.index);
      const JoinBuffer::Entry& entry = buffer.entry(i);
      ASSERT_EQ(entry.instance->sequence_number(), expected.seq);
      ASSERT_EQ(entry.deadline, expected.deadline);
      ASSERT_EQ(entry.key, key);
      ASSERT_EQ(entry.prev, prev);
      prev = i;
      i = buffer.next(i);
    }
    ASSERT_EQ(i, JoinBuffer::kNone) << "chain too long, key " << key;
  }
  // Every chain is reachable exactly once by a full scan.
  std::multiset<uint64_t> scanned;
  buffer.AnyChain([&](Index head) {
    scanned.insert(buffer.entry(head).key);
    return false;
  });
  std::multiset<uint64_t> expected;
  for (const auto& [key, chain] : model.chains()) expected.insert(key);
  ASSERT_EQ(scanned, expected);
}

TEST(JoinBufferTest, RandomOperationsMatchModel) {
  std::mt19937_64 rng(20061017);
  // Eight keys share the wildcard key's home, six sit on the last slot
  // so their cluster wraps into the first, plus four anywhere.
  std::vector<uint64_t> keys = {0};
  for (uint64_t key : KeysHomedAt(0, 8, &rng)) keys.push_back(key);
  for (uint64_t key : KeysHomedAt(1023, 6, &rng)) keys.push_back(key);
  for (int i = 0; i < 4; ++i) keys.push_back(rng() | 1);

  JoinBuffer buffer;
  Model model;
  TimePoint clock = 0;
  uint64_t seq = 0;
  constexpr size_t kSteps = 100000;
  for (size_t step = 0; step < kSteps; ++step) {
    int op = static_cast<int>(rng() % 100);
    uint64_t key = keys[rng() % keys.size()];
    if (op < 45 && model.size() < 96) {
      // Mostly finite deadlines, some never expiring; some already past
      // so that expired entries pile up behind live fronts.
      TimePoint deadline = clock - 2 + static_cast<TimePoint>(rng() % 40);
      if (rng() % 10 == 0) deadline = kTimeInfinity;
      Index index = buffer.Append(key, MakeInstance(++seq), deadline);
      model.Append(key, seq, deadline, index);
    } else if (op < 70) {
      // Remove at any position of a random live chain.
      if (model.size() == 0) continue;
      auto it = model.chains().begin();
      std::advance(it, static_cast<long>(rng() % model.chains().size()));
      size_t pos = rng() % it->second.size();
      uint64_t chain_key = it->first;
      buffer.Remove(it->second[pos].index);
      model.RemoveAt(chain_key, pos);
    } else if (op < 80) {
      Index head = buffer.PruneFront(key, clock);
      model.PruneFront(key, clock);
      Index expected = JoinBuffer::kNone;
      if (auto it = model.chains().find(key); it != model.chains().end()) {
        expected = it->second.front().index;
      }
      ASSERT_EQ(head, expected);
    } else if (op < 84) {
      buffer.PruneAllFronts(clock);
      model.PruneAllFronts(clock);
    } else if (op < 99) {
      clock += static_cast<TimePoint>(rng() % 4);
      buffer.DrainExpired(clock);
      model.DrainExpired(clock);
    } else if (rng() % 4 == 0) {
      buffer.ReleaseAll(1);
      model.RemoveAll();
    }
    ExpectMatchesModel(buffer, model, keys, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(JoinBufferTest, DefaultConstructedAllocatesNothing) {
  uint64_t before = g_allocations.load();
  {
    JoinBuffer buffer;
    EXPECT_EQ(buffer.size(), 0u);
    EXPECT_EQ(buffer.Head(42), JoinBuffer::kNone);
    EXPECT_EQ(buffer.PruneFront(42, 10), JoinBuffer::kNone);
    buffer.PruneAllFronts(10);
    buffer.DrainExpired(10);
    buffer.ReleaseAll(1);
    EXPECT_FALSE(buffer.AnyChain([](Index) { return true; }));
    EXPECT_EQ(buffer.pool_capacity(), 0u);
    EXPECT_EQ(buffer.table_capacity(), 0u);
    EXPECT_EQ(buffer.expiry_capacity(), 0u);
  }
  EXPECT_EQ(g_allocations.load(), before);
}

// A slot buffer's per-arrival upkeep once the buffer is warm (the step
// bench_bindings' BM_JoinBufferChurn times): expire what the clock has
// passed, consume the oldest wildcard-chain entry as chronicle pairing
// would, and buffer one entry under a fresh join key and one on the
// wildcard chain. One fresh-key entry expires per step, so pool entries,
// table slots and ring cells are all reused and nothing is allocated.
TEST(JoinBufferTest, WarmChurnAllocatesNothing) {
  constexpr TimePoint kWindow = 1024;
  EventInstancePtr instance = MakeInstance(1);
  JoinBuffer buffer;
  for (int i = 0; i < 64; ++i) {
    buffer.Append(kWildcardJoinKey, instance, kTimeInfinity);
  }
  TimePoint clock = 0;
  uint64_t fresh = 0;
  auto step = [&] {
    ++clock;
    buffer.DrainExpired(clock);
    buffer.Remove(buffer.PruneFront(kWildcardJoinKey, clock));
    // Odd multiples of an odd constant: distinct and never the wildcard.
    buffer.Append((2 * ++fresh + 1) * 0x9e3779b97f4a7c15ull, instance,
                  clock + kWindow);
    buffer.Append(kWildcardJoinKey, instance, clock + kWindow);
  };
  for (TimePoint i = 0; i < 4 * kWindow; ++i) step();
  size_t live = buffer.size();
  uint64_t before = g_allocations.load();
  for (TimePoint i = 0; i < 16 * kWindow; ++i) step();
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(buffer.size(), live);
}

// Append-then-expire over unique keys with at most kWindow + 1 entries
// live: freed pool entries, table slots and ring cells are reused, so no
// array outgrows a fixed multiple of the window. With `consume_half`,
// every other entry is removed before it expires, leaving a stale expiry
// record behind it.
void ChurnStaysBounded(bool consume_half) {
  constexpr size_t kWindow = 64;
  constexpr size_t kCycles = 1000000;
  EventInstancePtr instance = MakeInstance(1);
  JoinBuffer buffer;
  Index previous = JoinBuffer::kNone;
  for (size_t i = 0; i < kCycles; ++i) {
    TimePoint clock = static_cast<TimePoint>(i);
    buffer.DrainExpired(clock);
    uint64_t key = (i + 1) * 0x9e3779b97f4a7c15ull;
    if (consume_half && previous != JoinBuffer::kNone) {
      buffer.Remove(previous);
      previous = JoinBuffer::kNone;
    }
    Index index = buffer.Append(key, instance,
                                clock + static_cast<TimePoint>(kWindow) - 1);
    if (i % 2 == 0) previous = index;
    ASSERT_LE(buffer.size(), kWindow + 1);
  }
  constexpr size_t kBound = 4 * (kWindow + 1);
  EXPECT_LE(buffer.pool_capacity(), kBound);
  EXPECT_LE(buffer.table_capacity(), kBound);
  EXPECT_LE(buffer.expiry_capacity(), kBound);
}

TEST(JoinBufferTest, ExpiryChurnKeepsCapacityBounded) {
  ChurnStaysBounded(/*consume_half=*/false);
}

TEST(JoinBufferTest, ConsumeAndExpiryChurnKeepsCapacityBounded) {
  ChurnStaysBounded(/*consume_half=*/true);
}

// --- Member masks (window families) ------------------------------------------

constexpr JoinBuffer::Members kBit0 = 1;
constexpr JoinBuffer::Members kBit1 = 2;

TEST(JoinBufferMembersTest, SameInstanceAppendSetsABitAndAddsNoEntry) {
  EventInstancePtr a = MakeInstance(1);
  EventInstancePtr b = MakeInstance(2);
  JoinBuffer buffer;
  Index first = buffer.Append(7, a, 10, kBit0);
  EXPECT_EQ(buffer.Append(7, a, 10, kBit1), first);
  EXPECT_EQ(buffer.size(), 1u);
  EXPECT_EQ(buffer.entry(first).members, kBit0 | kBit1);
  EXPECT_EQ(buffer.next(first), JoinBuffer::kNone);
  // A member appending the same instance again gets a second entry, as
  // does a different instance, or the same one behind another instance.
  Index again = buffer.Append(7, a, 10, kBit0);
  EXPECT_NE(again, first);
  Index other = buffer.Append(7, b, 10, kBit1);
  EXPECT_NE(buffer.Append(7, a, 10, (JoinBuffer::Members{1} << 63)), other);
  EXPECT_EQ(buffer.size(), 4u);
  // Only the tail of the instance's own key is joined.
  EXPECT_NE(buffer.Append(8, b, 10, kBit0), other);
  EXPECT_EQ(buffer.size(), 5u);
}

TEST(JoinBufferMembersTest, ReleaseFreesTheEntryOnlyAtTheLastBit) {
  EventInstancePtr a = MakeInstance(1);
  JoinBuffer buffer;
  Index i = buffer.Append(7, a, 10, kBit0);
  buffer.Append(7, a, 10, kBit1);
  EXPECT_FALSE(buffer.Release(i, kBit0));
  EXPECT_EQ(buffer.size(), 1u);
  EXPECT_EQ(buffer.entry(i).members, kBit1);
  EXPECT_EQ(buffer.Head(7), i);
  EXPECT_TRUE(buffer.Release(i, kBit1));
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.Head(7), JoinBuffer::kNone);
  EXPECT_EQ(a.use_count(), 1);

  // ReleaseAll clears one member across every chain and keeps the others.
  std::vector<Index> both;
  for (uint64_t key = 1; key <= 4; ++key) {
    EventInstancePtr e = MakeInstance(key);
    both.push_back(buffer.Append(key, e, 10, kBit0));
    buffer.Append(key, e, 10, kBit1);
    buffer.Append(key, MakeInstance(10 + key), 10, kBit0);
  }
  EXPECT_EQ(buffer.size(), 8u);
  buffer.ReleaseAll(kBit0);
  EXPECT_EQ(buffer.size(), 4u);
  for (uint64_t key = 1; key <= 4; ++key) {
    Index head = buffer.Head(key);
    ASSERT_EQ(head, both[key - 1]);
    EXPECT_EQ(buffer.entry(head).members, kBit1);
    EXPECT_EQ(buffer.next(head), JoinBuffer::kNone);
  }
  buffer.ReleaseAll(kBit1);
  EXPECT_EQ(buffer.size(), 0u);
}

// One Append for several members (a run of window-family members, see
// Detector::BuildRuns) makes one entry carrying every bit, with one
// expiry record; the entry is freed only when its last bit is released.
TEST(JoinBufferMembersTest, MultiBitAppendMakesOneEntry) {
  const JoinBuffer::Members all = ~JoinBuffer::Members{0};
  JoinBuffer buffer;
  std::vector<EventInstancePtr> instances;
  std::vector<Index> entries;
  for (uint64_t i = 1; i <= 8; ++i) {
    instances.push_back(MakeInstance(i));
    entries.push_back(buffer.Append(7, instances.back(), 10, all));
  }
  EXPECT_EQ(buffer.size(), 8u);
  EXPECT_EQ(buffer.entry(entries[0]).members, all);
  // Eight records fill the smallest expiry ring: one per Append, not one
  // per bit.
  EXPECT_EQ(buffer.expiry_capacity(), 8u);
  for (int bit = 0; bit < 63; ++bit) {
    EXPECT_FALSE(buffer.Release(entries[0], JoinBuffer::Members{1} << bit));
  }
  EXPECT_EQ(buffer.size(), 8u);
  EXPECT_EQ(buffer.Head(7), entries[0]);
  EXPECT_TRUE(buffer.Release(entries[0], JoinBuffer::Members{1} << 63));
  EXPECT_EQ(buffer.size(), 7u);
  EXPECT_EQ(buffer.Head(7), entries[1]);
  // Releasing several bits at once frees the entry when none is left.
  EXPECT_FALSE(buffer.Release(entries[1], kBit0 | kBit1));
  EXPECT_TRUE(buffer.Release(entries[1], all));
  EXPECT_EQ(buffer.size(), 6u);
  // Bits appended to the tail entry of the same instance join it.
  EventInstancePtr tail = MakeInstance(9);
  Index joined = buffer.Append(7, tail, 10, kBit0);
  EXPECT_EQ(buffer.Append(7, tail, 10, kBit1 | (kBit1 << 1)), joined);
  EXPECT_EQ(buffer.entry(joined).members, kBit0 | kBit1 | (kBit1 << 1));
  EXPECT_EQ(buffer.size(), 7u);
  buffer.DrainExpired(11);
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(JoinBufferMembersTest, ExpiryActsAtTheFamilyDeadline) {
  // Members appending one instance with different deadlines keep it until
  // the latest, whichever order they append in.
  for (bool widest_first : {false, true}) {
    SCOPED_TRACE(widest_first ? "widest first" : "widest last");
    EventInstancePtr a = MakeInstance(1);
    JoinBuffer buffer;
    Index i = buffer.Append(7, a, widest_first ? 9 : 5, kBit0);
    buffer.Append(7, a, widest_first ? 5 : 9, kBit1);
    EXPECT_EQ(buffer.entry(i).deadline, 9);
    buffer.DrainExpired(6);
    EXPECT_EQ(buffer.PruneFront(7, 9), i);
    buffer.PruneAllFronts(9);
    buffer.DrainExpired(9);
    EXPECT_EQ(buffer.size(), 1u);
    buffer.DrainExpired(10);
    EXPECT_EQ(buffer.size(), 0u);
    EXPECT_EQ(buffer.Head(7), JoinBuffer::kNone);
  }
  EventInstancePtr b = MakeInstance(2);
  JoinBuffer buffer;
  buffer.Append(7, b, 5, kBit0);
  buffer.Append(7, b, 9, kBit1);
  EXPECT_EQ(buffer.PruneFront(7, 10), JoinBuffer::kNone);
  EXPECT_EQ(buffer.size(), 0u);
}

// A 64-member family under churn: every step buffers one fresh instance
// for all 64 members under a fresh key, each member releases a random
// subset of what it holds, and the rest expires. Pool, table and ring
// stay within a fixed multiple of the live window.
TEST(JoinBufferMembersTest, SixtyFourMemberChurnKeepsCapacityBounded) {
  constexpr size_t kWindow = 32;
  constexpr int kMembers = 64;
  std::mt19937_64 rng(64);
  JoinBuffer buffer;
  // (index, sequence number) of every entry appended and maybe still live.
  std::deque<std::pair<Index, uint64_t>> appended;
  auto holds = [&](const std::pair<Index, uint64_t>& at) {
    const JoinBuffer::Entry& entry = buffer.entry(at.first);
    return entry.instance != nullptr &&
           entry.instance->sequence_number() == at.second;
  };
  for (size_t step = 0; step < 200000; ++step) {
    TimePoint clock = static_cast<TimePoint>(step);
    buffer.DrainExpired(clock);
    while (!appended.empty() && !holds(appended.front())) {
      appended.pop_front();
    }
    EventInstancePtr e = MakeInstance(step + 1);
    uint64_t key = (step + 1) * 0x9e3779b97f4a7c15ull;
    Index index = JoinBuffer::kNone;
    for (int m = 0; m < kMembers; ++m) {
      Index got = buffer.Append(key, e,
                                clock + static_cast<TimePoint>(kWindow) - 1,
                                JoinBuffer::Members{1} << m);
      if (m == 0) index = got;
      ASSERT_EQ(got, index);
    }
    appended.emplace_back(index, step + 1);
    // Half the members release one older entry: it survives until all 64
    // have, unless expiry takes it first.
    if (appended.size() > 1) {
      const auto& victim = appended[rng() % (appended.size() - 1)];
      if (holds(victim)) {
        JoinBuffer::Members mask = buffer.entry(victim.first).members;
        for (int m = 0; m < kMembers; ++m) {
          JoinBuffer::Members bit = JoinBuffer::Members{1} << m;
          if ((mask & bit) == 0 || rng() % 2 == 0) continue;
          mask &= ~bit;
          ASSERT_EQ(buffer.Release(victim.first, bit), mask == 0);
        }
      }
    }
    ASSERT_LE(buffer.size(), kWindow + 1);
  }
  constexpr size_t kBound = 4 * (kWindow + 1);
  EXPECT_LE(buffer.pool_capacity(), kBound);
  EXPECT_LE(buffer.table_capacity(), kBound);
  EXPECT_LE(buffer.expiry_capacity(), kBound);
}

// Window siblings share a family of at most 64 members: the 65th
// sibling starts a second family, which the 66th joins.
TEST(JoinBufferMembersTest, SixtyFifthMemberStartsANewFamily) {
  std::string program;
  for (int w = 1; w <= 66; ++w) {
    program += "CREATE RULE w" + std::to_string(w) +
               ", sibling ON WITHIN(observation(\"A\", o, t1); "
               "observation(\"B\", o, t2), " +
               std::to_string(w) + "sec) IF true DO act\n";
  }
  Result<rules::RuleSet> set = rules::ParseRuleProgram(program);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  Result<EventGraph> graph = EventGraph::Build(set->rules);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const events::Environment env{};
  Detector detector(&*graph, &env, DetectorOptions{},
                    [](size_t, const EventInstancePtr&) {});
  std::vector<int> reps;
  for (size_t i = 0; i < set->rules.size(); ++i) {
    reps.push_back(detector.FamilyRep(graph->RuleRoot(i)));
  }
  const int first = graph->RuleRoot(0);
  for (size_t i = 0; i < 64; ++i) EXPECT_EQ(reps[i], first) << i;
  EXPECT_EQ(reps[64], graph->RuleRoot(64));
  EXPECT_EQ(reps[65], graph->RuleRoot(64));
  // Leaves keep no buffer and belong to no family.
  for (int leaf : graph->primitive_nodes()) {
    EXPECT_EQ(detector.FamilyRep(leaf), -1);
  }
}

TEST(JoinBufferTest, HomeSlotKeepsTopBits) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t key = rng();
    for (size_t capacity = 2; capacity <= 1024; capacity *= 2) {
      EXPECT_EQ(ChainTable::HomeSlot(key, capacity),
                ChainTable::HomeSlot(key, 1024) / (1024 / capacity));
    }
  }
  EXPECT_EQ(ChainTable::HomeSlot(0, 1024), 0u);
}

}  // namespace
}  // namespace rfidcep::engine
