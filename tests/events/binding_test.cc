#include "events/binding.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "events/event_instance.h"
#include "events/symbol.h"

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

// Out of line, so GCC does not pair an inlined free() with the counted
// operator new above (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace rfidcep::events {
namespace {

TEST(BindingsTest, ScalarBindAndLookup) {
  Bindings b;
  b.BindScalar("o", std::string("epc1"));
  b.BindScalar("t", TimePoint{5 * kSecond});
  ASSERT_TRUE(b.HasScalar("o"));
  EXPECT_EQ(std::get<SharedText>(b.Scalar("o")).view(), "epc1");
  EXPECT_EQ(std::get<TimePoint>(b.Scalar("t")), 5 * kSecond);
  EXPECT_FALSE(b.HasScalar("x"));
}

TEST(BindingsTest, MergeAgreeingScalarsSucceeds) {
  Bindings a;
  a.BindScalar("r", std::string("r1"));
  a.BindScalar("o", std::string("epc1"));
  Bindings b;
  b.BindScalar("r", std::string("r1"));
  b.BindScalar("t", TimePoint{7});
  ASSERT_TRUE(a.Merge(b));
  EXPECT_EQ(std::get<SharedText>(a.Scalar("r")).view(), "r1");
  EXPECT_EQ(std::get<TimePoint>(a.Scalar("t")), 7);
}

TEST(BindingsTest, MergeConflictingScalarsFails) {
  // This is the equality-join semantics behind the duplicate-filter rule:
  // observation(r, o, t1); observation(r, o, t2) requires the same o.
  Bindings a;
  a.BindScalar("o", std::string("epc1"));
  Bindings b;
  b.BindScalar("o", std::string("epc2"));
  EXPECT_FALSE(a.Merge(b));
}

TEST(BindingsTest, MergeScalarAgainstMultiFails) {
  Bindings a;
  a.BindScalar("o", std::string("epc1"));
  Bindings b;
  b.BindMulti("o", std::string("epc2"));
  EXPECT_FALSE(a.Merge(b));
  Bindings c;
  c.BindMulti("o", std::string("epc2"));
  Bindings d;
  d.BindScalar("o", std::string("epc1"));
  EXPECT_FALSE(c.Merge(d));
}

TEST(BindingsTest, MultiValuesConcatenateOnMerge) {
  Bindings a;
  a.BindMulti("o1", std::string("e1"));
  Bindings b;
  b.BindMulti("o1", std::string("e2"));
  b.BindMulti("o1", std::string("e3"));
  ASSERT_TRUE(a.Merge(b));
  ASSERT_TRUE(a.HasMulti("o1"));
  const std::vector<BindingValue>& values = a.Multi("o1");
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(std::get<SharedText>(values[0]).view(), "e1");
  EXPECT_EQ(std::get<SharedText>(values[2]).view(), "e3");
}

TEST(BindingsTest, ToMultiDemotesScalars) {
  Bindings a;
  a.BindScalar("o", std::string("e1"));
  a.BindScalar("t", TimePoint{3});
  Bindings multi = a.ToMulti();
  EXPECT_EQ(multi.scalar_count(), 0u);
  ASSERT_TRUE(multi.HasMulti("o"));
  EXPECT_EQ(multi.Multi("o").size(), 1u);
  // Two demoted bindings can then merge without conflict — aperiodic
  // sequences aggregate different objects under the same variable.
  Bindings b;
  b.BindScalar("o", std::string("e2"));
  Bindings mb = b.ToMulti();
  ASSERT_TRUE(multi.Merge(mb));
  EXPECT_EQ(multi.Multi("o").size(), 2u);
}

TEST(BindingsTest, BindingValueToString) {
  EXPECT_EQ(BindingValueToString(BindingValue{std::string("x")}), "x");
  EXPECT_EQ(BindingValueToString(BindingValue{TimePoint{kSecond}}),
            "1.000000s");
}

// The pairing probe PairBinary runs per candidate (bench_bindings'
// BM_PairingProbe, BM_ComputeJoinKey and BM_UnifiesWith time the same
// calls): hash the incoming instance's join tuple, then re-check
// unification against a buffered candidate. Neither may allocate — in
// particular, no std::string key is built.
TEST(BindingsTest, PairingProbeAllocatesNothing) {
  std::vector<SymbolId> vars;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(InternSymbol("probe_v" + std::to_string(i)));
  }
  std::sort(vars.begin(), vars.end());
  SymbolId t1 = InternSymbol("probe_t1");
  SymbolId t2 = InternSymbol("probe_t2");
  Bindings incoming;
  Bindings candidate;
  for (int i = 0; i < 4; ++i) {
    // Longer than any small-string buffer, so a copy would allocate.
    std::string value = "urn:epc:id:sgtin:0614141.107346." + std::to_string(i);
    incoming.BindScalar(vars[i], value);
    candidate.BindScalar(vars[i], value);
  }
  incoming.BindScalar(t2, TimePoint{17 * kSecond});
  candidate.BindScalar(t1, TimePoint{12 * kSecond});

  uint64_t before = g_allocations.load();
  int complete_keys = 0;
  int unified = 0;
  for (int round = 0; round < 100; ++round) {
    for (size_t n = 1; n <= vars.size(); ++n) {
      bool complete = false;
      uint64_t key = ComputeJoinKey(incoming, vars.data(), n, &complete);
      complete_keys += complete && key != kWildcardJoinKey;
      unified += candidate.UnifiesWith(incoming);
    }
  }
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(complete_keys, 400);
  EXPECT_EQ(unified, 400);
}

constexpr const char* kEpc = "urn:epc:id:sgtin:0614141.100001.2731";

TEST(SharedTextTest, EqualTextFromDistinctHandlesUnifiesAndHashesEqual) {
  SharedText a(kEpc);
  SharedText b(std::string{kEpc});
  EXPECT_FALSE(a.SharesStorageWith(b));
  EXPECT_EQ(a, b);
  EXPECT_EQ(HashBindingValue(a), HashBindingValue(b));
  EXPECT_NE(a, SharedText("urn:epc:id:sgtin:0614141.100001.2732"));

  SymbolId o = InternSymbol("st_o");
  Bindings x;
  x.BindScalar(o, a);
  Bindings y;
  y.BindScalar(o, b);
  EXPECT_TRUE(x.UnifiesWith(y));
  bool x_complete = false;
  bool y_complete = false;
  EXPECT_EQ(ComputeJoinKey(x, &o, 1, &x_complete),
            ComputeJoinKey(y, &o, 1, &y_complete));
  EXPECT_TRUE(x_complete && y_complete);
}

TEST(SharedTextTest, HashIsTheStringByteHash) {
  // Recorded from the std::string representation this type replaced:
  // every join key, chain and table order is unchanged.
  EXPECT_EQ(HashBindingValue(BindingValue(SharedText(kEpc))),
            0xb04bfe7c8b995cc5ull);
  EXPECT_EQ(HashBindingValue(SharedText()), HashBindingValue(SharedText("")));
}

TEST(SharedTextTest, CopiesShareStorageAndAllocateNothing) {
  SharedText text(kEpc);
  uint64_t before = g_allocations.load();
  SharedText copy = text;
  SharedText assigned;
  assigned = copy;
  SharedText moved = std::move(copy);
  SharedText empty("");
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_TRUE(assigned.SharesStorageWith(text));
  EXPECT_TRUE(moved.SharesStorageWith(text));
  EXPECT_EQ(moved.view(), kEpc);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty, SharedText());
}

// Making an instance is one allocation (the count lives in it); copying,
// moving and releasing a handle that is not the last allocate nothing.
TEST(EventInstancePtrTest, OneAllocationPerInstanceAndNonePerCopy) {
  SharedText reader("r1");
  SharedText object("o1");
  uint64_t before = g_allocations.load();
  EventInstancePtr e =
      EventInstance::MakePrimitive(reader, object, 1, Bindings(), 1);
  EXPECT_EQ(g_allocations.load() - before, 1u);
  std::vector<EventInstancePtr> children;
  children.reserve(2);
  before = g_allocations.load();
  children.push_back(e);
  children.push_back(std::move(EventInstancePtr(e)));
  EventInstancePtr copy = e;
  copy.reset();
  EXPECT_EQ(g_allocations.load(), before);
  EventInstancePtr parent = EventInstance::MakeComplex(
      1, 1, Bindings(), std::move(children), 2);
  EXPECT_EQ(g_allocations.load() - before, 1u);
  EXPECT_EQ(e.use_count(), 3);
}

TEST(BindingsTest, CopyingPrimitiveBindingsAllocatesOnlyTheVector) {
  // A primitive match's shape: reader, object, time and reader location.
  SharedText reader("urn:epc:id:sgln:0614141.00777.0");
  SharedText object(kEpc);
  SharedText location("urn:epc:id:sgln:0614141.00777.dock");
  Bindings b;
  b.Reserve(4, 0);
  b.BindScalar("cp_r", reader);
  b.BindScalar("cp_o", object);
  b.BindScalar("cp_t", TimePoint{3 * kSecond});
  b.BindScalar("cp_r_location", location);
  ASSERT_EQ(b.scalar_count(), 4u);
  uint64_t before = g_allocations.load();
  Bindings copy = b;
  EXPECT_EQ(g_allocations.load() - before, 1u);
  EXPECT_TRUE(std::get<SharedText>(copy.Scalar("cp_o"))
                  .SharesStorageWith(object));
}

// Handles follow the one-thread-at-a-time contract of binding.h and
// event_instance.h: a worker builds each batch's texts, bindings and
// instances and hands the batch over under a mutex, keeping no handle to
// it; this thread then copies every handle and drops them all, originals
// included, so each text and instance is freed here. The mutex is the
// happens-before edge the plain counts need; the TSan pass reports a
// count changed on both threads without one, and the sanitizer builds a
// count that was lost (a leak or an early free).
TEST(SharedTextTest, HandedOverUnderAMutexThenCopiedAndDroppedThere) {
  constexpr int kTexts = 16;
  constexpr int kRounds = 200;
  struct Batch {
    std::vector<BindingValue> values;
    std::vector<Bindings> bindings;
    std::vector<EventInstancePtr> instances;
  };
  std::mutex mu;
  std::condition_variable ready;
  std::deque<Batch> batches;  // Guarded by mu.
  bool done = false;          // Guarded by mu.
  std::thread worker([&] {
    for (int round = 0; round < kRounds; ++round) {
      Batch batch;
      for (int i = 0; i < kTexts; ++i) {
        SharedText text("urn:epc:id:sgtin:0614141.100001." +
                        std::to_string(round * kTexts + i));
        Bindings bindings;
        bindings.BindScalar("handover_o", text);
        EventInstancePtr primitive = EventInstance::MakePrimitive(
            "urn:epc:id:sgln:0614141.00777.0", text, TimePoint{i}, bindings,
            static_cast<uint64_t>(i));
        batch.instances.push_back(EventInstance::MakeComplex(
            TimePoint{i}, TimePoint{i}, bindings, {primitive, primitive},
            static_cast<uint64_t>(i)));
        batch.bindings.push_back(std::move(bindings));
        batch.values.emplace_back(std::move(text));
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        batches.push_back(std::move(batch));
      }
      ready.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    ready.notify_one();
  });
  int received = 0;
  for (;;) {
    Batch batch;
    {
      std::unique_lock<std::mutex> lock(mu);
      ready.wait(lock, [&] { return !batches.empty() || done; });
      if (batches.empty()) break;
      batch = std::move(batches.front());
      batches.pop_front();
    }
    // Outside the lock: this thread alone holds the batch now.
    std::vector<BindingValue> values = batch.values;
    std::vector<Bindings> bindings = batch.bindings;
    std::vector<EventInstancePtr> instances = batch.instances;
    for (const EventInstancePtr& e : batch.instances) {
      EXPECT_EQ(e.use_count(), 2);
      EXPECT_EQ(e->children()[0].use_count(), 2);
      EXPECT_TRUE(e->children()[0]->object_text().SharesStorageWith(
          std::get<SharedText>(e->bindings().Scalar("handover_o"))));
    }
    batch = Batch();
    values.clear();
    bindings.clear();
    for (const EventInstancePtr& e : instances) EXPECT_EQ(e.use_count(), 1);
    instances.clear();
    ++received;
  }
  worker.join();
  EXPECT_EQ(received, kRounds);
}

}  // namespace
}  // namespace rfidcep::events
