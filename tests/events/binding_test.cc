#include "events/binding.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rfidcep::events {
namespace {

TEST(BindingsTest, ScalarBindAndLookup) {
  Bindings b;
  b.BindScalar("o", std::string("epc1"));
  b.BindScalar("t", TimePoint{5 * kSecond});
  ASSERT_TRUE(b.HasScalar("o"));
  EXPECT_EQ(std::get<std::string>(b.Scalar("o")), "epc1");
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
  EXPECT_EQ(std::get<std::string>(a.Scalar("r")), "r1");
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
  EXPECT_EQ(std::get<std::string>(values[0]), "e1");
  EXPECT_EQ(std::get<std::string>(values[2]), "e3");
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

}  // namespace
}  // namespace rfidcep::events
