// Microbenchmarks for the binding layer the detection hot path lives on:
// binding a primitive match, Merge (copy vs move), ToMulti, join-key
// computation, the full pairing probe (key + unification re-check), and
// join-buffer upkeep.
//
// Every benchmark reports an `allocs_per_iter` counter backed by a global
// operator new override. The probe-path benchmarks and BM_JoinBufferChurn
// must report 0 (binding_test and join_buffer_test assert the same under
// ctest): pairing an incoming instance against a join chain performs no
// heap allocation (and in particular never builds a std::string key —
// compare BM_StringBucketKey, which reconstructs the old representation
// for contrast), and neither does buffering, consuming or expiring an
// entry once the buffer is warm.

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "engine/join_buffer.h"
#include "events/binding.h"
#include "events/event_instance.h"
#include "events/event_type.h"
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

// Counts heap allocations across the timed region and reports the
// per-iteration average.
class AllocationScope {
 public:
  explicit AllocationScope(benchmark::State& state)
      : state_(state), start_(g_allocations.load(std::memory_order_relaxed)) {}
  ~AllocationScope() {
    uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - start_;
    state_.counters["allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(allocs) /
        static_cast<double>(std::max<int64_t>(state_.iterations(), 1)));
  }

 private:
  benchmark::State& state_;
  uint64_t start_;
};

// A primitive match's typical bindings: reader, object, timestamp.
Bindings MakeLeafBindings(SymbolId r, SymbolId o, SymbolId t,
                          const std::string& reader,
                          const std::string& object, TimePoint when) {
  Bindings b;
  b.BindScalar(r, reader);
  b.BindScalar(o, object);
  b.BindScalar(t, when);
  return b;
}

// What the detector does for each leaf an observation matches: bind the
// reader, a 36-byte object EPC, the time and the reader's location from
// the observation's shared text handles. Allocates only the entry vector
// (1 per iteration); the EPC text is never copied.
void BM_BindPrimitive(benchmark::State& state) {
  PrimitiveEventType type(Term::Variable("bb_bp_r"),
                          Term::Variable("bb_bp_o"), "bb_bp_t");
  const SharedText reader("urn:epc:id:sgln:0614141.00777.0");
  const SharedText object("urn:epc:id:sgtin:0614141.100001.2731");
  const SharedText location("urn:epc:id:sgln:0614141.00777.dock");
  TimePoint when = 17 * kSecond;
  benchmark::DoNotOptimize(when);
  AllocationScope allocs(state);
  for (auto _ : state) {
    Bindings bindings = type.Bind(reader, object, when, location);
    benchmark::DoNotOptimize(bindings);
  }
}
BENCHMARK(BM_BindPrimitive);

// The per-probe work PairBinary does for one candidate: hash the join
// tuple of the incoming instance, then re-check unification against a
// buffered candidate. Must be allocation-free.
void BM_PairingProbe(benchmark::State& state) {
  SymbolId r = InternSymbol("bb_r");
  SymbolId o = InternSymbol("bb_o");
  SymbolId t1 = InternSymbol("bb_t1");
  SymbolId t2 = InternSymbol("bb_t2");
  Bindings incoming = MakeLeafBindings(r, o, t2, "urn:reader:dock-04",
                                       "urn:epc:case:0042", 17 * kSecond);
  Bindings candidate = MakeLeafBindings(r, o, t1, "urn:reader:dock-04",
                                        "urn:epc:case:0042", 12 * kSecond);
  std::vector<SymbolId> join_syms = {r, o};
  AllocationScope allocs(state);
  for (auto _ : state) {
    bool complete = false;
    uint64_t key = ComputeJoinKey(incoming, join_syms, &complete);
    benchmark::DoNotOptimize(key);
    benchmark::DoNotOptimize(complete);
    benchmark::DoNotOptimize(candidate.UnifiesWith(incoming));
  }
}
BENCHMARK(BM_PairingProbe);

void BM_ComputeJoinKey(benchmark::State& state) {
  int num_vars = static_cast<int>(state.range(0));
  std::vector<SymbolId> vars;
  Bindings b;
  for (int i = 0; i < num_vars; ++i) {
    SymbolId var = InternSymbol("bb_jk_v" + std::to_string(i));
    vars.push_back(var);
    b.BindScalar(var, "urn:epc:item:" + std::to_string(1000 + i));
  }
  AllocationScope allocs(state);
  for (auto _ : state) {
    bool complete = false;
    benchmark::DoNotOptimize(ComputeJoinKey(b, vars, &complete));
  }
}
BENCHMARK(BM_ComputeJoinKey)->Arg(1)->Arg(2)->Arg(4);

void BM_UnifiesWith(benchmark::State& state) {
  SymbolId r = InternSymbol("bb_u_r");
  SymbolId o = InternSymbol("bb_u_o");
  SymbolId t1 = InternSymbol("bb_u_t1");
  SymbolId t2 = InternSymbol("bb_u_t2");
  Bindings a = MakeLeafBindings(r, o, t1, "reader-a", "case-7", kSecond);
  Bindings b = MakeLeafBindings(r, o, t2, "reader-a", "case-7", 2 * kSecond);
  AllocationScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.UnifiesWith(b));
  }
}
BENCHMARK(BM_UnifiesWith);

// A slot buffer's per-arrival upkeep on a warm JoinBuffer: expire what the
// clock has passed, consume the oldest entry of the wildcard chain as
// chronicle pairing would, and buffer two new entries — one under a fresh
// join key (most Fig. 9a arrivals open a new (reader, object) key that
// expiry later frees) and one on the wildcard chain. In steady state one
// fresh-key entry expires per iteration, so pool entries, table slots and
// ring cells are all reused: must report 0 allocations.
void BM_JoinBufferChurn(benchmark::State& state) {
  constexpr TimePoint kWindow = 1024;
  constexpr int kWildcardBacklog = 64;
  EventInstancePtr instance =
      EventInstance::MakeComplex(0, 0, Bindings(), {}, /*seq=*/1);
  engine::JoinBuffer buffer;
  TimePoint clock = 0;
  uint64_t fresh = 0;
  for (int i = 0; i < kWildcardBacklog; ++i) {
    buffer.Append(kWildcardJoinKey, instance, kTimeInfinity);
  }
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
  AllocationScope allocs(state);
  for (auto _ : state) step();
  benchmark::DoNotOptimize(buffer.size());
}
BENCHMARK(BM_JoinBufferChurn);

// What ProducePair does once per emitted pair: merge terminator bindings
// into a copy of the initiator's.
void BM_MergeCopy(benchmark::State& state) {
  SymbolId r = InternSymbol("bb_m_r");
  SymbolId o = InternSymbol("bb_m_o");
  SymbolId t1 = InternSymbol("bb_m_t1");
  SymbolId t2 = InternSymbol("bb_m_t2");
  Bindings initiator =
      MakeLeafBindings(r, o, t1, "reader-a", "case-7", kSecond);
  Bindings terminator =
      MakeLeafBindings(r, o, t2, "reader-b", "case-7", 2 * kSecond);
  AllocationScope allocs(state);
  for (auto _ : state) {
    Bindings merged = initiator;
    benchmark::DoNotOptimize(merged.Merge(terminator));
  }
}
BENCHMARK(BM_MergeCopy);

// Same work through the rvalue overload: the terminator copy is consumed,
// so its string payloads move instead of reallocating.
void BM_MergeMove(benchmark::State& state) {
  SymbolId r = InternSymbol("bb_mm_r");
  SymbolId o = InternSymbol("bb_mm_o");
  SymbolId t1 = InternSymbol("bb_mm_t1");
  SymbolId t2 = InternSymbol("bb_mm_t2");
  Bindings initiator =
      MakeLeafBindings(r, o, t1, "reader-a", "case-7", kSecond);
  Bindings terminator =
      MakeLeafBindings(r, o, t2, "reader-b", "case-7", 2 * kSecond);
  AllocationScope allocs(state);
  for (auto _ : state) {
    Bindings merged = initiator;
    Bindings consumed = terminator;
    benchmark::DoNotOptimize(merged.Merge(std::move(consumed)));
  }
}
BENCHMARK(BM_MergeMove);

void BM_ToMulti(benchmark::State& state) {
  SymbolId r = InternSymbol("bb_tm_r");
  SymbolId o = InternSymbol("bb_tm_o");
  SymbolId t = InternSymbol("bb_tm_t");
  Bindings b = MakeLeafBindings(r, o, t, "reader-a", "case-7", kSecond);
  AllocationScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.ToMulti());
  }
}
BENCHMARK(BM_ToMulti);

// The representation this PR removed: a per-probe std::string bucket key
// concatenated from the join values. Kept as a baseline so the probe
// benchmarks have something to be compared against.
void BM_StringBucketKey(benchmark::State& state) {
  SymbolId r = InternSymbol("bb_sk_r");
  SymbolId o = InternSymbol("bb_sk_o");
  SymbolId t = InternSymbol("bb_sk_t");
  Bindings b = MakeLeafBindings(r, o, t, "urn:reader:dock-04",
                                "urn:epc:case:0042", 17 * kSecond);
  std::vector<SymbolId> join_syms = {r, o};
  AllocationScope allocs(state);
  for (auto _ : state) {
    std::string key;
    for (SymbolId var : join_syms) {
      const BindingValue* value = b.FindScalar(var);
      key += value != nullptr ? BindingValueToString(*value) : "*";
      key += '\x1f';
    }
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_StringBucketKey);

}  // namespace
}  // namespace rfidcep::events
