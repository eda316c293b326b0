// Allocation budget of the Fig. 9a match path: a warm engine running the
// generated 25-rule program with actions off over a seeded supply-chain
// stream must stay within a fixed number of heap allocations per
// observation. The budget sits just above the measured figure, so copying
// EPC strings per leaf, instance or pair, or building action parameters
// nobody reads, fails here instead of creeping back unnoticed. The same
// counting allocator bounds what a forged snapshot can make the decoder
// allocate.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_codec.h"
#include "engine/engine.h"
#include "engine/snapshot.h"
#include "sim/supply_chain.h"
#include "store/database.h"
#include "tests/engine/test_util.h"

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<size_t> g_bytes{0};    // Bytes requested.
std::atomic<size_t> g_largest{0};  // Largest single request.

void Count(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  size_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest && !g_largest.compare_exchange_weak(largest, size)) {
  }
}

}  // namespace

void* operator new(std::size_t size) {
  Count(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  Count(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms too (std::stable_sort's temporary buffer uses them),
// so every delete below frees memory that came from malloc.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  Count(size);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rfidcep::engine {
namespace {

// This stream measures 7.36 per observation (perfbench's traced fig9a
// run, seed 7: 7.45). It was 11.2 before instances shared one allocation
// with their count and registered readers kept their dispatch records,
// and 27 before EPC text was shared and params were built only when read.
constexpr double kBudgetPerObservation = 7.5;

TEST(AllocBudgetTest, Fig9aMatchPathStaysWithinBudget) {
  sim::SupplyChainConfig config;
  config.seed = 3;
  config.num_sites = 5;
  config.num_items = 10000;
  config.num_cases = 1000;
  sim::SupplyChain chain(config);
  const std::vector<events::Observation> stream = chain.GenerateStream(40000);
  ASSERT_GT(stream.size(), 30000u);

  store::Database db;
  EngineOptions options;
  options.execute_actions = false;
  RcedaEngine engine(&db, chain.environment(), options);
  ASSERT_TRUE(engine.AddRulesFromText(chain.GeneratedRuleProgram(25)).ok());
  ASSERT_TRUE(engine.Compile().ok());

  // Warm up: buffers, tables and pools reach their working size.
  constexpr size_t kWarm = 10000;
  constexpr size_t kBatch = 1024;
  ASSERT_TRUE(engine
                  .ProcessAll(std::vector<events::Observation>(
                      stream.begin(), stream.begin() + kWarm))
                  .ok());
  std::vector<std::vector<events::Observation>> batches;
  for (size_t begin = kWarm; begin < stream.size(); begin += kBatch) {
    const size_t end = std::min(begin + kBatch, stream.size());
    batches.emplace_back(stream.begin() + static_cast<long>(begin),
                         stream.begin() + static_cast<long>(end));
  }
  const uint64_t matches_before = engine.stats().detector.rule_matches;

  const uint64_t before = g_allocations.load();
  for (const std::vector<events::Observation>& batch : batches) {
    ASSERT_TRUE(engine.ProcessAll(batch).ok());
  }
  const uint64_t allocations = g_allocations.load() - before;

  const double observations = static_cast<double>(stream.size() - kWarm);
  const double matches = static_cast<double>(
      engine.stats().detector.rule_matches - matches_before);
  // The stream must exercise the match path: Fig. 9a delivers ~1.4
  // matches per observation.
  EXPECT_GT(matches / observations, 1.0);
  EXPECT_LE(static_cast<double>(allocations) / observations,
            kBudgetPerObservation)
      << allocations << " allocations over " << observations
      << " observations";
}

constexpr size_t kForgedFileBytes = 1u << 20;

// `valid` with the u32 count at `offset` raised to the length of the zero
// padding that fills it to kForgedFileBytes.
std::string ForgeCount(std::string valid, size_t offset) {
  const auto count = static_cast<uint32_t>(kForgedFileBytes - valid.size());
  valid.resize(kForgedFileBytes, '\0');
  for (int i = 0; i < 4; ++i) {
    valid[offset + i] = static_cast<char>(count >> (8 * i));
  }
  return valid;
}

uint32_t U32At(const std::string& bytes, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

// checkpoint_v2.snap cut before its detector tables, which it then holds
// empty: a valid version-2 file. Sets the offsets of its fired, counter
// and source counts.
std::string EmptyTablesV2(size_t* fired, size_t* counters, size_t* sources) {
  const std::string fixture = testing::ReadFile(
      std::string(RFIDCEP_TESTDATA_DIR) + "/checkpoint_v2.snap");
  EXPECT_FALSE(fixture.empty()) << "missing fixture";
  // Magic, version, fingerprint, context, flushed, clock, trace sequence
  // and 14 stats.
  size_t at = 8 + 4 + 8 + 1 + 1 + 8 + 8 + 14 * 8;
  for (size_t* section : {fired, counters}) {  // Name and count entries.
    *section = at;
    at += 4;
    for (uint32_t n = U32At(fixture, *section); n > 0; --n) {
      at += 4 + U32At(fixture, at) + 8;
    }
  }
  *sources = at + 4;  // After the detection worker count.
  // The source's id, clock, two counters and seven stats.
  const size_t tables = *sources + 4 + 4 + 8 + 2 * 8 + 7 * 8;
  // Three empty tables, the durable LSN and an empty pending list.
  return fixture.substr(0, tables) + std::string(3 * 4 + 8 + 4, '\0');
}

// A corrupt checkpoint must fail its restore, not exhaust memory: each
// count is held to what the remaining bytes could encode at its
// element's minimum size before anything is sized from it, and the
// version-2 reader refuses a source or pending-firing count other than
// the one layout it reads. Each forged file is a valid snapshot with no
// detector state padded with zeros to 1 MiB, one count raised to the
// padding's length: a version-3 one this build writes, and one cut from
// the committed version-2 fixture.
TEST(AllocBudgetTest, ForgedSnapshotCountsAllocateLittle) {
  // A version-3 encoding ends with the rule count, the sequence counter
  // and the instance, node and pseudo counts.
  const std::string v3 = snapshot::EncodeEngineSnapshot({});
  size_t fired = 0, counters = 0, sources = 0;
  const std::string v2 = EmptyTablesV2(&fired, &counters, &sources);
  snapshot::EngineSnapshot decoded;
  ASSERT_TRUE(snapshot::DecodeEngineSnapshot(v3, &decoded).ok());
  ASSERT_TRUE(snapshot::DecodeEngineSnapshot(v2, &decoded).ok());
  const struct {
    const char* name;
    const std::string& valid;
    size_t offset;
  } counts[] = {
      {"v3 rules", v3, v3.size() - 24},
      {"v3 instances", v3, v3.size() - 12},
      {"v3 nodes", v3, v3.size() - 8},
      {"v3 pseudos", v3, v3.size() - 4},
      {"v2 fired", v2, fired},
      {"v2 counters", v2, counters},
      {"v2 sources", v2, sources},
      {"v2 instances", v2, v2.size() - 24},
      {"v2 nodes", v2, v2.size() - 20},
      {"v2 pseudos", v2, v2.size() - 16},
      {"v2 pending firings", v2, v2.size() - 4},
  };
  for (const auto& [name, valid, offset] : counts) {
    const std::string forged = ForgeCount(valid, offset);
    g_largest.store(0);
    EXPECT_FALSE(snapshot::DecodeEngineSnapshot(forged, &decoded).ok())
        << name;
    EXPECT_LE(g_largest.load(), size_t{8} << 20) << name;
  }
}

// A 1 MiB version-2 file holding one pending firing whose multi parameter
// is about a million NULLs. Decoding that parameter would size one
// vector of some 42 MB from it; the reader refuses the pending count
// before any parameter is read, so the whole decode allocates less than
// the file's size.
TEST(AllocBudgetTest, ForgedPendingFiringIsRefusedUnread) {
  std::string forged = testing::ReadFile(std::string(RFIDCEP_TESTDATA_DIR) +
                                         "/checkpoint_v2.snap");
  ASSERT_FALSE(forged.empty()) << "missing fixture";
  forged.resize(forged.size() - 4);  // The empty pending list.
  common::ByteWriter w(&forged);
  w.U32(1);
  w.Str32("pair");
  w.U64(1);  // The firing's sequence number.
  w.I64(0);  // Its fire time.
  w.U32(1);  // One parameter:
  w.Str32("o");
  w.U8(1);  // multi-valued,
  const size_t nulls = kForgedFileBytes - forged.size() - 4;
  w.U32(static_cast<uint32_t>(nulls));
  forged.resize(kForgedFileBytes, '\0');  // of NULL values.

  g_bytes.store(0);
  snapshot::EngineSnapshot decoded;
  const Status status = snapshot::DecodeEngineSnapshot(forged, &decoded);
  const size_t allocated = g_bytes.load();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("1 pending action firings"),
            std::string::npos)
      << status.message();
  EXPECT_LE(allocated, kForgedFileBytes) << allocated << " bytes allocated";
}

}  // namespace
}  // namespace rfidcep::engine
