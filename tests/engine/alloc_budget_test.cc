// Allocation budget of the Fig. 9a match path: a warm engine running the
// generated 25-rule program with actions off over a seeded supply-chain
// stream must stay within a fixed number of heap allocations per
// observation. The budget sits just above the measured figure, so copying
// EPC strings per leaf, instance or pair, or building action parameters
// nobody reads, fails here instead of creeping back unnoticed.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "sim/supply_chain.h"
#include "store/database.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms too (std::stable_sort's temporary buffer uses them),
// so every delete below frees memory that came from malloc.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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

}  // namespace
}  // namespace rfidcep::engine
