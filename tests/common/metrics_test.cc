// Unit tests for the lock-free metrics primitives (common/metrics.h):
// histogram bucketing, snapshot merge, quantiles, registry name/kind
// resolution, Prometheus exposition, and multi-threaded updates (the
// concurrency tests carry the TSAN ctest label via this binary).

#include "common/metrics.h"

#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace rfidcep::common {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAdd) {
  Gauge g;
  g.Set(7);
  EXPECT_EQ(g.value(), 7);
  g.Add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST(HistogramTest, BucketingAtBoundEdges) {
  Histogram h({10, 100, 1000});
  h.Record(0);     // <= 10.
  h.Record(10);    // Bounds are inclusive: still the first bucket.
  h.Record(11);    // <= 100.
  h.Record(100);   // <= 100.
  h.Record(1000);  // <= 1000.
  h.Record(1001);  // Overflow.

  HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 bounds + overflow.
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_EQ(snap.sum_milli, 1000 * (0u + 10 + 11 + 100 + 1000 + 1001));
}

TEST(HistogramTest, ResetZeroesBucketsAndTotals) {
  Histogram h({5});
  h.Record(1);
  h.Record(100);
  h.Reset();
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum_milli, 0u);
  EXPECT_EQ(snap.counts[0], 0u);
  EXPECT_EQ(snap.counts[1], 0u);
}

TEST(HistogramSnapshotTest, MergeSumsBucketsCountAndSum) {
  Histogram a({10, 100});
  Histogram b({10, 100});
  a.Record(5);
  a.Record(500);
  b.Record(50);
  b.Record(50);

  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.counts[0], 1u);
  EXPECT_EQ(merged.counts[1], 2u);
  EXPECT_EQ(merged.counts[2], 1u);
  EXPECT_EQ(merged.count, 4u);
  EXPECT_EQ(merged.sum_milli, 1000 * (5u + 500 + 50 + 50));
}

TEST(HistogramSnapshotTest, QuantileResolvesToBucketBound) {
  Histogram h({1, 2, 4, 8});
  for (int i = 0; i < 90; ++i) h.Record(1);
  for (int i = 0; i < 9; ++i) h.Record(4);
  h.Record(100);  // Overflow.

  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.Quantile(0.5), 1u);
  EXPECT_EQ(snap.Quantile(0.95), 4u);
  EXPECT_EQ(snap.Quantile(1.0), 8u);  // Overflow reports the last bound.
  EXPECT_EQ(HistogramSnapshot{}.Quantile(0.5), 0u);
}

TEST(HistogramTest, DefaultLatencyBoundsArePowersOfTwo) {
  const std::vector<uint64_t>& bounds = Histogram::DefaultLatencyBoundsUs();
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.front(), 1u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_EQ(bounds[i], bounds[i - 1] * 2);
  }
}

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x_total");
  Counter* b = registry.GetCounter("x_total");
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, KindMismatchReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("x"), nullptr);
  EXPECT_EQ(registry.GetGauge("x"), nullptr);
  EXPECT_EQ(registry.GetHistogram("x"), nullptr);
}

TEST(MetricsRegistryTest, ResetPreservesRegistrationAndPointers) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c_total");
  Histogram* h = registry.GetHistogram("h_us", {1, 2});
  c->Increment(3);
  h->Record(1);
  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(registry.GetCounter("c_total"), c);
  EXPECT_EQ(registry.GetHistogram("h_us"), h);
}

TEST(MetricsRegistryTest, EraseDropsOneInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("a_total")->Increment();
  registry.GetHistogram("b_us", {1});
  registry.Erase("b_us");
  registry.Erase("never_registered");
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.ExportText(), "a_total 1\n");
}

TEST(MetricsRegistryTest, ExportTextCountersAndGauges) {
  MetricsRegistry registry;
  registry.GetCounter("b_total")->Increment(2);
  registry.GetGauge("a_depth")->Set(-1);
  // Sorted by name (std::map order).
  EXPECT_EQ(registry.ExportText(), "a_depth -1\nb_total 2\n");
}

// Plain samples (an engine's counts) merge in name order with the
// registered instruments; a histogram sorts by its registered name.
TEST(MetricsRegistryTest, ExportTextMergesPlainSamplesInNameOrder) {
  MetricsRegistry registry;
  registry.GetGauge("b_depth")->Set(4);
  registry.GetHistogram("d_us", {1})->Record(1);
  EXPECT_EQ(registry.ExportText({{"a_total", 1}, {"c_total", 3},
                                 {"e_total", 5}}),
            "a_total 1\n"
            "b_depth 4\n"
            "c_total 3\n"
            "d_us_bucket{le=\"1\"} 1\n"
            "d_us_bucket{le=\"+Inf\"} 1\n"
            "d_us_sum 1\n"
            "d_us_count 1\n"
            "e_total 5\n");
  EXPECT_EQ(MetricsRegistry().ExportText({{"x_total", 2}}), "x_total 2\n");
}

TEST(MetricsRegistryTest, ExportTextHistogramCumulativeBuckets) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat_us", {1, 4});
  h->Record(1);
  h->Record(3);
  h->Record(9);
  EXPECT_EQ(registry.ExportText(),
            "lat_us_bucket{le=\"1\"} 1\n"
            "lat_us_bucket{le=\"4\"} 2\n"
            "lat_us_bucket{le=\"+Inf\"} 3\n"
            "lat_us_sum 13\n"
            "lat_us_count 3\n");
}

TEST(MetricsRegistryTest, ExportTextSplicesLeIntoExistingLabels) {
  MetricsRegistry registry;
  registry.GetHistogram("rule_us{rule=\"r1\"}", {8})->Record(2);
  EXPECT_EQ(registry.ExportText(),
            "rule_us_bucket{rule=\"r1\",le=\"8\"} 1\n"
            "rule_us_bucket{rule=\"r1\",le=\"+Inf\"} 1\n"
            "rule_us_sum{rule=\"r1\"} 2\n"
            "rule_us_count{rule=\"r1\"} 1\n");
}

// A snapshot exported with a label puts it first in every sample's label
// set: plain samples, counters, gauges and each histogram line.
TEST(MetricsRegistryTest, ExportTextPutsTheAddedLabelFirst) {
  MetricsRegistry registry;
  registry.GetCounter("a_total")->Increment();
  registry.GetGauge("b_depth{shard=\"0\"}")->Set(3);
  registry.GetHistogram("rule_us{rule=\"r1\"}", {8})->Record(2);
  registry.GetHistogram("lat_us", {8})->Record(9);
  EXPECT_EQ(registry.Snapshot({{"c_total{rule=\"r2\"}", 4}})
                .ExportText("tenant=\"t\""),
            "a_total{tenant=\"t\"} 1\n"
            "b_depth{tenant=\"t\",shard=\"0\"} 3\n"
            "c_total{tenant=\"t\",rule=\"r2\"} 4\n"
            "lat_us_bucket{tenant=\"t\",le=\"8\"} 0\n"
            "lat_us_bucket{tenant=\"t\",le=\"+Inf\"} 1\n"
            "lat_us_sum{tenant=\"t\"} 9\n"
            "lat_us_count{tenant=\"t\"} 1\n"
            "rule_us_bucket{tenant=\"t\",rule=\"r1\",le=\"8\"} 1\n"
            "rule_us_bucket{tenant=\"t\",rule=\"r1\",le=\"+Inf\"} 1\n"
            "rule_us_sum{tenant=\"t\",rule=\"r1\"} 2\n"
            "rule_us_count{tenant=\"t\",rule=\"r1\"} 1\n");
}

// A sampled per-rule timer records nanoseconds: a 600 ns match handled
// at weight 64 adds 38.4 us to _sum (whole microseconds would add 0) and
// 64 to le="1", since the bucket takes the sample rounded up.
TEST(MetricsRegistryTest, SubMicrosecondSamplesKeepTheirSum) {
  MetricsRegistry registry;
  registry.GetHistogram("handle_us", {1, 2})->RecordMilli(600, 64);
  EXPECT_EQ(registry.ExportText(),
            "handle_us_bucket{le=\"1\"} 64\n"
            "handle_us_bucket{le=\"2\"} 64\n"
            "handle_us_bucket{le=\"+Inf\"} 64\n"
            "handle_us_sum 38.4\n"
            "handle_us_count 64\n");
  Histogram h(Histogram::DefaultLatencyBoundsUs());
  h.RecordMilli(1001);  // 1.001 us rounds up into le="2".
  EXPECT_EQ(h.Snapshot().counts[0], 0u);
  EXPECT_EQ(h.Snapshot().counts[1], 1u);
  EXPECT_EQ(h.sum_milli(), 1001u);
}

// --- Concurrency (runs under the TSAN ctest label) -----------------------

TEST(MetricsConcurrencyTest, ParallelCounterIncrementsAreExact) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("hits_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsConcurrencyTest, ParallelHistogramRecordsAreExact) {
  Histogram h({1, 2, 4, 8, 16});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += static_cast<uint64_t>(t) * kPerThread;
  }
  EXPECT_EQ(snap.sum_milli, 1000 * expected_sum);
}

TEST(MetricsConcurrencyTest, ParallelRegistrationIsRaceFree) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(kThreads, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      // Everyone races to register the same name plus a private one;
      // the shared pointer must come back identical everywhere.
      Counter* shared = registry.GetCounter("shared_total");
      registry.GetCounter("private_" + std::to_string(t))->Increment();
      shared->Increment();
      seen[t] = shared;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->value(), static_cast<uint64_t>(kThreads));
  EXPECT_EQ(registry.size(), 1u + kThreads);
}

}  // namespace
}  // namespace rfidcep::common
