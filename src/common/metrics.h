// Lock-free metrics primitives and a process-local registry.
//
// The detection hot path must stay allocation-free and contention-free,
// so every instrument is a fixed set of relaxed atomics: counters and
// gauges are a single word, histograms are a fixed array of bucket
// counters (bounds chosen at registration, never resized). Registration
// and export take a mutex, but they run off the hot path (compile time /
// operator request); instrument pointers handed out by the registry stay
// valid for the registry's lifetime, so instrumented code holds raw
// pointers and updating is wait-free.
//
// Instrumented components follow one convention: they hold a pointer to
// a struct of instrument pointers which is null when metrics are
// disabled, so the disabled path is a single predictable branch.
// Metrics default on at compile time (cmake -DRFIDCEP_METRICS=OFF flips
// the default); EngineOptions::enable_metrics toggles per engine at
// runtime.
//
// ExportText() emits the Prometheus text exposition format (one
// `name{labels} value` line per sample; histograms expand to
// `_bucket{le=...}` / `_sum` / `_count` series) so the output can be
// scraped or diffed directly in CI.

#ifndef RFIDCEP_COMMON_METRICS_H_
#define RFIDCEP_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rfidcep::common {

// Compile-time default for EngineOptions::enable_metrics.
#ifndef RFIDCEP_METRICS_DEFAULT
#define RFIDCEP_METRICS_DEFAULT 1
#endif
inline constexpr bool kMetricsDefaultEnabled = RFIDCEP_METRICS_DEFAULT != 0;

// A monotonically increasing 64-bit counter. Increment is a relaxed
// fetch-add: totals are exact once the writers are quiescent (which
// every engine entry point guarantees by barriering before it returns).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A last-written-wins signed gauge with an atomic running maximum
// (UpdateMax) for high-watermark tracking (ring depth, queue depth).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  // Raises the gauge to `v` if `v` is larger (CAS loop; wait-free in
  // practice since a single writer owns each gauge).
  void UpdateMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// An immutable point-in-time copy of a histogram, mergeable across
// instruments (e.g. per-rule histograms sum into one view).
struct HistogramSnapshot {
  std::vector<uint64_t> bounds;  // Inclusive upper bounds, ascending.
  std::vector<uint64_t> counts;  // bounds.size() + 1 (last = overflow).
  uint64_t count = 0;
  uint64_t sum = 0;

  // Adds `other` in. Bounds must match (histograms from the same family).
  void Merge(const HistogramSnapshot& other);
  // Smallest bound whose cumulative count reaches quantile `q` in [0, 1];
  // overflow resolves to the largest bound. 0 when empty.
  uint64_t Quantile(double q) const;
};

// A fixed-bucket histogram: bucket i counts samples <= bounds[i] (first
// matching bucket), with one implicit overflow bucket. Record is two
// relaxed fetch-adds plus a short branchless-friendly scan of the bounds
// array — no allocation, no locks.
class Histogram {
 public:
  // `bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<uint64_t> bounds);

  void Record(uint64_t sample) {
    size_t i = 0;
    while (i < bounds_.size() && sample > bounds_[i]) ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<uint64_t>& bounds() const { return bounds_; }
  HistogramSnapshot Snapshot() const;
  void Reset();

  // Power-of-two microsecond latency bounds, 1us .. ~67s. The default
  // for every *_us histogram in the engine.
  static const std::vector<uint64_t>& DefaultLatencyBoundsUs();

 private:
  std::vector<uint64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1.
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// Owns every instrument and resolves names to stable pointers. A name is
// the full Prometheus-style sample name including labels, e.g.
// `rule_fired_total{rule="r1"}`; the registry treats it as an opaque key
// except that ExportText() splices histogram `le` labels into an
// existing label set. Getting an already-registered name returns the
// same instrument (so several components can share one); getting a
// name registered as a different kind returns nullptr.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  // Empty `bounds` uses Histogram::DefaultLatencyBoundsUs().
  Histogram* GetHistogram(const std::string& name,
                          std::vector<uint64_t> bounds = {});

  // Prometheus text exposition, samples sorted by name. Counters print
  // as-is; gauges likewise; each histogram expands into cumulative
  // `<name>_bucket{le="..."}` lines plus `<name>_sum` / `<name>_count`.
  std::string ExportText() const;

  // Zeroes every instrument; registration (names, bounds, handed-out
  // pointers) is preserved. Pairs with RcedaEngine::Reset().
  void Reset();

  // Every registered counter's (name, value), sorted by name. Snapshot
  // payloads carry these so restored engines keep their counter totals.
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;

  size_t size() const;

 private:
  struct Entry {
    // Exactly one is set.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace rfidcep::common

#endif  // RFIDCEP_COMMON_METRICS_H_
