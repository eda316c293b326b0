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
// EngineOptions::enable_metrics toggles collection per engine. The
// engine keeps its counts in its own statistics, not here, and hands
// them to ExportText() as plain samples.
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
#include <string_view>
#include <utility>
#include <vector>

namespace rfidcep::common {

// A monotonically increasing 64-bit counter. Increment is a relaxed
// fetch-add: totals are exact once the writers are quiescent.
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

// A last-written-wins signed gauge.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
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
  // Sum of the samples in thousandths of the unit (a nanosecond of a _us
  // timer); the exposition prints it in units, fractional when it is not
  // whole.
  uint64_t sum_milli = 0;

  // Adds `other` in. Bounds must match (histograms from the same family).
  void Merge(const HistogramSnapshot& other);
  // Smallest bound whose cumulative count reaches quantile `q` in [0, 1];
  // overflow resolves to the largest bound. 0 when empty.
  uint64_t Quantile(double q) const;
};

// A fixed-bucket histogram: bucket i counts samples <= bounds[i] (first
// matching bucket), with one implicit overflow bucket. Record is three
// relaxed fetch-adds plus a short branchless-friendly scan of the bounds
// array — no allocation, no locks.
class Histogram {
 public:
  // `bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<uint64_t> bounds);

  // Records `sample` `weight` times: a sampled timer that measures one
  // event in `weight` lets each measurement stand for the events it
  // skipped, so count, sum and buckets keep estimating every event.
  void Record(uint64_t sample, uint64_t weight = 1) {
    Add(sample, sample * 1000, weight);
  }
  // Records a sample of `milli` thousandths of the unit `weight` times
  // (a _us timer's nanoseconds). The sum keeps the thousandths; the
  // bucket is the one of the sample rounded up, so a 600 ns sample lands
  // in le="1" and a bucket bound still means "at most".
  void RecordMilli(uint64_t milli, uint64_t weight = 1) {
    Add(milli / 1000 + (milli % 1000 != 0 ? 1 : 0), milli, weight);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  // The sum in thousandths of the unit (see HistogramSnapshot::sum_milli).
  uint64_t sum_milli() const {
    return sum_milli_.load(std::memory_order_relaxed);
  }
  const std::vector<uint64_t>& bounds() const { return bounds_; }
  HistogramSnapshot Snapshot() const;
  void Reset();

  // Power-of-two microsecond latency bounds, 1us .. ~67s. The default
  // for every *_us histogram in the engine.
  static const std::vector<uint64_t>& DefaultLatencyBoundsUs();

 private:
  // Counts `weight` samples of `units` (bucketed) and `milli` (summed).
  void Add(uint64_t units, uint64_t milli, uint64_t weight) {
    size_t i = 0;
    while (i < bounds_.size() && units > bounds_[i]) ++i;
    buckets_[i].fetch_add(weight, std::memory_order_relaxed);
    count_.fetch_add(weight, std::memory_order_relaxed);
    sum_milli_.fetch_add(milli * weight, std::memory_order_relaxed);
  }

  std::vector<uint64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1.
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_milli_{0};
};

// A point-in-time copy of a registry's instruments plus plain samples,
// formatted later: taking it is the only part of an export that reads
// the instruments, so a caller that guards them with a lock formats
// after releasing it.
struct MetricsSnapshot {
  struct Instrument {
    enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
    std::string name;
    Kind kind = Kind::kCounter;
    uint64_t counter = 0;         // kCounter.
    int64_t gauge = 0;            // kGauge.
    HistogramSnapshot histogram;  // kHistogram.
  };
  std::vector<Instrument> instruments;  // Sorted by name.
  // Sorted by name, none among the instruments.
  std::vector<std::pair<std::string, uint64_t>> samples;

  // Prometheus text exposition, samples sorted by name. Counters print
  // as-is; gauges likewise; each histogram expands into cumulative
  // `<name>_bucket{le="..."}` lines plus `<name>_sum` / `<name>_count`.
  // The plain samples print as-is, merged in name order with the
  // instruments. A nonempty `label` (e.g. `tenant="t"`) goes first in
  // every sample's label set: `x{a="b"}` -> `x{tenant="t",a="b"}`.
  std::string ExportText(std::string_view label = {}) const;
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

  // Copies every instrument, with `samples` (sorted by name, none
  // registered here) alongside.
  MetricsSnapshot Snapshot(
      std::vector<std::pair<std::string, uint64_t>> samples = {}) const;
  // Snapshot(samples).ExportText().
  std::string ExportText(
      std::vector<std::pair<std::string, uint64_t>> samples = {}) const {
    return Snapshot(std::move(samples)).ExportText();
  }

  // Zeroes every instrument; registration (names, bounds, handed-out
  // pointers) is preserved. Pairs with RcedaEngine::Reset().
  void Reset();

  // Drops the instrument registered as `name`, if any; a pointer to it
  // dangles afterwards, so the caller must hold none.
  void Erase(const std::string& name);

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
