#include "common/metrics.h"

#include <algorithm>
#include <cassert>

namespace rfidcep::common {

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  assert(bounds == other.bounds && "merging histograms of different shape");
  if (counts.size() != other.counts.size()) return;
  for (size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  count += other.count;
  sum_milli += other.sum_milli;
}

uint64_t HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      return i < bounds.size() ? bounds[i] : bounds.back();
    }
  }
  return bounds.empty() ? 0 : bounds.back();
}

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)) {
  assert(!bounds_.empty());
  assert(std::is_sorted(bounds_.begin(), bounds_.end()) &&
         std::adjacent_find(bounds_.begin(), bounds_.end()) == bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snap.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count();
  snap.sum_milli = sum_milli();
  return snap;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_milli_.store(0, std::memory_order_relaxed);
}

const std::vector<uint64_t>& Histogram::DefaultLatencyBoundsUs() {
  static const std::vector<uint64_t>* bounds = [] {
    auto* b = new std::vector<uint64_t>;
    for (uint64_t v = 1; v <= (1ull << 26); v <<= 1) b->push_back(v);
    return b;
  }();
  return *bounds;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  if (entry.gauge != nullptr || entry.histogram != nullptr) return nullptr;
  if (entry.counter == nullptr) entry.counter = std::make_unique<Counter>();
  return entry.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  if (entry.counter != nullptr || entry.histogram != nullptr) return nullptr;
  if (entry.gauge == nullptr) entry.gauge = std::make_unique<Gauge>();
  return entry.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<uint64_t> bounds) {
  if (bounds.empty()) bounds = Histogram::DefaultLatencyBoundsUs();
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  if (entry.counter != nullptr || entry.gauge != nullptr) return nullptr;
  if (entry.histogram == nullptr) {
    entry.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return entry.histogram.get();
}

namespace {

// `name` with `suffix` after its base name and the labels `first` and
// `last` (either may be empty) around its own:
//   rule_x_us{rule="r1"}, _bucket, tenant="t", le="4"
//     -> rule_x_us_bucket{tenant="t",rule="r1",le="4"}
//   detect_us, _sum, "", "" -> detect_us_sum
std::string SpliceLabel(std::string_view name, std::string_view suffix,
                        std::string_view first, std::string_view last) {
  std::string labels;
  auto add = [&labels](std::string_view label) {
    if (label.empty()) return;
    if (!labels.empty()) labels += ',';
    labels += label;
  };
  add(first);
  const size_t brace = name.find('{');
  if (brace != std::string_view::npos) {
    add(name.substr(brace + 1, name.size() - brace - 2));
  }
  add(last);
  std::string out(name.substr(0, brace));
  out += suffix;
  if (!labels.empty()) out += "{" + labels + "}";
  return out;
}

// `milli` thousandths as a decimal: 38400 -> "38.4", 13000 -> "13".
std::string FormatMilli(uint64_t milli) {
  std::string out = std::to_string(milli / 1000);
  if (uint64_t frac = milli % 1000; frac != 0) {
    std::string digits = std::to_string(1000 + frac).substr(1);
    digits.erase(digits.find_last_not_of('0') + 1);
    out += "." + digits;
  }
  return out;
}

}  // namespace

MetricsSnapshot MetricsRegistry::Snapshot(
    std::vector<std::pair<std::string, uint64_t>> samples) const {
  MetricsSnapshot snap;
  snap.samples = std::move(samples);
  std::lock_guard<std::mutex> lock(mu_);
  snap.instruments.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    using Kind = MetricsSnapshot::Instrument::Kind;
    MetricsSnapshot::Instrument& out = snap.instruments.emplace_back();
    out.name = name;
    if (entry.counter != nullptr) {
      out.kind = Kind::kCounter;
      out.counter = entry.counter->value();
    } else if (entry.gauge != nullptr) {
      out.kind = Kind::kGauge;
      out.gauge = entry.gauge->value();
    } else {
      out.kind = Kind::kHistogram;
      out.histogram = entry.histogram->Snapshot();
    }
  }
  return snap;
}

std::string MetricsSnapshot::ExportText(std::string_view label) const {
  std::string out;
  // Starts the line of sample `name` (labelled, with `suffix`).
  auto line = [&](const std::string& name, std::string_view suffix = {},
                  std::string_view last = {}) {
    if (label.empty() && suffix.empty()) {
      out += name;
    } else {
      out += SpliceLabel(name, suffix, label, last);
    }
    out += ' ';
  };
  auto sample = samples.begin();
  // Prints the plain samples that sort before `name` (all when null).
  auto samples_before = [&](const std::string* name) {
    for (; sample != samples.end() &&
           (name == nullptr || sample->first < *name);
         ++sample) {
      line(sample->first);
      out += std::to_string(sample->second) + "\n";
    }
  };
  for (const Instrument& instrument : instruments) {
    const std::string& name = instrument.name;
    samples_before(&name);
    switch (instrument.kind) {
      case Instrument::Kind::kCounter:
        line(name);
        out += std::to_string(instrument.counter) + "\n";
        break;
      case Instrument::Kind::kGauge:
        line(name);
        out += std::to_string(instrument.gauge) + "\n";
        break;
      case Instrument::Kind::kHistogram: {
        const HistogramSnapshot& snap = instrument.histogram;
        uint64_t cumulative = 0;
        for (size_t i = 0; i < snap.counts.size(); ++i) {
          cumulative += snap.counts[i];
          std::string le = i < snap.bounds.size()
                               ? std::to_string(snap.bounds[i])
                               : "+Inf";
          line(name, "_bucket", "le=\"" + le + "\"");
          out += std::to_string(cumulative) + "\n";
        }
        line(name, "_sum");
        out += FormatMilli(snap.sum_milli) + "\n";
        line(name, "_count");
        out += std::to_string(snap.count) + "\n";
        break;
      }
    }
  }
  samples_before(nullptr);
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    if (entry.counter != nullptr) entry.counter->Reset();
    if (entry.gauge != nullptr) entry.gauge->Reset();
    if (entry.histogram != nullptr) entry.histogram->Reset();
  }
}

void MetricsRegistry::Erase(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(name);
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace rfidcep::common
