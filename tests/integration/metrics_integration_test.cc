// Integration test for the observability layer: replay a known
// supply-chain trace with metrics on and assert that ExportMetrics()
// totals reconcile exactly with EngineStats and FiredCount.

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/trace.h"
#include "sim/supply_chain.h"
#include "store/database.h"

namespace rfidcep::engine {
namespace {

constexpr int kNumRules = 25;
constexpr size_t kNumEvents = 20000;
constexpr size_t kBatchSize = 512;

// Parses Prometheus text exposition: `name{labels} value` per line.
// Histogram series show up under their spliced `_bucket`/`_sum`/`_count`
// names; everything keeps its label set as part of the key.
std::map<std::string, int64_t> ParseExposition(const std::string& text) {
  std::map<std::string, int64_t> samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    if (space == std::string::npos) continue;
    samples[line.substr(0, space)] = std::stoll(line.substr(space + 1));
  }
  return samples;
}

int64_t SampleOr(const std::map<std::string, int64_t>& samples,
                 const std::string& name, int64_t fallback = -1) {
  auto it = samples.find(name);
  return it != samples.end() ? it->second : fallback;
}

class MetricsIntegrationTest : public ::testing::Test {
 protected:
  MetricsIntegrationTest() : chain_(MakeConfig()) {
    program_ = chain_.GeneratedRuleProgram(kNumRules);
    stream_ = chain_.GenerateStream(kNumEvents);
  }

  static sim::SupplyChainConfig MakeConfig() {
    sim::SupplyChainConfig config;
    config.seed = 20060327;
    config.num_sites = 5;
    return config;
  }

  // Replays the trace with metrics enabled and cross-checks the
  // exposition against the engine's own accounting.
  void RunAndReconcile() {
    store::Database db;
    ASSERT_TRUE(db.InstallRfidSchema().ok());
    EngineOptions options;
    options.execute_actions = true;
    options.enable_metrics = true;
    options.detector.tolerate_out_of_order = true;
    RcedaEngine engine(&db, chain_.environment(), options);
    ASSERT_TRUE(engine.AddRulesFromText(program_).ok());
    ASSERT_TRUE(engine.Compile().ok());

    for (size_t begin = 0; begin < stream_.size(); begin += kBatchSize) {
      size_t end = std::min(begin + kBatchSize, stream_.size());
      std::vector<events::Observation> batch(stream_.begin() + begin,
                                             stream_.begin() + end);
      ASSERT_TRUE(engine.ProcessAll(batch).ok());
    }
    ASSERT_TRUE(engine.Flush().ok());

    std::map<std::string, int64_t> samples =
        ParseExposition(engine.ExportMetrics());
    const EngineStats& stats = engine.stats();

    // Engine-global acceptance counters reconcile with DetectorStats.
    EXPECT_EQ(SampleOr(samples, "rfidcep_observations_total"),
              static_cast<int64_t>(stats.detector.observations));
    EXPECT_EQ(SampleOr(samples, "rfidcep_out_of_order_dropped_total", 0),
              static_cast<int64_t>(stats.detector.out_of_order_dropped));

    // Match/fire/condition accounting.
    EXPECT_EQ(SampleOr(samples, "rfidcep_rules_fired_total"),
              static_cast<int64_t>(stats.rules_fired));
    EXPECT_EQ(SampleOr(samples, "rfidcep_condition_rejects_total"),
              static_cast<int64_t>(stats.condition_rejects));
    EXPECT_EQ(SampleOr(samples, "rfidcep_matches_total"),
              static_cast<int64_t>(stats.rules_fired + stats.condition_rejects +
                                   stats.condition_errors));
    EXPECT_GT(stats.rules_fired, 0u);

    // Per-rule fired counters reconcile with FiredCount, rule by rule.
    uint64_t fired_sum = 0;
    for (int i = 0; i < kNumRules; ++i) {
      std::string id = "gen" + std::to_string(i);
      EXPECT_EQ(SampleOr(samples, "rule_fired_total{rule=\"" + id + "\"}", 0),
                static_cast<int64_t>(engine.FiredCount(id)))
          << id;
      fired_sum += engine.FiredCount(id);
    }
    EXPECT_EQ(fired_sum, stats.rules_fired);

    // Action counters reconcile with the dispatcher's accounting.
    EXPECT_EQ(SampleOr(samples, "actions_sql_total", 0),
              static_cast<int64_t>(stats.sql_actions_executed));
    EXPECT_EQ(SampleOr(samples, "actions_procedures_total", 0),
              static_cast<int64_t>(stats.procedures_invoked));

    // Detection-tier counters.
    EXPECT_EQ(SampleOr(samples, "detector_rule_matches_total{shard=\"0\"}"),
              static_cast<int64_t>(stats.detector.rule_matches));

    // The timing histogram saw every ProcessAll/Flush-adjacent call.
    EXPECT_EQ(SampleOr(samples, "rfidcep_process_us_count"),
              SampleOr(samples, "rfidcep_process_calls_total"));
    EXPECT_GT(SampleOr(samples, "rfidcep_process_calls_total"), 0);
  }

  sim::SupplyChain chain_;
  std::string program_;
  std::vector<events::Observation> stream_;
};

TEST_F(MetricsIntegrationTest, ExportReconciles) { RunAndReconcile(); }

// Metrics off: the exposition is the disabled sentinel and processing
// still works (every instrumentation site must tolerate null).
TEST_F(MetricsIntegrationTest, DisabledMetricsExportSentinel) {
  EngineOptions options;
  options.enable_metrics = false;
  options.detector.tolerate_out_of_order = true;
  RcedaEngine engine(nullptr, chain_.environment(), options);
  ASSERT_TRUE(engine.AddRulesFromText(program_).ok());
  ASSERT_TRUE(engine.Compile().ok());
  std::vector<events::Observation> head(stream_.begin(),
                                        stream_.begin() + 1000);
  ASSERT_TRUE(engine.ProcessAll(head).ok());
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(engine.ExportMetrics(), "# metrics disabled\n");
  EXPECT_GT(engine.stats().detector.observations, 0u);
}

// Reset() zeroes instrument values but preserves registration, so a
// second identical replay reconciles identically.
TEST_F(MetricsIntegrationTest, ResetZeroesCountersAndReplayMatches) {
  EngineOptions options;
  options.enable_metrics = true;
  options.detector.tolerate_out_of_order = true;
  RcedaEngine engine(nullptr, chain_.environment(), options);
  ASSERT_TRUE(engine.AddRulesFromText(program_).ok());
  ASSERT_TRUE(engine.Compile().ok());
  std::vector<events::Observation> head(stream_.begin(),
                                        stream_.begin() + 2000);
  ASSERT_TRUE(engine.ProcessAll(head).ok());
  ASSERT_TRUE(engine.Flush().ok());
  // Wall-clock histograms (*_us) vary run to run; the counters must not.
  auto counters_only = [](const std::string& text) {
    std::map<std::string, int64_t> out;
    for (const auto& [name, value] : ParseExposition(text)) {
      if (name.find("_us") == std::string::npos) out[name] = value;
    }
    return out;
  };
  std::map<std::string, int64_t> first =
      counters_only(engine.ExportMetrics());
  EXPECT_GT(first.at("rfidcep_observations_total"), 0);
  ASSERT_TRUE(engine.Reset().ok());
  EXPECT_EQ(counters_only(engine.ExportMetrics())
                .at("rfidcep_observations_total"),
            0);
  ASSERT_TRUE(engine.ProcessAll(head).ok());
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(counters_only(engine.ExportMetrics()), first);
}

// The lifecycle trace and the counters agree on the same replay.
TEST_F(MetricsIntegrationTest, TraceRecordsMatchCounters) {
  uint64_t obs_records = 0, match_records = 0;
  TraceSink sink([&](std::string_view line) {
    if (line.find("\"k\":\"obs\"") != std::string_view::npos) ++obs_records;
    if (line.find("\"k\":\"match\"") != std::string_view::npos) {
      ++match_records;
    }
  });
  EngineOptions options;
  options.enable_metrics = true;
  options.detector.tolerate_out_of_order = true;
  RcedaEngine engine(nullptr, chain_.environment(), options);
  ASSERT_TRUE(engine.SetTraceSink(&sink).ok());
  ASSERT_TRUE(engine.AddRulesFromText(program_).ok());
  ASSERT_TRUE(engine.Compile().ok());
  std::vector<events::Observation> head(stream_.begin(),
                                        stream_.begin() + 2000);
  ASSERT_TRUE(engine.ProcessAll(head).ok());
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(obs_records, head.size());
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(match_records, stats.rules_fired + stats.condition_rejects +
                               stats.condition_errors);
}

}  // namespace
}  // namespace rfidcep::engine
