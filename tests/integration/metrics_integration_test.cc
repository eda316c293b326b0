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

// Every counter of an exposition (the `_total` series): gauges, such as
// a restore's `restore_ns`, and timing histograms dropped.
std::map<std::string, int64_t> Counters(const std::string& text) {
  std::map<std::string, int64_t> out;
  for (const auto& [name, value] : ParseExposition(text)) {
    if (name.find("_total") != std::string::npos) out[name] = value;
  }
  return out;
}

// Decompile() keeps the statistics, and the next Compile() keeps counting
// them: after a recompile, stats(), FiredCount and every exported counter
// agree, and each counter is the sum of what the engine counted before
// the recompile and what a fresh engine counts on the stream after it.
// Per-node firings belong to the graph and restart with it.
TEST_F(MetricsIntegrationTest, CountsSurviveDecompileAndCompile) {
  EngineOptions options;
  options.enable_metrics = true;
  options.detector.tolerate_out_of_order = true;
  const std::vector<events::Observation> head(stream_.begin(),
                                              stream_.begin() + 2000);
  const std::vector<events::Observation> tail(stream_.begin() + 2000,
                                              stream_.begin() + 4000);
  RcedaEngine engine(nullptr, chain_.environment(), options);
  ASSERT_TRUE(engine.AddRulesFromText(program_).ok());
  ASSERT_TRUE(engine.Compile().ok());
  ASSERT_TRUE(engine.ProcessAll(head).ok());
  const std::map<std::string, int64_t> before =
      Counters(engine.ExportMetrics());
  engine.Decompile();
  ASSERT_TRUE(engine.Compile().ok());
  ASSERT_TRUE(engine.ProcessAll(tail).ok());
  ASSERT_TRUE(engine.Flush().ok());

  RcedaEngine fresh(nullptr, chain_.environment(), options);
  ASSERT_TRUE(fresh.AddRulesFromText(program_).ok());
  ASSERT_TRUE(fresh.Compile().ok());
  ASSERT_TRUE(fresh.ProcessAll(tail).ok());
  ASSERT_TRUE(fresh.Flush().ok());
  const std::map<std::string, int64_t> after_only =
      Counters(fresh.ExportMetrics());

  const std::string text = engine.ExportMetrics();
  const std::map<std::string, int64_t> samples = ParseExposition(text);
  const std::map<std::string, int64_t> counters = Counters(text);
  ASSERT_EQ(counters.size(), before.size());
  ASSERT_EQ(counters.size(), after_only.size());
  for (const auto& [name, value] : counters) {
    const int64_t want =
        name.starts_with("graph_node_firings_total{")
            ? after_only.at(name)
            : before.at(name) + after_only.at(name);
    EXPECT_EQ(value, want) << name;
  }

  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.detector.observations, head.size() + tail.size());
  EXPECT_EQ(SampleOr(samples, "rfidcep_observations_total"),
            static_cast<int64_t>(stats.detector.observations));
  EXPECT_EQ(SampleOr(samples, "rfidcep_rules_fired_total"),
            static_cast<int64_t>(stats.rules_fired));
  EXPECT_EQ(SampleOr(samples, "rfidcep_process_calls_total"), 2);
  EXPECT_EQ(SampleOr(samples, "rfidcep_process_us_count"), 2);
  uint64_t fired_sum = 0;
  for (int i = 0; i < kNumRules; ++i) {
    const std::string id = "gen" + std::to_string(i);
    EXPECT_EQ(SampleOr(samples, "rule_fired_total{rule=\"" + id + "\"}"),
              static_cast<int64_t>(engine.FiredCount(id)))
        << id;
    fired_sum += engine.FiredCount(id);
  }
  EXPECT_EQ(fired_sum, stats.rules_fired);
  EXPECT_GT(before.at("rfidcep_rules_fired_total"), 0);
  EXPECT_GT(after_only.at("rfidcep_rules_fired_total"), 0);
}

// A checkpoint carries every count whether metrics are on or off: a
// metrics-off checkpoint restored into a metrics-on engine finishes the
// stream on the counters and statistics of an uninterrupted metrics-on
// run, including the counts only the counter section holds.
TEST_F(MetricsIntegrationTest, MetricsOffCheckpointKeepsEveryCount) {
  EngineOptions on;
  on.detector.tolerate_out_of_order = true;
  EngineOptions off = on;
  off.enable_metrics = false;
  const std::vector<events::Observation> head(stream_.begin(),
                                              stream_.begin() + 2000);
  const std::vector<events::Observation> tail(stream_.begin() + 2000,
                                              stream_.begin() + 4000);
  // The restored engine continues on the source's store, as it would
  // after WAL replay, so its UPDATEs touch the rows the head inserted.
  store::Database db, uninterrupted_db;
  ASSERT_TRUE(db.InstallRfidSchema().ok());
  ASSERT_TRUE(uninterrupted_db.InstallRfidSchema().ok());
  std::string bytes;
  {
    RcedaEngine source(&db, chain_.environment(), off);
    ASSERT_TRUE(source.AddRulesFromText(program_).ok());
    ASSERT_TRUE(source.Compile().ok());
    ASSERT_TRUE(source.ProcessAll(head).ok());
    ASSERT_TRUE(source.SerializeState(&bytes).ok());
  }

  RcedaEngine restored(&db, chain_.environment(), on);
  ASSERT_TRUE(restored.AddRulesFromText(program_).ok());
  ASSERT_TRUE(restored.Compile().ok());
  ASSERT_TRUE(restored.RestoreState(bytes).ok());
  ASSERT_TRUE(restored.ProcessAll(tail).ok());
  ASSERT_TRUE(restored.Flush().ok());

  RcedaEngine uninterrupted(&uninterrupted_db, chain_.environment(), on);
  ASSERT_TRUE(uninterrupted.AddRulesFromText(program_).ok());
  ASSERT_TRUE(uninterrupted.Compile().ok());
  ASSERT_TRUE(uninterrupted.ProcessAll(head).ok());
  ASSERT_TRUE(uninterrupted.ProcessAll(tail).ok());
  ASSERT_TRUE(uninterrupted.Flush().ok());

  EXPECT_EQ(Counters(restored.ExportMetrics()),
            Counters(uninterrupted.ExportMetrics()));
  const EngineStats& got = restored.stats();
  const EngineStats& want = uninterrupted.stats();
  EXPECT_EQ(got.process_calls, 2u);
  EXPECT_EQ(got.process_calls, want.process_calls);
  EXPECT_GT(got.rows_written, 0u);
  EXPECT_EQ(got.rows_written, want.rows_written);
  EXPECT_EQ(got.actions_deduped, want.actions_deduped);
  EXPECT_EQ(got.sql_actions_executed, want.sql_actions_executed);
  EXPECT_EQ(got.rules_fired, want.rules_fired);
  EXPECT_EQ(got.detector.observations, want.detector.observations);
  EXPECT_EQ(got.detector.fullscan_dispatches,
            want.detector.fullscan_dispatches);
  EXPECT_EQ(got.detector.rule_matches, want.detector.rule_matches);
}

// A removed rule's series leave with it; the other rules keep theirs.
TEST_F(MetricsIntegrationTest, RemovedRuleSeriesDisappear) {
  EngineOptions options;
  options.enable_metrics = true;
  options.detector.tolerate_out_of_order = true;
  RcedaEngine engine(nullptr, chain_.environment(), options);
  ASSERT_TRUE(engine.AddRulesFromText(program_).ok());
  ASSERT_TRUE(engine.Compile().ok());
  const std::vector<events::Observation> head(stream_.begin(),
                                              stream_.begin() + 2000);
  ASSERT_TRUE(engine.ProcessAll(head).ok());
  const std::string removed = "rule=\"gen0\"";
  const std::string kept = "rule=\"gen1\"";
  const std::map<std::string, int64_t> before =
      ParseExposition(engine.ExportMetrics());
  ASSERT_GT(SampleOr(before, "rule_matches_total{" + removed + "}"), 0);

  ASSERT_TRUE(engine.RemoveRule("gen0").ok());
  ASSERT_TRUE(engine.Compile().ok());
  const std::map<std::string, int64_t> after =
      ParseExposition(engine.ExportMetrics());
  size_t kept_series = 0;
  for (const auto& [name, value] : after) {
    EXPECT_EQ(name.find(removed), std::string::npos) << name;
    if (name.find(kept) != std::string::npos) {
      EXPECT_EQ(value, before.at(name)) << name;
      ++kept_series;
    }
  }
  size_t kept_before = 0;
  for (const auto& [name, value] : before) {
    if (name.find(kept) != std::string::npos) ++kept_before;
  }
  EXPECT_EQ(kept_series, kept_before);
  EXPECT_GT(kept_series, 2u);  // Two counters plus the histograms.
  EXPECT_EQ(SampleOr(after, "rfidcep_observations_total"),
            static_cast<int64_t>(head.size()));
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
