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
// run, including process calls, rows written, deduplicated actions and
// full-scan dispatches.
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

// --- Sampled per-match timers -------------------------------------------

constexpr uint64_t kPeriod = RcedaEngine::kMatchTimingPeriod;

// What a rule's per-match timer _count reads after `matches` matches
// since its histograms were last zeroed at `from` matches: the weights of
// the sampled ordinals (1, N+1, 2N+1, ...) in (from, matches], the first
// weighing 1 and every later one N.
int64_t SampledCount(uint64_t from, uint64_t matches) {
  int64_t count = 0;
  for (uint64_t ordinal = from + 1; ordinal <= matches; ++ordinal) {
    if ((ordinal - 1) % kPeriod == 0) {
      count += ordinal == 1 ? 1 : static_cast<int64_t>(kPeriod);
    }
  }
  return count;
}

// A rule that matches every observation, with a condition that holds and
// a procedure action, so all three per-match timers run.
constexpr std::string_view kEveryObservationRule = R"(
  CREATE RULE every, every observation
  ON observation(r, o, t)
  IF o != 'none'
  DO note observation
)";

struct EveryObservation {
  explicit EveryObservation(RcedaEngine* engine) : engine(engine) {
    EXPECT_TRUE(engine->AddRulesFromText(kEveryObservationRule).ok());
    engine->RegisterProcedure(
        "note observation",
        [](const RuleFiring&, const std::string&) {});
    EXPECT_TRUE(engine->Compile().ok());
  }
  // Feeds `n` observations, one match each.
  void Feed(int n) {
    for (int i = 0; i < n; ++i) {
      std::string object = "o";
      object += std::to_string(next);
      ASSERT_TRUE(
          engine->Process(events::Observation{"r1", object, next * kSecond})
              .ok());
      ++next;
    }
  }
  // {handle, condition, action} _count and rule_matches_total.
  std::vector<int64_t> Counts() const {
    const std::map<std::string, int64_t> samples =
        ParseExposition(engine->ExportMetrics());
    std::vector<int64_t> out;
    for (const char* family :
         {"rule_match_handle_us", "rule_condition_us", "rule_action_us",
          "rule_matches_total"}) {
      const std::string suffix =
          std::string_view(family).ends_with("_total") ? "" : "_count";
      out.push_back(
          SampleOr(samples, family + suffix + "{rule=\"every\"}"));
    }
    return out;
  }
  RcedaEngine* engine;
  int64_t next = 1;
};

// The sampling rule, match by match: the first match is timed (weight 1),
// the next N-1 are not, the (N+1)th is (weight N), and so on; each timer's
// _count never exceeds rule_matches_total and trails it by less than N.
TEST(MatchTimingTest, FirstMatchAndEveryNthAfterItAreTimed) {
  RcedaEngine engine(nullptr, events::Environment{});
  EveryObservation rule(&engine);
  const int64_t n = static_cast<int64_t>(kPeriod);
  rule.Feed(1);
  EXPECT_EQ(rule.Counts(), (std::vector<int64_t>{1, 1, 1, 1}));
  rule.Feed(static_cast<int>(kPeriod) - 1);
  EXPECT_EQ(rule.Counts(), (std::vector<int64_t>{1, 1, 1, n}));
  rule.Feed(1);
  EXPECT_EQ(rule.Counts(),
            (std::vector<int64_t>{1 + n, 1 + n, 1 + n, n + 1}));
  for (int step = 0; step < 3 * static_cast<int>(kPeriod); ++step) {
    rule.Feed(1);
    const std::vector<int64_t> counts = rule.Counts();
    const int64_t matches = counts[3];
    for (int timer = 0; timer < 3; ++timer) {
      EXPECT_EQ(counts[timer],
                SampledCount(0, static_cast<uint64_t>(matches)))
          << "timer " << timer << " at " << matches << " matches";
      EXPECT_LE(counts[timer], matches);
      EXPECT_LT(matches - counts[timer], n);
    }
  }
}

// The phase is read from the rule's match count, which a checkpoint
// carries: a restored engine (whose histograms restart at zero) times
// exactly the ordinals an uninterrupted engine times after the cut.
TEST(MatchTimingTest, SamplingPhaseContinuesAcrossCheckpointRestore) {
  constexpr int kHead = 100;  // Not a multiple of the period.
  constexpr int kTail = 100;
  static_assert(kHead % RcedaEngine::kMatchTimingPeriod != 0);
  std::string bytes;
  int64_t head_count = 0;
  {
    RcedaEngine source(nullptr, events::Environment{});
    EveryObservation rule(&source);
    rule.Feed(kHead);
    head_count = rule.Counts()[0];
    ASSERT_TRUE(source.SerializeState(&bytes).ok());
  }
  RcedaEngine restored(nullptr, events::Environment{});
  EveryObservation restored_rule(&restored);
  ASSERT_TRUE(restored.RestoreState(bytes).ok());
  restored_rule.next = kHead + 1;
  restored_rule.Feed(kTail);

  RcedaEngine uninterrupted(nullptr, events::Environment{});
  EveryObservation whole(&uninterrupted);
  whole.Feed(kHead + kTail);

  const std::vector<int64_t> tail = restored_rule.Counts();
  EXPECT_EQ(tail[3], kHead + kTail);
  EXPECT_EQ(head_count, SampledCount(0, kHead));
  for (int timer = 0; timer < 3; ++timer) {
    EXPECT_EQ(tail[timer], SampledCount(kHead, kHead + kTail)) << timer;
    // What an engine restarting the phase at its first match would read.
    EXPECT_NE(tail[timer], SampledCount(0, kTail)) << timer;
    EXPECT_EQ(head_count + tail[timer], whole.Counts()[timer]) << timer;
  }
}

// On a supply-chain replay every rule's timers follow the same rule.
TEST_F(MetricsIntegrationTest, RuleTimerCountsTrailMatchesByLessThanN) {
  EngineOptions options;
  options.detector.tolerate_out_of_order = true;
  RcedaEngine engine(nullptr, chain_.environment(), options);
  ASSERT_TRUE(engine.AddRulesFromText(program_).ok());
  ASSERT_TRUE(engine.Compile().ok());
  ASSERT_TRUE(engine.ProcessAll(stream_).ok());
  ASSERT_TRUE(engine.Flush().ok());
  const std::map<std::string, int64_t> samples =
      ParseExposition(engine.ExportMetrics());
  int rules_matched = 0;
  for (int i = 0; i < kNumRules; ++i) {
    const std::string label = "{rule=\"gen" + std::to_string(i) + "\"}";
    const int64_t matches = SampleOr(samples, "rule_matches_total" + label);
    const int64_t handled =
        SampleOr(samples, "rule_match_handle_us_count" + label);
    ASSERT_GE(matches, 0) << label;
    EXPECT_EQ(handled, SampledCount(0, static_cast<uint64_t>(matches)))
        << label;
    EXPECT_LE(handled, matches) << label;
    EXPECT_LT(matches - handled, static_cast<int64_t>(kPeriod)) << label;
    if (matches > 0) {
      EXPECT_GE(handled, 1) << label;  // The first match is timed.
      ++rules_matched;
    }
  }
  EXPECT_GT(rules_matched, 0);
}

// Collection changes no detection result: on the Fig. 9a workload
// (bench/fig9_scalability's stream and rule family) metrics on and off
// deliver the same matches, fire the same rules and write byte-identical
// checkpoints, mid-stream and at the end.
TEST(MetricsOnOffTest, Fig9aMatchesFiredCountsAndCheckpointsAgree) {
  sim::SupplyChainConfig config;
  config.seed = 20060327;
  config.num_sites = 5;
  config.num_items = 10000;
  config.num_cases = 1000;
  config.arrival_rate_per_second = 1000.0;
  config.duplicate_rate = 0.03;
  sim::SupplyChain chain(config);
  const std::string program = chain.GeneratedRuleProgram(25);
  const std::vector<events::Observation> stream = chain.GenerateStream(20000);

  struct Run {
    std::vector<std::string> matches;
    std::vector<std::string> checkpoints;
    std::vector<uint64_t> fired;
    uint64_t rules_fired = 0;
  };
  auto run = [&](bool metrics) {
    Run out;
    EngineOptions options;
    options.execute_actions = false;  // As Fig. 9a measures.
    options.enable_metrics = metrics;
    RcedaEngine engine(nullptr, chain.environment(), options);
    EXPECT_TRUE(engine.AddRulesFromText(program).ok());
    engine.SetMatchCallback([&out](const rules::Rule& rule,
                                   const events::EventInstancePtr& e) {
      out.matches.push_back(rule.id + "@" + e->ToString());
    });
    EXPECT_TRUE(engine.Compile().ok());
    for (size_t begin = 0; begin < stream.size(); begin += 1024) {
      const size_t end = std::min(begin + 1024, stream.size());
      EXPECT_TRUE(engine
                      .ProcessAll(std::vector<events::Observation>(
                          stream.begin() + static_cast<long>(begin),
                          stream.begin() + static_cast<long>(end)))
                      .ok());
      if (begin == 10 * 1024) {
        EXPECT_TRUE(
            engine.SerializeState(&out.checkpoints.emplace_back()).ok());
      }
    }
    EXPECT_TRUE(engine.Flush().ok());
    EXPECT_TRUE(engine.SerializeState(&out.checkpoints.emplace_back()).ok());
    for (size_t i = 0; i < engine.num_rules(); ++i) {
      out.fired.push_back(engine.FiredCount(engine.rule(i).id));
    }
    out.rules_fired = engine.stats().rules_fired;
    return out;
  };
  const Run on = run(true);
  const Run off = run(false);
  EXPECT_GT(on.matches.size(), stream.size());  // ~1.4 matches per obs.
  EXPECT_EQ(on.matches, off.matches);
  EXPECT_EQ(on.fired, off.fired);
  EXPECT_EQ(on.rules_fired, off.rules_fired);
  ASSERT_EQ(on.checkpoints.size(), 2u);
  EXPECT_EQ(on.checkpoints, off.checkpoints);
}

}  // namespace
}  // namespace rfidcep::engine
