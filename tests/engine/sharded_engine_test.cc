// Lifecycle and parity tests for the sharded detection pipeline:
// partitioning, routing, Reset/Decompile/Flush, re-Compile with a new
// shard count, and the per-shard DebugReport.

#include "engine/sharded_engine.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "rules/parser.h"
#include "tests/engine/test_util.h"

namespace rfidcep::engine {
namespace {

using testing::EngineHarness;
using testing::RecordedMatch;

EngineOptions WithShards(int shards) {
  EngineOptions options;
  options.shards = shards;
  return options;
}

// Four EPC-keyed rules over distinct readers (so every shard is a keyed
// replica); a scripted stream that fires all of them, including via
// pseudo events (the NOT window rule).
constexpr char kFourRules[] = R"(
  CREATE RULE dup, duplicate filter
  ON WITHIN(observation("a", o, t1); observation("a", o, t2), 5sec)
  IF true
  DO send duplicate msg

  CREATE RULE pair, cross reader pair
  ON WITHIN(observation("b", o, t1) AND observation("c", o, t2), 10sec)
  IF true
  DO send alarm

  CREATE RULE quiet, no b after d
  ON WITHIN(observation("d", o, t1) AND NOT observation("b", o, t2), 3sec)
  IF true
  DO send alarm

  CREATE RULE solo, plain leaf
  ON observation("e", o, t1)
  IF true
  DO send alarm
)";

std::vector<events::Observation> ScriptedStream() {
  std::vector<events::Observation> stream;
  auto at = [](double sec) {
    return static_cast<TimePoint>(sec * kSecond);
  };
  stream.push_back({"a", "x", at(1)});
  stream.push_back({"b", "x", at(1.5)});
  stream.push_back({"a", "x", at(2)});    // dup fires.
  stream.push_back({"c", "x", at(3)});    // pair fires.
  stream.push_back({"d", "y", at(4)});    // quiet: window opens.
  stream.push_back({"e", "z", at(5)});    // solo fires.
  stream.push_back({"a", "q", at(8)});    // advances clock past 4+3.
  return stream;
}

struct RunSummary {
  std::vector<std::pair<std::string, std::pair<TimePoint, TimePoint>>>
      matches;
  uint64_t dup = 0, pair = 0, quiet = 0, solo = 0;
  uint64_t rule_matches = 0;
  uint64_t rules_fired = 0;
};

RunSummary RunScripted(int shards, bool batch) {
  EngineHarness h(WithShards(shards));
  EXPECT_TRUE(h.AddRules(kFourRules).ok());
  EXPECT_TRUE(h.engine->Compile().ok());
  if (batch) {
    EXPECT_TRUE(h.engine->ProcessAll(ScriptedStream()).ok());
  } else {
    for (const events::Observation& obs : ScriptedStream()) {
      EXPECT_TRUE(h.engine->Process(obs).ok());
    }
  }
  EXPECT_TRUE(h.engine->Flush().ok());
  RunSummary summary;
  for (const RecordedMatch& m : h.matches) {
    summary.matches.push_back({m.rule_id, {m.t_begin, m.t_end}});
  }
  summary.dup = h.engine->FiredCount("dup");
  summary.pair = h.engine->FiredCount("pair");
  summary.quiet = h.engine->FiredCount("quiet");
  summary.solo = h.engine->FiredCount("solo");
  summary.rule_matches = h.engine->stats().detector.rule_matches;
  summary.rules_fired = h.engine->stats().rules_fired;
  return summary;
}

TEST(ShardedEngineTest, ScriptedParityAcrossShardCounts) {
  RunSummary serial = RunScripted(1, /*batch=*/false);
  EXPECT_EQ(serial.dup, 1u);
  EXPECT_EQ(serial.pair, 1u);
  EXPECT_EQ(serial.quiet, 1u);
  EXPECT_EQ(serial.solo, 1u);
  for (int shards : {2, 4}) {
    for (bool batch : {false, true}) {
      RunSummary sharded = RunScripted(shards, batch);
      EXPECT_EQ(sharded.dup, serial.dup) << shards;
      EXPECT_EQ(sharded.pair, serial.pair) << shards;
      EXPECT_EQ(sharded.quiet, serial.quiet) << shards;
      EXPECT_EQ(sharded.solo, serial.solo) << shards;
      EXPECT_EQ(sharded.rule_matches, serial.rule_matches) << shards;
      EXPECT_EQ(sharded.rules_fired, serial.rules_fired) << shards;
      // Same match multiset; per-rule order is identical to serial.
      auto sorted = [](RunSummary s) {
        std::sort(s.matches.begin(), s.matches.end());
        return s.matches;
      };
      EXPECT_EQ(sorted(sharded), sorted(serial)) << shards;
    }
  }
}

TEST(ShardedEngineTest, ResetClearsEveryShard) {
  EngineHarness h(WithShards(4));
  ASSERT_TRUE(h.AddRules(kFourRules).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 1).ok());
  ASSERT_TRUE(h.ObserveAt("b", "x", 2).ok());
  ASSERT_TRUE(h.ObserveAt("d", "y", 3).ok());
  EXPECT_GT(h.engine->TotalBufferedEntries(), 0u);
  EXPECT_GT(h.engine->PendingPseudoEvents(), 0u);

  ASSERT_TRUE(h.engine->Reset().ok());
  EXPECT_EQ(h.engine->TotalBufferedEntries(), 0u);
  EXPECT_EQ(h.engine->PendingPseudoEvents(), 0u);
  EXPECT_EQ(h.engine->clock(), 0);
  EXPECT_EQ(h.engine->stats().detector.observations, 0u);
  EXPECT_EQ(h.engine->FiredCount("dup"), 0u);

  // The stream may restart at t=0 and detection behaves like new.
  h.matches.clear();
  ASSERT_TRUE(h.ObserveAt("a", "x", 1).ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 2).ok());
  EXPECT_EQ(h.engine->FiredCount("dup"), 1u);
}

TEST(ShardedEngineTest, FlushDrainsPseudoEventsOnAllShards) {
  EngineHarness h(WithShards(4));
  ASSERT_TRUE(h.AddRules(kFourRules).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  // Two NOT windows pending on (potentially) different shards.
  ASSERT_TRUE(h.ObserveAt("d", "y", 1).ok());
  ASSERT_TRUE(h.ObserveAt("d", "z", 2).ok());
  EXPECT_GT(h.engine->PendingPseudoEvents(), 0u);
  ASSERT_TRUE(h.engine->Flush().ok());
  EXPECT_EQ(h.engine->PendingPseudoEvents(), 0u);
  EXPECT_EQ(h.engine->FiredCount("quiet"), 2u);
}

TEST(ShardedEngineTest, RecompileWithDifferentShardCount) {
  EngineHarness h(WithShards(2));
  ASSERT_TRUE(h.AddRules(kFourRules).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  EXPECT_EQ(h.engine->num_shards(), 2);
  ASSERT_TRUE(h.engine->ProcessAll(ScriptedStream()).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  auto fired_totals = [&h] {
    return std::vector<uint64_t>{
        h.engine->FiredCount("dup"), h.engine->FiredCount("pair"),
        h.engine->FiredCount("quiet"), h.engine->FiredCount("solo")};
  };
  std::vector<uint64_t> fired_with_2 = fired_totals();

  // Changing the shard count requires decompiling first.
  EXPECT_FALSE(h.engine->SetShards(4).ok());
  h.engine->Decompile();
  EXPECT_FALSE(h.engine->compiled());
  EXPECT_FALSE(h.engine->SetShards(0).ok());
  EXPECT_FALSE(h.engine->SetShards(kMaxDetectionShards + 1).ok());
  ASSERT_TRUE(h.engine->SetShards(4).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  EXPECT_EQ(h.engine->num_shards(), 4);

  h.matches.clear();
  ASSERT_TRUE(h.engine->ProcessAll(ScriptedStream()).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  EXPECT_EQ(fired_totals(), fired_with_2);

  // And back down to the serial fast path.
  h.engine->Decompile();
  ASSERT_TRUE(h.engine->SetShards(1).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  EXPECT_EQ(h.engine->num_shards(), 1);
}

TEST(ShardedEngineTest, DebugReportHasPerShardSections) {
  EngineHarness h(WithShards(2));
  ASSERT_TRUE(h.AddRules(kFourRules).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 1).ok());
  std::string report = h.engine->DebugReport();
  EXPECT_NE(report.find("sharded engine: 2 shards key=object replicas=2"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("shard 0 [replica bucket=0]: rules=[dup pair quiet "
                        "solo]"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("shard 1 [replica bucket=1]: rules=["),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("inbox_depth=0/"), std::string::npos) << report;
  EXPECT_NE(report.find("outbox_depth=0/"), std::string::npos) << report;
  EXPECT_NE(report.find("produced="), std::string::npos) << report;
  EXPECT_NE(report.find("rule dup fired=0"), std::string::npos) << report;
}

TEST(ShardedEngineTest, OutOfOrderRejectionMatchesSerial) {
  for (int shards : {1, 4}) {
    EngineHarness h(WithShards(shards));
    ASSERT_TRUE(h.AddRules(kFourRules).ok());
    ASSERT_TRUE(h.engine->Compile().ok());
    ASSERT_TRUE(h.ObserveAt("a", "x", 5).ok());
    Status status = h.ObserveAt("a", "x", 3);
    EXPECT_FALSE(status.ok()) << "shards=" << shards;
  }
  for (int shards : {1, 4}) {
    EngineOptions options = WithShards(shards);
    options.detector.tolerate_out_of_order = true;
    EngineHarness h(options);
    ASSERT_TRUE(h.AddRules(kFourRules).ok());
    ASSERT_TRUE(h.engine->Compile().ok());
    ASSERT_TRUE(h.ObserveAt("a", "x", 5).ok());
    ASSERT_TRUE(h.ObserveAt("a", "x", 3).ok());
    EXPECT_EQ(h.engine->stats().detector.out_of_order_dropped, 1u);
    EXPECT_EQ(h.engine->stats().detector.observations, 1u);
  }
}

// SEQ+ rules are never key-partitionable (open runs absorb instances
// across keys), so they run together on the one residual worker beside
// the keyed replicas.
TEST(ShardedEngineTest, SeqPlusRulesRunOnTheResidualWorker) {
  EngineHarness h(WithShards(4));
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE pack1, run closed by b
    ON TSEQ(TSEQ+(observation("a", o1, t1), 0.1sec, 1sec);
            observation("b", o2, t2), 0sec, 20sec)
    IF true
    DO send alarm

    CREATE RULE pack2, same run closed by c
    ON TSEQ(TSEQ+(observation("a", o1, t1), 0.1sec, 1sec);
            observation("c", o2, t2), 0sec, 20sec)
    IF true
    DO send alarm

    CREATE RULE other, independent
    ON observation("e", o, t1)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  // 4 keyed replicas of `other` + the residual hosting both SEQ+ rules.
  EXPECT_EQ(h.engine->num_shards(), 5);
  EXPECT_NE(
      h.engine->DebugReport().find("shard 4 [residual]: rules=[pack1 pack2]"),
      std::string::npos)
      << h.engine->DebugReport();
}

// Under the recent context a binary node keeps only the newest instance
// of a slot across every join key, which a keyed replica (seeing only its
// own partition) cannot reproduce: `ab` below fires once on 2 keyed
// replicas but never serially, because (A,y,4) replaces (A,z,2) before
// (B,z,4) arrives. Such rules run on the residual worker, so every
// context matches serial at every shard count.
TEST(ShardedEngineTest, EveryContextMatchesSerial) {
  constexpr char kRules[] = R"(
    CREATE RULE ab, newest initiator
    ON WITHIN(SEQ(observation("A", o, t1); observation("B", o, t2)), 5sec)
    IF true DO send alarm

    CREATE RULE cd, conjunction
    ON WITHIN(observation("C", o, t1) AND observation("D", o, t2), 5sec)
    IF true DO send alarm

    CREATE RULE quiet, no C after A
    ON WITHIN(observation("A", o, t1) AND NOT observation("C", o, t2), 3sec)
    IF true DO send alarm
  )";
  const std::vector<events::Observation> stream = {
      {"A", "z", 2 * kSecond}, {"B", "y", 3 * kSecond},
      {"A", "y", 4 * kSecond}, {"B", "z", 4 * kSecond},
      {"C", "x", 5 * kSecond}, {"D", "y", 6 * kSecond},
      {"C", "y", 7 * kSecond}, {"D", "x", 7 * kSecond},
      {"A", "x", 8 * kSecond}, {"B", "x", 9 * kSecond},
      {"C", "z", 10 * kSecond}, {"D", "z", 10 * kSecond},
      {"A", "w", 11 * kSecond}, {"C", "w", 12 * kSecond},
      {"B", "w", 13 * kSecond}, {"A", "q", 20 * kSecond},
  };
  using Spans = std::map<std::string, std::vector<std::pair<TimePoint,
                                                            TimePoint>>>;
  auto run = [&](ParameterContext context, int shards, size_t length) {
    EngineOptions options = WithShards(shards);
    options.detector.context = context;
    EngineHarness h(options);
    EXPECT_TRUE(h.AddRules(kRules).ok());
    EXPECT_TRUE(h.engine->Compile().ok());
    EXPECT_TRUE(h.engine
                    ->ProcessAll(std::vector<events::Observation>(
                        stream.begin(),
                        stream.begin() + static_cast<long>(length)))
                    .ok());
    EXPECT_TRUE(h.engine->Flush().ok());
    Spans spans;
    for (const RecordedMatch& m : h.matches) {
      spans[m.rule_id].emplace_back(m.t_begin, m.t_end);
    }
    return spans;
  };
  // The first four observations alone: serial recent never fires `ab`.
  for (int shards : {1, 2, 4}) {
    EXPECT_EQ(run(ParameterContext::kRecent, shards, 4).count("ab"), 0u)
        << shards << " shards";
  }
  for (ParameterContext context :
       {ParameterContext::kChronicle, ParameterContext::kRecent,
        ParameterContext::kContinuous, ParameterContext::kCumulative,
        ParameterContext::kUnrestricted}) {
    SCOPED_TRACE(std::string(ParameterContextName(context)));
    Spans serial = run(context, 1, stream.size());
    EXPECT_EQ(serial.size(), 3u);  // Every rule fires.
    for (int shards : {2, 4}) {
      EXPECT_EQ(run(context, shards, stream.size()), serial)
          << shards << " shards";
    }
  }
}

TEST(ShardedEngineTest, SubscriptionVocabularyCoversLeafKinds) {
  constexpr char kMixed[] = R"(
    CREATE RULE lit, literal reader
    ON observation("r9", o, t1) IF true DO send alarm

    CREATE RULE grp, group constrained
    ON observation(r, o, t1), group(r) = "g_dock_0" IF true DO send alarm

    CREATE RULE any, unconstrained reader
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
    IF true DO send alarm
  )";
  Result<rules::RuleSet> parsed = rules::ParseRuleProgram(kMixed);
  ASSERT_TRUE(parsed.ok());
  Result<EventGraph> graph = EventGraph::Build(parsed->rules);
  ASSERT_TRUE(graph.ok());
  EventGraph::Subscription sub = graph->ComputeSubscription();
  EXPECT_TRUE(sub.any_reader);
  EXPECT_EQ(sub.reader_keys,
            (std::vector<std::string>{"g_dock_0", "r9"}));
}

}  // namespace
}  // namespace rfidcep::engine
