// Data-parallel partitioning: the rule-partitionability classifier
// (EventGraph::ClassifyRulePartition) over the paper's rule families,
// engagement of the data-partitioned pipeline (replicas + residual, or
// serial when no rule is keyed), hash-routing balance, the serial replay
// contract, and the unrouted-observation diagnostics.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/graph.h"
#include "engine/trace.h"
#include "rules/parser.h"
#include "tests/engine/test_util.h"

namespace rfidcep::engine {
namespace {

using Cls = EventGraph::RulePartitionClass;

EventGraph::RulePartition Classify(const std::string& program,
                                   size_t rule_index = 0) {
  Result<rules::RuleSet> set = rules::ParseRuleProgram(program);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  Result<EventGraph> graph = EventGraph::Build(set->rules);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  return graph->ClassifyRulePartition(rule_index);
}

// --- Classifier over the paper's rule families ------------------------------

TEST(PartitionClassifier, MisplacementTseqIsEpcKeyed) {
  // Fig. 8 misplaced-item shape: both legs observe the SAME object at
  // different shelves — every join correlates on the tag EPC.
  EventGraph::RulePartition p = Classify(
      "CREATE RULE misplace, paper ON WITHIN(TSEQ(observation(\"shelf1\", o, "
      "t1); observation(\"shelf2\", o, t2), 0sec, 5sec), 10sec) IF true DO "
      "act");
  EXPECT_EQ(p.cls, Cls::kEpcKeyed);
  EXPECT_EQ(p.key_var, "o");
}

TEST(PartitionClassifier, ShopliftingAndNotIsEpcKeyed) {
  // NOT-based shoplifting: the negated leaf also binds the same object
  // variable, so the NOT occurrence log partitions by EPC too.
  EventGraph::RulePartition p = Classify(
      "CREATE RULE shoplift, paper ON WITHIN((observation(\"shelf\", o, t1) "
      "AND NOT observation(\"checkout\", o, t2)), 10sec) IF true DO act");
  EXPECT_EQ(p.cls, Cls::kEpcKeyed);
  EXPECT_EQ(p.key_var, "o");
}

TEST(PartitionClassifier, ContainmentSeqPlusIsCrossObject) {
  // Aperiodic runs absorb instances across keys (a TSEQ+ run's closure
  // couples it to other nodes' pseudo events), so SEQ+ disqualifies even
  // a single-variable rule.
  EventGraph::RulePartition p = Classify(
      "CREATE RULE contain, paper ON WITHIN(TSEQ+(observation(\"belt\", o, "
      "t), 0sec, 2sec), 20sec) IF true DO act");
  EXPECT_EQ(p.cls, Cls::kCrossObject);
}

TEST(PartitionClassifier, CrossObjectAndIsCrossObject) {
  // Two distinct object variables: the match pairs observations of
  // DIFFERENT tags, whose state cannot live under one partition key.
  EventGraph::RulePartition p = Classify(
      "CREATE RULE pair, paper ON WITHIN((observation(\"dock\", o1, t1) AND "
      "observation(\"dock\", o2, t2)), 5sec) IF true DO act");
  EXPECT_EQ(p.cls, Cls::kCrossObject);
}

TEST(PartitionClassifier, SharedReaderVariableIsSiteKeyed) {
  // Both legs bind the same reader variable and distinct objects: joins
  // correlate on the reader site, not the tag.
  EventGraph::RulePartition p = Classify(
      "CREATE RULE site, paper ON WITHIN(SEQ(observation(r, o1, t1); "
      "observation(r, o2, t2)), 5sec) IF true DO act");
  EXPECT_EQ(p.cls, Cls::kSiteKeyed);
  EXPECT_EQ(p.key_var, "r");
}

TEST(PartitionClassifier, ObjectKeyWinsOverSiteKey) {
  // Shared object AND shared reader variables: either dimension would be
  // correct; the classifier reports the EPC key (the paper's common
  // case, and the dimension Create() prefers).
  EventGraph::RulePartition p = Classify(
      "CREATE RULE both, paper ON WITHIN(SEQ(observation(r, o, t1); "
      "observation(r, o, t2)), 5sec) IF true DO act");
  EXPECT_EQ(p.cls, Cls::kEpcKeyed);
  EXPECT_EQ(p.key_var, "o");
}

TEST(PartitionClassifier, SingleLeafRuleIsEpcKeyed) {
  EventGraph::RulePartition p = Classify(
      "CREATE RULE leaf, trivial ON WITHIN(observation(\"door\", o, t), "
      "2sec) IF true DO act");
  EXPECT_EQ(p.cls, Cls::kEpcKeyed);
  EXPECT_EQ(p.key_var, "o");
}

// --- Pipeline engagement ----------------------------------------------------

constexpr const char* kKeyedRules =
    "CREATE RULE misplace, keyed ON WITHIN(TSEQ(observation(\"shelf1\", o, "
    "t1); observation(\"shelf2\", o, t2), 0sec, 5sec), 10sec) IF true DO "
    "act\n"
    "CREATE RULE shoplift, keyed ON WITHIN((observation(\"shelf1\", o, t1) "
    "AND NOT observation(\"checkout\", o, t2)), 8sec) IF true DO act\n";

constexpr const char* kCrossRules =
    "CREATE RULE pair, cross ON WITHIN((observation(\"shelf1\", o1, t1) AND "
    "observation(\"shelf2\", o2, t2)), 5sec) IF true DO act\n";

EngineOptions DataOptions(int shards) {
  EngineOptions options;
  options.shards = shards;
  return options;
}

TEST(DataPartitionedEngine, KeyedRulesEngageDataMode) {
  testing::EngineHarness h(DataOptions(2));
  ASSERT_TRUE(h.AddRules(kKeyedRules).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  EXPECT_EQ(h.engine->num_shards(), 2);  // Replicas only, no residual.
}

TEST(DataPartitionedEngine, CrossObjectRulesAddResidualShard) {
  testing::EngineHarness h(DataOptions(2));
  ASSERT_TRUE(h.AddRules(std::string(kKeyedRules) + kCrossRules).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  EXPECT_EQ(h.engine->num_shards(), 3);  // 2 replicas + 1 residual.
}

TEST(DataPartitionedEngine, AllCrossObjectRunsSerial) {
  testing::EngineHarness h(DataOptions(2));
  ASSERT_TRUE(h.AddRules(kCrossRules).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  EXPECT_EQ(h.engine->num_shards(), 1);
  EXPECT_EQ(h.engine->DebugReport().find("sharded engine"), std::string::npos);
}

// Streams shelf1 -> shelf2 movements for `objects` distinct EPCs with
// interleaved timestamps, plus checkout reads that veto shoplift matches
// for every third object.
std::vector<events::Observation> KeyedStream(int objects) {
  std::vector<events::Observation> out;
  TimePoint t = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < objects; ++i) {
      std::string obj = "obj" + std::to_string(i);
      t += kSecond / 4;
      out.push_back({"shelf1", obj, t});
      if (i % 3 == 0) out.push_back({"checkout", obj, t + kSecond});
      out.push_back({"shelf2", obj, t + 2 * kSecond});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const events::Observation& a, const events::Observation& b) {
              return a.timestamp < b.timestamp;
            });
  return out;
}

std::vector<std::string> RunAndFormat(int shards, const std::string& program,
                                      const std::vector<events::Observation>&
                                          stream) {
  testing::EngineHarness h(DataOptions(shards));
  EXPECT_TRUE(h.AddRules(program).ok());
  EXPECT_TRUE(h.engine->Compile().ok());
  EXPECT_TRUE(h.engine->ProcessAll(stream).ok());
  EXPECT_TRUE(h.engine->Flush().ok());
  std::vector<std::string> out;
  for (const testing::RecordedMatch& m : h.matches) {
    out.push_back(m.rule_id + "[" + std::to_string(m.t_begin) + "," +
                  std::to_string(m.t_end) + "]");
  }
  return out;
}

TEST(DataPartitionedEngine, ReplaysSerialOrderExactly) {
  // The replay contract at its strongest: the data-partitioned pipeline
  // must deliver the SAME matches in the SAME order as the serial
  // engine, at any replica count, including the residual interleaving.
  const std::string program = std::string(kKeyedRules) + kCrossRules;
  const std::vector<events::Observation> stream = KeyedStream(12);
  const std::vector<std::string> serial = RunAndFormat(1, program, stream);
  EXPECT_FALSE(serial.empty());
  for (int shards : {2, 4}) {
    EXPECT_EQ(RunAndFormat(shards, program, stream), serial)
        << "data-partitioned replay diverged at " << shards << " shards";
  }
}

TEST(DataPartitionedEngine, HashRoutingReachesEveryReplica) {
  testing::EngineHarness h(DataOptions(4));
  ASSERT_TRUE(h.AddRules(kKeyedRules).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_EQ(h.engine->num_shards(), 4);
  ASSERT_TRUE(h.engine->ProcessAll(KeyedStream(32)).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  // Every replica owns some keys, and no replica owns all of them: each
  // observation lands on exactly one shard, so per-shard routed counts
  // sum to the total and FNV spreads 32 keys across 4 buckets.
  uint64_t total = 0;
  for (int s = 0; s < h.engine->num_shards(); ++s) {
    uint64_t routed =
        h.engine->metrics_registry()
            .GetCounter("shard_routed_total{shard=\"" + std::to_string(s) +
                        "\"}")
            ->value();
    EXPECT_GT(routed, 0u) << "replica " << s << " received nothing";
    total += routed;
  }
  EXPECT_EQ(total, h.engine->stats().detector.observations);
}

TEST(DataPartitionedEngine, UnroutedObservationsAreCountedAndTraced) {
  std::vector<std::string> lines;
  TraceSink trace([&lines](std::string_view line) {
    lines.emplace_back(line);
  });
  testing::EngineHarness h(DataOptions(2));
  ASSERT_TRUE(h.AddRules(kKeyedRules).ok());
  ASSERT_TRUE(h.engine->SetTraceSink(&trace).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.ObserveAt("shelf1", "obj1", 1.0).ok());
  // No rule's vocabulary mentions this reader: the observation is
  // dropped at routing, but never silently — counter, trace record, and
  // DebugReport all see it.
  ASSERT_TRUE(h.ObserveAt("unknown-reader", "obj1", 2.0).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  uint64_t unrouted =
      h.engine->metrics_registry()
          .GetCounter("rfidcep_unrouted_observations_total")
          ->value();
  EXPECT_EQ(unrouted, 1u);
  bool traced = false;
  for (const std::string& line : lines) {
    if (line.find("\"k\":\"unrouted\"") != std::string::npos &&
        line.find("\"reader\":\"unknown-reader\"") != std::string::npos) {
      traced = true;
    }
  }
  EXPECT_TRUE(traced) << "no unrouted trace record emitted";
  EXPECT_NE(h.engine->DebugReport().find("unrouted=1"), std::string::npos);
}

}  // namespace
}  // namespace rfidcep::engine
