// Regression test for the sharded-pipeline determinism contract: the
// Fig. 9 supply-chain trace must produce identical per-rule fired
// counts, engine stats, and database contents for shards in {1, 2, 4},
// and rules on one worker must write store rows in serial order at
// every shard count, late window expiries included.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "sim/supply_chain.h"
#include "store/csv.h"
#include "store/database.h"

namespace rfidcep::engine {
namespace {

constexpr int kNumRules = 25;
constexpr size_t kNumEvents = 20000;
constexpr size_t kBatchSize = 512;

struct TraceOutcome {
  std::vector<uint64_t> fired;  // Per generated rule, gen0..genN.
  uint64_t rules_fired = 0;
  uint64_t rule_matches = 0;
  uint64_t observations = 0;
  uint64_t out_of_order_dropped = 0;
  uint64_t condition_rejects = 0;
  uint64_t sql_actions_executed = 0;
  uint64_t procedures_invoked = 0;
  size_t observation_rows = 0;
  size_t location_rows = 0;
  size_t containment_rows = 0;

  bool operator==(const TraceOutcome&) const = default;
};

class ShardedDeterminismTest : public ::testing::Test {
 protected:
  ShardedDeterminismTest() : chain_(MakeConfig()) {
    program_ = chain_.GeneratedRuleProgram(kNumRules);
    stream_ = chain_.GenerateStream(kNumEvents);
  }

  static sim::SupplyChainConfig MakeConfig() {
    sim::SupplyChainConfig config;
    config.seed = 20060327;
    config.num_sites = 5;
    return config;
  }

  TraceOutcome RunTrace(int shards) {
    store::Database db;
    EXPECT_TRUE(db.InstallRfidSchema().ok());
    EngineOptions options;
    options.shards = shards;
    options.execute_actions = true;
    options.detector.tolerate_out_of_order = true;
    RcedaEngine engine(&db, chain_.environment(), options);
    EXPECT_TRUE(engine.AddRulesFromText(program_).ok());
    EXPECT_TRUE(engine.Compile().ok());

    for (size_t begin = 0; begin < stream_.size(); begin += kBatchSize) {
      size_t end = std::min(begin + kBatchSize, stream_.size());
      std::vector<events::Observation> batch(stream_.begin() + begin,
                                             stream_.begin() + end);
      EXPECT_TRUE(engine.ProcessAll(batch).ok());
    }
    EXPECT_TRUE(engine.Flush().ok());

    TraceOutcome outcome;
    for (int i = 0; i < kNumRules; ++i) {
      outcome.fired.push_back(engine.FiredCount("gen" + std::to_string(i)));
    }
    const EngineStats& stats = engine.stats();
    outcome.rules_fired = stats.rules_fired;
    outcome.rule_matches = stats.detector.rule_matches;
    outcome.observations = stats.detector.observations;
    outcome.out_of_order_dropped = stats.detector.out_of_order_dropped;
    outcome.condition_rejects = stats.condition_rejects;
    outcome.sql_actions_executed = stats.sql_actions_executed;
    outcome.procedures_invoked = stats.procedures_invoked;
    outcome.observation_rows = db.GetTable("OBSERVATION")->size();
    outcome.location_rows = db.GetTable("OBJECTLOCATION")->size();
    outcome.containment_rows = db.GetTable("OBJECTCONTAINMENT")->size();
    return outcome;
  }

  sim::SupplyChain chain_;
  std::string program_;
  std::vector<events::Observation> stream_;
};

TEST_F(ShardedDeterminismTest, ShardCountsAgreeWithSerial) {
  TraceOutcome serial = RunTrace(1);
  ASSERT_EQ(serial.observations + serial.out_of_order_dropped,
            stream_.size());
  // The trace must actually exercise the pipeline, not vacuously agree.
  ASSERT_GT(serial.rules_fired, 0u);
  ASSERT_GT(serial.sql_actions_executed, 0u);

  for (int shards : {2, 4}) {
    TraceOutcome sharded = RunTrace(shards);
    EXPECT_EQ(sharded.fired, serial.fired) << "shards=" << shards;
    EXPECT_EQ(sharded.rules_fired, serial.rules_fired)
        << "shards=" << shards;
    EXPECT_EQ(sharded.rule_matches, serial.rule_matches)
        << "shards=" << shards;
    EXPECT_EQ(sharded.observations, serial.observations)
        << "shards=" << shards;
    EXPECT_EQ(sharded.out_of_order_dropped, serial.out_of_order_dropped)
        << "shards=" << shards;
    EXPECT_EQ(sharded.condition_rejects, serial.condition_rejects)
        << "shards=" << shards;
    EXPECT_EQ(sharded.sql_actions_executed, serial.sql_actions_executed)
        << "shards=" << shards;
    EXPECT_EQ(sharded.procedures_invoked, serial.procedures_invoked)
        << "shards=" << shards;
    EXPECT_EQ(sharded.observation_rows, serial.observation_rows)
        << "shards=" << shards;
    EXPECT_EQ(sharded.location_rows, serial.location_rows)
        << "shards=" << shards;
    EXPECT_EQ(sharded.containment_rows, serial.containment_rows)
        << "shards=" << shards;
  }
}

TEST_F(ShardedDeterminismTest, RepeatedRunsAreStable) {
  TraceOutcome first = RunTrace(4);
  TraceOutcome second = RunTrace(4);
  EXPECT_EQ(first, second);
}

// Minimized from differential-fuzz seed 55930174962 (durable axis), plus
// one keyed rule so sharded layouts run the pipeline. f1's TSEQ+ runs
// close by expiry pseudo events; a worker the stream does not reach
// must still fire them on time, or its `wal` rows land after rows the
// serial engine writes later (relay@22.999998 first). f1 and f2 both
// run on the residual worker: replay keeps their relative order, which
// it does not promise for rules on different workers.
constexpr char kStoreOrderRules[] = R"(
CREATE RULE f1, fuzz generated ON WITHIN(TSEQ+(observation("B", o, t1), 1sec, 4sec), 10sec) IF true DO INSERT INTO OBSERVATION VALUES ("wal", "probe", 1)
CREATE RULE f2, fuzz generated ON WITHIN(SEQ(TSEQ(NOT observation("B", o4, t5); (observation("A", o, t3) AND observation("A", o, t2)), 0sec, 3sec); observation("C", o, t1)), 7sec) IF true DO INSERT INTO OBSERVATION VALUES ("relay", o, t2)
CREATE RULE k1, keyed reread ON WITHIN(observation("B", o, t1); observation("B", o, t2), 20sec) IF true DO INSERT INTO OBJECTLOCATION VALUES (o, "k", t2, "UC")
)";

std::vector<events::Observation> StoreOrderStream() {
  return {
      {"C", "y", 2000000},  {"C", "x", 2999999},  {"A", "y", 3999999},
      {"A", "x", 4999999},  {"C", "x", 6999999},  {"A", "z", 8999999},
      {"A", "z", 8999999},  {"C", "z", 9999998},  {"A", "z", 10999998},
      {"B", "x", 13999998}, {"B", "y", 16999998}, {"A", "y", 19999998},
      {"A", "z", 22999998}, {"A", "x", 22999998}, {"A", "z", 23999998},
      {"C", "x", 23999998}, {"A", "z", 25999998}, {"B", "y", 28999998},
      {"C", "y", 28999999}, {"B", "y", 28999999}, {"A", "x", 28999999},
  };
}

TEST(ShardedStoreOrderTest, StoreEffectsFollowSerialOrder) {
  auto observation_rows = [](int shards, int* workers) {
    store::Database db;
    EXPECT_TRUE(db.InstallRfidSchema().ok());
    EngineOptions options;
    options.shards = shards;
    RcedaEngine engine(&db, events::Environment{}, options);
    EXPECT_TRUE(engine.AddRulesFromText(kStoreOrderRules).ok());
    EXPECT_TRUE(engine.Compile().ok());
    for (const events::Observation& obs : StoreOrderStream()) {
      EXPECT_TRUE(engine.Process(obs).ok());
    }
    EXPECT_TRUE(engine.Flush().ok());
    *workers = engine.num_shards();
    return store::TableToCsv(*db.GetTable("OBSERVATION"));
  };
  int workers = 0;
  const std::string serial = observation_rows(1, &workers);
  ASSERT_NE(serial.find("wal,probe"), std::string::npos) << serial;
  ASSERT_NE(serial.find("relay,"), std::string::npos) << serial;
  for (int shards : {2, 4}) {
    EXPECT_EQ(observation_rows(shards, &workers), serial)
        << "shards=" << shards;
    EXPECT_GT(workers, 1) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace rfidcep::engine
