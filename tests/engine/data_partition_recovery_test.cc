// Regression: a checkpoint captured on a data-partitioned engine must
// restore without inventing or losing matches for negation (WITHIN ...
// AND NOT ...) rules whose confirmation pseudos straddle the cut.
// Distilled from differential-fuzz seed 51365158574: two EPC keys on
// different replicas each hold an open negation window at the capture
// instant, and the merged snapshot has to keep each pending confirmation
// anchored to ITS OWN initiator.
//
// Data-partitioned sharding is gone, but the checkpoints it wrote still
// restore. checkpoint_v2_data_sharded_negation.snap was captured by
// commit 2447fa7 at shards=2, after the observation Stream() marks: the
// fuzz failure's cut, between the two falsifiers.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/snapshot.h"
#include "events/observation.h"
#include "tests/engine/test_util.h"

namespace rfidcep::engine {
namespace {

using events::Observation;

constexpr char kNegationRule[] =
    "CREATE RULE f1, fuzz distilled\n"
    "ON WITHIN((observation(\"B\", o, t2) AND NOT observation(\"C\", o, t1)),"
    " 15sec)\n"
    "IF true DO act\n";

constexpr size_t kCut = 5;

std::vector<Observation> Stream() {
  // Trimmed from the fuzz stream: B,z opens a window at 3s (falsified by
  // C,z at 11.999s), B,y opens one at 5.999s (falsified by C,y at
  // 19.999s — after the cut). Neither rule instance may fire.
  return {
      {"B", "z", 3000000},
      {"B", "y", 5999999},
      {"C", "z", 11999999},
      {"B", "z", 12999998},
      {"A", "y", 14999998},  // <- cut after this observation
      {"B", "z", 15999998},
      {"C", "y", 19999999},
      {"A", "y", 42000000},
  };
}

TEST(DataPartitionRecoveryTest, PendingNegationWindowsStayPerKey) {
  const std::string bytes =
      testing::ReadFile(std::string(RFIDCEP_TESTDATA_DIR) +
                        "/checkpoint_v2_data_sharded_negation.snap");
  ASSERT_FALSE(bytes.empty()) << "missing fixture";
  snapshot::EngineSnapshot decoded;
  ASSERT_TRUE(snapshot::DecodeEngineSnapshot(bytes, &decoded).ok());
  // Both windows are still open at the cut: one confirmation pseudo each.
  EXPECT_EQ(decoded.detector.pseudos.size(), 2u);

  const std::vector<Observation> stream = Stream();
  const std::vector<Observation> head(stream.begin(), stream.begin() + kCut);
  const std::vector<Observation> tail(stream.begin() + kCut, stream.end());
  testing::ExpectRestoresToUninterruptedRun(kNegationRule, head, tail, bytes);
}

}  // namespace
}  // namespace rfidcep::engine
