// Unit tests for the JSONL trace sink (engine/trace.h): record shapes,
// JSON escaping, and concurrent writers (several engines may share one
// sink), which is why this binary carries the TSAN ctest label.

#include "engine/trace.h"

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "events/binding.h"
#include "events/event_instance.h"
#include "events/observation.h"
#include "gtest/gtest.h"

namespace rfidcep::engine {
namespace {

using events::Bindings;
using events::EventInstance;
using events::EventInstancePtr;
using events::Observation;

class TraceSinkTest : public ::testing::Test {
 protected:
  TraceSinkTest()
      : sink_([this](std::string_view line) { lines_.emplace_back(line); }) {}

  TraceSink sink_;
  std::vector<std::string> lines_;
};

TEST_F(TraceSinkTest, ObservationRecord) {
  sink_.RecordObservation(7, Observation{"r1", "o1", 1500});
  ASSERT_EQ(lines_.size(), 1u);
  EXPECT_EQ(lines_[0],
            "{\"k\":\"obs\",\"seq\":7,\"reader\":\"r1\","
            "\"object\":\"o1\",\"t\":1500}");
  EXPECT_EQ(sink_.records(), 1u);
}

TEST_F(TraceSinkTest, NodeActivationRecord) {
  EventInstancePtr instance =
      EventInstance::MakePrimitive("r1", "o1", 10, Bindings{}, 3);
  sink_.RecordNodeActivation(5, "SEQ", *instance);
  ASSERT_EQ(lines_.size(), 1u);
  EXPECT_EQ(lines_[0],
            "{\"k\":\"node\",\"shard\":0,\"node\":5,\"mode\":\"SEQ\","
            "\"t0\":10,\"t1\":10,\"iseq\":3}");
}

TEST_F(TraceSinkTest, PseudoMatchConditionActionRecords) {
  EventInstancePtr instance =
      EventInstance::MakePrimitive("r", "o", 20, Bindings{}, 1);
  sink_.RecordPseudoFired(4, 30, 25);
  sink_.RecordMatch("r1", *instance, 42);
  sink_.RecordCondition("r1", true);
  sink_.RecordAction("r1", "sql", false);
  ASSERT_EQ(lines_.size(), 4u);
  EXPECT_EQ(lines_[0],
            "{\"k\":\"pseudo\",\"shard\":0,\"node\":4,\"exec\":30,"
            "\"created\":25}");
  EXPECT_EQ(lines_[1],
            "{\"k\":\"match\",\"rule\":\"r1\",\"t0\":20,\"t1\":20,"
            "\"fire\":42}");
  EXPECT_EQ(lines_[2], "{\"k\":\"cond\",\"rule\":\"r1\",\"held\":true}");
  EXPECT_EQ(lines_[3],
            "{\"k\":\"action\",\"rule\":\"r1\",\"kind\":\"sql\","
            "\"ok\":false}");
  EXPECT_EQ(sink_.records(), 4u);
}

TEST_F(TraceSinkTest, SnapshotRecord) {
  sink_.RecordSnapshot("checkpoint", 11701, 5000);
  sink_.RecordSnapshot("restore", 11701, 5000);
  ASSERT_EQ(lines_.size(), 2u);
  EXPECT_EQ(lines_[0],
            "{\"k\":\"snapshot\",\"op\":\"checkpoint\",\"bytes\":11701,"
            "\"clock\":5000}");
  EXPECT_EQ(lines_[1],
            "{\"k\":\"snapshot\",\"op\":\"restore\",\"bytes\":11701,"
            "\"clock\":5000}");
}

TEST_F(TraceSinkTest, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(TraceSink::EscapeJson("plain"), "plain");
  EXPECT_EQ(TraceSink::EscapeJson("a\"b"), "a\\\"b");
  EXPECT_EQ(TraceSink::EscapeJson("a\\b"), "a\\\\b");
  EXPECT_EQ(TraceSink::EscapeJson("a\nb"), "a\\nb");
  EXPECT_EQ(TraceSink::EscapeJson(std::string_view("\x01", 1)), "\\u0001");
}

TEST_F(TraceSinkTest, EscapedFieldsReachTheLine) {
  sink_.RecordObservation(1, Observation{"r\"1", "o\\1", 0});
  ASSERT_EQ(lines_.size(), 1u);
  EXPECT_EQ(lines_[0],
            "{\"k\":\"obs\",\"seq\":1,\"reader\":\"r\\\"1\","
            "\"object\":\"o\\\\1\",\"t\":0}");
}

TEST_F(TraceSinkTest, OstreamConstructorAppendsNewlines) {
  std::ostringstream out;
  TraceSink sink(&out);
  sink.RecordCondition("r", false);
  sink.RecordCondition("r", true);
  EXPECT_EQ(out.str(),
            "{\"k\":\"cond\",\"rule\":\"r\",\"held\":false}\n"
            "{\"k\":\"cond\",\"rule\":\"r\",\"held\":true}\n");
}

// Concurrent writers go through one sink; every line must arrive intact
// and the record count must be exact. Runs under the TSAN label.
TEST_F(TraceSinkTest, ConcurrentWritersSerializeCleanly) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      for (int i = 0; i < kPerThread; ++i) {
        sink_.RecordCondition("rule_" + std::to_string(t), i % 2 == 0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(sink_.records(), static_cast<uint64_t>(kThreads) * kPerThread);
  ASSERT_EQ(lines_.size(), static_cast<size_t>(kThreads) * kPerThread);
  for (const std::string& line : lines_) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"k\":\"cond\""), std::string::npos);
  }
}

}  // namespace
}  // namespace rfidcep::engine
