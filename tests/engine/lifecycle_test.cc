// Engine lifecycle contract (engine/engine.h "Streaming"): every
// streaming call requires Compile(); Flush() ends the stream and is
// idempotent; Reset()/Compile() start a new stream.

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "tests/engine/test_util.h"

namespace rfidcep::engine {
namespace {

using ::rfidcep::engine::testing::EngineHarness;

constexpr const char* kRule =
    "CREATE RULE x, a ON observation(r, o, t) IF true DO send alarm";

TEST(LifecycleTest, StreamingBeforeCompileFails) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(kRule).ok());
  EXPECT_EQ(h.engine->Process({"r", "o", 1}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.engine->ProcessAll({{"r", "o", 1}}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.engine->AdvanceTo(kSecond).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.engine->Flush().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(h.matches.empty());
}

TEST(LifecycleTest, StreamingAfterFlushFails) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(kRule).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.engine->Process({"r", "o", 1 * kSecond}).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  EXPECT_EQ(h.engine->Process({"r", "o", 2 * kSecond}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.engine->ProcessAll({{"r", "o", 2 * kSecond}}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.engine->AdvanceTo(2 * kSecond).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.matches.size(), 1u);
}

TEST(LifecycleTest, FlushIsIdempotent) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(kRule).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.engine->Process({"r", "o", 1 * kSecond}).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  const EngineStats after_first = h.engine->stats();
  ASSERT_TRUE(h.engine->Flush().ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  EXPECT_EQ(h.engine->stats().detector.pseudo_fired,
            after_first.detector.pseudo_fired);
  EXPECT_EQ(h.matches.size(), 1u);
}

TEST(LifecycleTest, ResetStartsANewStream) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(kRule).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.engine->Process({"r", "o", 5 * kSecond}).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  ASSERT_TRUE(h.engine->Reset().ok());
  // The new stream may start before the flushed one ended.
  ASSERT_TRUE(h.engine->Process({"r", "o", 1 * kSecond}).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  EXPECT_EQ(h.matches.size(), 2u);
}

TEST(LifecycleTest, RecompileStartsANewStream) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(kRule).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.engine->Process({"r", "o", 5 * kSecond}).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  h.engine->Decompile();
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.engine->Process({"r", "o", 1 * kSecond}).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  EXPECT_EQ(h.matches.size(), 2u);
}

TEST(LifecycleTest, CheckpointBeforeCompileFails) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(kRule).ok());
  std::string bytes;
  EXPECT_EQ(h.engine->SerializeState(&bytes).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.engine->RestoreState("").code(),
            StatusCode::kFailedPrecondition);
}

TEST(LifecycleTest, FlushedEngineCanBeCheckpointedAndRestored) {
  // A checkpoint of a flushed engine restores as flushed: the stream
  // stays ended until Reset().
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(kRule).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.engine->Process({"r", "o", 1 * kSecond}).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  std::string bytes;
  ASSERT_TRUE(h.engine->SerializeState(&bytes).ok());
  ASSERT_TRUE(h.engine->RestoreState(bytes).ok());
  EXPECT_EQ(h.engine->Process({"r", "o", 2 * kSecond}).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(h.engine->Reset().ok());
  ASSERT_TRUE(h.engine->Process({"r", "o", 2 * kSecond}).ok());
}

}  // namespace
}  // namespace rfidcep::engine
