// Parameter-context semantics (paper §4.2): the same overlapping history
// pulled through all five contexts.

#include <gtest/gtest.h>

#include "engine/reference/reference_interpreter.h"
#include "rules/parser.h"
#include "tests/engine/test_util.h"

namespace rfidcep::engine {
namespace {

using ::rfidcep::engine::testing::EngineHarness;

constexpr char kSeqRule[] = R"(
  CREATE RULE s, pairing
  ON SEQ(observation("a", o1, t1); observation("b", o2, t2))
  IF true
  DO send alarm
)";

// History: a@1, a@2, b@3, b@4.
void FeedOverlap(EngineHarness* h) {
  ASSERT_TRUE(h->ObserveAt("a", "x1", 1).ok());
  ASSERT_TRUE(h->ObserveAt("a", "x2", 2).ok());
  ASSERT_TRUE(h->ObserveAt("b", "y1", 3).ok());
  ASSERT_TRUE(h->ObserveAt("b", "y2", 4).ok());
}

EngineOptions WithContext(ParameterContext context) {
  EngineOptions options;
  options.detector.context = context;
  return options;
}

TEST(ContextTest, ChroniclePairsOldestWithOldest) {
  EngineHarness h(WithContext(ParameterContext::kChronicle));
  ASSERT_TRUE(h.AddRules(kSeqRule).ok());
  FeedOverlap(&h);
  ASSERT_EQ(h.matches.size(), 2u);
  EXPECT_EQ(h.matches[0].t_begin, 1 * kSecond);  // (a@1, b@3)
  EXPECT_EQ(h.matches[0].t_end, 3 * kSecond);
  EXPECT_EQ(h.matches[1].t_begin, 2 * kSecond);  // (a@2, b@4)
  EXPECT_EQ(h.matches[1].t_end, 4 * kSecond);
}

TEST(ContextTest, RecentReusesNewestInitiator) {
  EngineHarness h(WithContext(ParameterContext::kRecent));
  ASSERT_TRUE(h.AddRules(kSeqRule).ok());
  FeedOverlap(&h);
  ASSERT_EQ(h.matches.size(), 2u);
  EXPECT_EQ(h.matches[0].t_begin, 2 * kSecond);  // (a@2, b@3)
  EXPECT_EQ(h.matches[1].t_begin, 2 * kSecond);  // (a@2, b@4) — reused.
}

TEST(ContextTest, ContinuousPairsEveryOpenInitiator) {
  EngineHarness h(WithContext(ParameterContext::kContinuous));
  ASSERT_TRUE(h.AddRules(kSeqRule).ok());
  FeedOverlap(&h);
  // b@3 pairs with both a@1 and a@2 (consuming them); b@4 finds none.
  ASSERT_EQ(h.matches.size(), 2u);
  EXPECT_EQ(h.matches[0].t_end, 3 * kSecond);
  EXPECT_EQ(h.matches[1].t_end, 3 * kSecond);
}

TEST(ContextTest, CumulativeMergesAllInitiators) {
  EngineHarness h(WithContext(ParameterContext::kCumulative));
  ASSERT_TRUE(h.AddRules(kSeqRule).ok());
  FeedOverlap(&h);
  // b@3 produces a single merged instance holding a@1 and a@2.
  ASSERT_EQ(h.matches.size(), 1u);
  EXPECT_EQ(h.matches[0].t_begin, 1 * kSecond);
  EXPECT_EQ(h.matches[0].t_end, 3 * kSecond);
  EXPECT_EQ(h.matches[0].instance->children().size(), 3u);
}

TEST(ContextTest, UnrestrictedProducesAllCombinations) {
  EngineHarness h(WithContext(ParameterContext::kUnrestricted));
  ASSERT_TRUE(h.AddRules(kSeqRule).ok());
  FeedOverlap(&h);
  // (a1,b3), (a2,b3), (a1,b4), (a2,b4).
  EXPECT_EQ(h.matches.size(), 4u);
}

TEST(ContextTest, ChronicleIsCorrectForOverlappingPackings) {
  // Two interleaved packing episodes from two conveyors feeding one rule
  // family (paper Fig. 1b): chronicle keeps them separate.
  EngineHarness h(WithContext(ParameterContext::kChronicle));
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE pack, packing
    ON TSEQ(TSEQ+(observation("A", o1, t1), 0sec, 1sec);
            observation("B", o2, t2), 5sec, 10sec)
    IF true
    DO send alarm
  )").ok());
  // Episode 1 items at 1..2, episode 2 items at 4..5; cases at 9 and 13.
  ASSERT_TRUE(h.ObserveAt("A", "p", 1).ok());
  ASSERT_TRUE(h.ObserveAt("A", "q", 2).ok());
  ASSERT_TRUE(h.ObserveAt("A", "r", 4).ok());
  ASSERT_TRUE(h.ObserveAt("A", "s", 5).ok());
  ASSERT_TRUE(h.ObserveAt("B", "case1", 9).ok());
  ASSERT_TRUE(h.ObserveAt("B", "case2", 13).ok());
  ASSERT_EQ(h.matches.size(), 2u);
  auto first = h.matches[0].instance->CollectObservations();
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].object, "p");
  EXPECT_EQ(first[1].object, "q");
  EXPECT_EQ(first[2].object, "case1");
  auto second = h.matches[1].instance->CollectObservations();
  ASSERT_EQ(second.size(), 3u);
  EXPECT_EQ(second[0].object, "r");
  EXPECT_EQ(second[2].object, "case2");
}

// The reference interpreter defines chronicle and unrestricted only, and
// says so in every build type: asked for another context, Run() fails
// instead of answering with unrestricted's matches.
TEST(ReferenceInterpreterTest, RejectsContextsItDoesNotImplement) {
  Result<rules::RuleSet> set = rules::ParseRuleProgram(kSeqRule);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  const events::Environment env{};
  const std::vector<events::Observation> history = {
      {"a", "x1", 1 * kSecond},
      {"a", "x2", 2 * kSecond},
      {"b", "y1", 3 * kSecond},
      {"b", "y2", 4 * kSecond}};
  auto run = [&](ParameterContext context) {
    reference::ReferenceOptions options;
    options.context = context;
    reference::ReferenceInterpreter interp(set->rules[0].event, &env,
                                           options);
    return interp.Run(history);
  };
  for (ParameterContext context :
       {ParameterContext::kRecent, ParameterContext::kContinuous,
        ParameterContext::kCumulative}) {
    Result<std::vector<events::EventInstancePtr>> matches = run(context);
    ASSERT_FALSE(matches.ok()) << ParameterContextName(context);
    EXPECT_EQ(matches.status().code(), StatusCode::kUnimplemented);
    EXPECT_NE(matches.status().ToString().find(
                  ParameterContextName(context)),
              std::string::npos)
        << matches.status().ToString();
  }
  Result<std::vector<events::EventInstancePtr>> chronicle =
      run(ParameterContext::kChronicle);
  ASSERT_TRUE(chronicle.ok()) << chronicle.status().ToString();
  EXPECT_EQ(chronicle->size(), 2u);
  Result<std::vector<events::EventInstancePtr>> unrestricted =
      run(ParameterContext::kUnrestricted);
  ASSERT_TRUE(unrestricted.ok()) << unrestricted.status().ToString();
  EXPECT_EQ(unrestricted->size(), 4u);
}

// An observation behind the stream clock is an error unless the options
// tolerate it, in which case it is dropped as the detector drops it.
TEST(ReferenceInterpreterTest, RejectsAnOutOfOrderStreamUnlessTolerated) {
  Result<rules::RuleSet> set = rules::ParseRuleProgram(kSeqRule);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  const events::Environment env{};
  const std::vector<events::Observation> history = {
      {"a", "x1", 2 * kSecond},
      {"a", "x2", 1 * kSecond},
      {"b", "y1", 3 * kSecond}};
  reference::ReferenceOptions options;
  reference::ReferenceInterpreter strict(set->rules[0].event, &env, options);
  Result<std::vector<events::EventInstancePtr>> rejected =
      strict.Run(history);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  options.tolerate_out_of_order = true;
  reference::ReferenceInterpreter tolerant(set->rules[0].event, &env,
                                           options);
  Result<std::vector<events::EventInstancePtr>> matches =
      tolerant.Run(history);
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ((*matches)[0]->t_begin(), 2 * kSecond);  // a@1 was dropped.
}

}  // namespace
}  // namespace rfidcep::engine
