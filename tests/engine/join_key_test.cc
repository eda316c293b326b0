// Hashed join-key regressions: slot buffers and NOT logs chain instances
// by a 64-bit hash of their equality-join values (see detector.h). Distinct
// join tuples may share a chain — by hash collision or via the wildcard
// chain that holds instances missing a join variable — and pairing must
// then fall back to full unification. `debug_force_join_collisions` maps
// every complete key onto one constant chain, turning the rare collision
// path into the only path: detection results must be identical.

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "tests/engine/test_util.h"

namespace rfidcep::engine {
namespace {

using ::rfidcep::engine::testing::EngineHarness;
using ::rfidcep::engine::testing::RecordedMatch;

EngineOptions ForcedCollisions(
    ParameterContext context = ParameterContext::kChronicle) {
  EngineOptions options;
  options.detector.context = context;
  options.detector.debug_force_join_collisions = true;
  return options;
}

std::vector<std::tuple<std::string, TimePoint, TimePoint>> Summarize(
    const std::vector<RecordedMatch>& matches) {
  std::vector<std::tuple<std::string, TimePoint, TimePoint>> out;
  out.reserve(matches.size());
  for (const RecordedMatch& m : matches) {
    out.emplace_back(m.rule_id, m.t_begin, m.t_end);
  }
  return out;
}

constexpr char kJoinSeqRule[] = R"(
  CREATE RULE pair, same object sequence
  ON WITHIN(observation("a", o, t1); observation("b", o, t2), 10sec)
  IF true
  DO send alarm
)";

// Interleaved objects across both readers; several same object pairs and
// several near-miss tuples that only unification can tell apart.
void FeedInterleaved(EngineHarness* h) {
  const char* objects[] = {"o1", "o2", "o3", "o4", "o5"};
  double t = 0;
  for (const char* obj : objects) {
    ASSERT_TRUE(h->ObserveAt("a", obj, t += 1).ok());
  }
  for (const char* obj : objects) {
    ASSERT_TRUE(h->ObserveAt("b", obj, t += 1).ok());
  }
  // A second wave pairing across the first (chronicle consumes initiators).
  ASSERT_TRUE(h->ObserveAt("a", "o2", t += 1).ok());
  ASSERT_TRUE(h->ObserveAt("b", "o2", t += 1).ok());
  ASSERT_TRUE(h->engine->Flush().ok());
}

TEST(JoinKeyCollisionTest, ForcedCollisionsMatchTheNormalRun) {
  EngineHarness normal;
  EngineHarness collided(ForcedCollisions());
  ASSERT_TRUE(normal.AddRules(kJoinSeqRule).ok());
  ASSERT_TRUE(collided.AddRules(kJoinSeqRule).ok());
  FeedInterleaved(&normal);
  FeedInterleaved(&collided);
  EXPECT_FALSE(normal.matches.empty());
  EXPECT_EQ(Summarize(normal.matches), Summarize(collided.matches));
}

TEST(JoinKeyCollisionTest, CollidingTuplesStillRefuseToPair) {
  // (a, o1) and (b, o2) share the forced bucket but do not unify on `o`;
  // the bucket scan's unification re-check must reject the pair.
  EngineHarness h(ForcedCollisions());
  ASSERT_TRUE(h.AddRules(kJoinSeqRule).ok());
  ASSERT_TRUE(h.ObserveAt("a", "o1", 1).ok());
  ASSERT_TRUE(h.ObserveAt("b", "o2", 2).ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  EXPECT_TRUE(h.matches.empty());
}

TEST(JoinKeyCollisionTest, EveryContextSurvivesForcedCollisions) {
  for (ParameterContext context :
       {ParameterContext::kChronicle, ParameterContext::kRecent,
        ParameterContext::kContinuous, ParameterContext::kCumulative,
        ParameterContext::kUnrestricted}) {
    EngineOptions plain;
    plain.detector.context = context;
    EngineHarness normal(plain);
    EngineHarness collided(ForcedCollisions(context));
    ASSERT_TRUE(normal.AddRules(kJoinSeqRule).ok());
    ASSERT_TRUE(collided.AddRules(kJoinSeqRule).ok());
    FeedInterleaved(&normal);
    FeedInterleaved(&collided);
    EXPECT_EQ(Summarize(normal.matches), Summarize(collided.matches))
        << "context " << static_cast<int>(context);
  }
}

constexpr char kNotJoinRule[] = R"(
  CREATE RULE guarded, same object negation
  ON WITHIN(observation("a", o, t1) AND NOT observation("b", o, t2), 5sec)
  IF true
  DO send alarm
)";

TEST(JoinKeyCollisionTest, NotLogCollisionsDoNotFalsifyOtherObjects) {
  // The NOT log joins on `o`. With collisions forced, the b@2 occurrence
  // for o2 lands in the same bucket the o1 probe scans; only unification
  // keeps it from falsifying o1's anchor.
  EngineHarness h(ForcedCollisions());
  ASSERT_TRUE(h.AddRules(kNotJoinRule).ok());
  ASSERT_TRUE(h.ObserveAt("a", "o1", 1).ok());
  ASSERT_TRUE(h.ObserveAt("b", "o2", 2).ok());   // Different object.
  ASSERT_TRUE(h.ObserveAt("a", "o3", 20).ok());
  ASSERT_TRUE(h.ObserveAt("b", "o3", 21).ok());  // Same object: falsifies.
  ASSERT_TRUE(h.engine->Flush().ok());
  ASSERT_EQ(h.matches.size(), 1u);
  EXPECT_EQ(h.matches[0].t_begin, 1 * kSecond);  // o1 confirmed, o3 killed.
}

// Under the cumulative context a complex instance's bindings are demoted
// to multi-valued, so a nested conjunction's inner instances miss their
// outer join variable and land on the wildcard chain; the completing
// side arrives equally incomplete and must scan every chain. Two inner
// pairs (all-multi on both sides) unify, so the outer event fires.
constexpr char kNestedAndRule[] = R"(
  CREATE RULE nested, nested conjunction
  ON WITHIN((observation("a", o, t1) AND observation("b", o, t2))
            AND (observation("c", o, t3) AND observation("d", o, t4)),
            20sec)
  IF true
  DO send alarm
)";

TEST(WildcardBucketTest, CumulativeInstancesPairThroughTheWildcardBucket) {
  EngineOptions options;
  options.detector.context = ParameterContext::kCumulative;
  EngineHarness h(options);
  ASSERT_TRUE(h.AddRules(kNestedAndRule).ok());
  ASSERT_TRUE(h.ObserveAt("a", "o1", 1).ok());
  ASSERT_TRUE(h.ObserveAt("b", "o1", 2).ok());  // Inner (a AND b) fires.
  ASSERT_TRUE(h.ObserveAt("c", "o1", 3).ok());
  ASSERT_TRUE(h.ObserveAt("d", "o1", 4).ok());  // Inner (c AND d) fires.
  ASSERT_TRUE(h.engine->Flush().ok());
  ASSERT_EQ(h.matches.size(), 1u);
  EXPECT_EQ(h.matches[0].t_begin, 1 * kSecond);
  EXPECT_EQ(h.matches[0].t_end, 4 * kSecond);
}

TEST(WildcardBucketTest, WildcardPairingIsCollisionProof) {
  EngineOptions plain;
  plain.detector.context = ParameterContext::kCumulative;
  EngineHarness normal(plain);
  EngineHarness collided(ForcedCollisions(ParameterContext::kCumulative));
  for (EngineHarness* h : {&normal, &collided}) {
    ASSERT_TRUE(h->AddRules(kNestedAndRule).ok());
    ASSERT_TRUE(h->ObserveAt("a", "o1", 1).ok());
    ASSERT_TRUE(h->ObserveAt("b", "o1", 2).ok());
    ASSERT_TRUE(h->ObserveAt("c", "o1", 3).ok());
    ASSERT_TRUE(h->ObserveAt("d", "o1", 4).ok());
    ASSERT_TRUE(h->engine->Flush().ok());
  }
  EXPECT_EQ(Summarize(normal.matches), Summarize(collided.matches));
}

}  // namespace
}  // namespace rfidcep::engine
