#include "engine/detector.h"

#include <gtest/gtest.h>

#include "tests/engine/test_util.h"

namespace rfidcep::engine {
namespace {

using ::rfidcep::engine::testing::EngineHarness;
using ::rfidcep::engine::testing::RecordedMatch;

// --- SEQ / TSEQ -----------------------------------------------------------

TEST(DetectorSeqTest, BasicSequenceFiresOnTerminator) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE s, seq
    ON SEQ(observation("a", o1, t1); observation("b", o2, t2))
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 1).ok());
  EXPECT_TRUE(h.matches.empty());
  ASSERT_TRUE(h.ObserveAt("b", "y", 2).ok());
  ASSERT_EQ(h.matches.size(), 1u);
  EXPECT_EQ(h.matches[0].t_begin, 1 * kSecond);
  EXPECT_EQ(h.matches[0].t_end, 2 * kSecond);
}

TEST(DetectorSeqTest, TerminatorWithoutInitiatorDoesNotFire) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE s, seq
    ON SEQ(observation("a", o1, t1); observation("b", o2, t2))
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("b", "y", 1).ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 2).ok());
  EXPECT_TRUE(h.matches.empty());  // Order matters.
}

TEST(DetectorSeqTest, TseqEnforcesDistanceBounds) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE s, tseq
    ON TSEQ(observation("a", o1, t1); observation("b", o2, t2), 5sec, 10sec)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 0).ok());
  ASSERT_TRUE(h.ObserveAt("b", "y", 2).ok());  // dist 2 < 5: too soon.
  EXPECT_TRUE(h.matches.empty());
  ASSERT_TRUE(h.ObserveAt("b", "y", 7).ok());  // dist 7 in [5,10]: fires.
  EXPECT_EQ(h.matches.size(), 1u);
  ASSERT_TRUE(h.ObserveAt("a", "x", 20).ok());
  ASSERT_TRUE(h.ObserveAt("b", "y", 31).ok());  // dist 11 > 10: too late.
  EXPECT_EQ(h.matches.size(), 1u);
}

TEST(DetectorSeqTest, TseqBoundsAreInclusive) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE s, tseq
    ON TSEQ(observation("a", o1, t1); observation("b", o2, t2), 5sec, 10sec)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 0).ok());
  ASSERT_TRUE(h.ObserveAt("b", "y", 5).ok());  // dist exactly 5.
  EXPECT_EQ(h.matches.size(), 1u);
  ASSERT_TRUE(h.ObserveAt("a", "x", 20).ok());
  ASSERT_TRUE(h.ObserveAt("b", "y", 30).ok());  // dist exactly 10.
  EXPECT_EQ(h.matches.size(), 2u);
}

TEST(DetectorSeqTest, ChronicleConsumesInitiators) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE s, seq
    ON SEQ(observation("a", o1, t1); observation("b", o2, t2))
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("a", "x1", 1).ok());
  ASSERT_TRUE(h.ObserveAt("a", "x2", 2).ok());
  ASSERT_TRUE(h.ObserveAt("b", "y1", 3).ok());
  ASSERT_TRUE(h.ObserveAt("b", "y2", 4).ok());
  // Oldest initiator pairs with oldest terminator: (x1,y1), (x2,y2).
  ASSERT_EQ(h.matches.size(), 2u);
  EXPECT_EQ(h.matches[0].t_begin, 1 * kSecond);
  EXPECT_EQ(h.matches[0].t_end, 3 * kSecond);
  EXPECT_EQ(h.matches[1].t_begin, 2 * kSecond);
  EXPECT_EQ(h.matches[1].t_end, 4 * kSecond);
}

TEST(DetectorSeqTest, VariableJoinRequiresSameBindings) {
  // The duplicate-filter pattern: same reader AND same object.
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE dup, duplicate detection rule
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
    IF true
    DO send duplicate msg
  )").ok());
  ASSERT_TRUE(h.ObserveAt("r1", "o1", 0).ok());
  ASSERT_TRUE(h.ObserveAt("r1", "o2", 1).ok());   // Different object.
  ASSERT_TRUE(h.ObserveAt("r2", "o1", 2).ok());   // Different reader.
  EXPECT_TRUE(h.matches.empty());
  ASSERT_TRUE(h.ObserveAt("r1", "o1", 3).ok());   // True duplicate.
  ASSERT_EQ(h.matches.size(), 1u);
  EXPECT_EQ(h.matches[0].t_begin, 0);
  EXPECT_EQ(h.matches[0].t_end, 3 * kSecond);
}

TEST(DetectorSeqTest, WithinBoundsDuplicateWindow) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE dup, duplicate detection rule
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
    IF true
    DO send duplicate msg
  )").ok());
  ASSERT_TRUE(h.ObserveAt("r1", "o1", 0).ok());
  ASSERT_TRUE(h.ObserveAt("r1", "o1", 6).ok());  // 6s apart: not a duplicate.
  EXPECT_TRUE(h.matches.empty());
  ASSERT_TRUE(h.ObserveAt("r1", "o1", 9).ok());  // 3s after previous: dup.
  EXPECT_EQ(h.matches.size(), 1u);
}

TEST(DetectorSeqTest, DuplicateChainPairsConsecutively) {
  // o observed at 0, 2, 4: chronicle pairs (0,2) and (2,4).
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE dup, duplicate detection rule
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
    IF true
    DO send duplicate msg
  )").ok());
  ASSERT_TRUE(h.ObserveAt("r1", "o1", 0).ok());
  ASSERT_TRUE(h.ObserveAt("r1", "o1", 2).ok());
  ASSERT_TRUE(h.ObserveAt("r1", "o1", 4).ok());
  ASSERT_EQ(h.matches.size(), 2u);
  EXPECT_EQ(h.matches[0].t_begin, 0);
  EXPECT_EQ(h.matches[0].t_end, 2 * kSecond);
  EXPECT_EQ(h.matches[1].t_begin, 2 * kSecond);
  EXPECT_EQ(h.matches[1].t_end, 4 * kSecond);
}

TEST(DetectorSeqTest, ExpiredInitiatorsAreGarbageCollected) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE dup, duplicate detection rule
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
    IF true
    DO send duplicate msg
  )").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(h.ObserveAt("r1", "o" + std::to_string(i), i * 10.0).ok());
  }
  // Every initiator expires after 5s; nothing should accumulate.
  EXPECT_LE(h.engine->TotalBufferedEntries(), 2u);
}

// --- OR / AND ----------------------------------------------------------------

TEST(DetectorOrTest, EitherBranchFires) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE o, or rule
    ON observation("a", o, t) OR observation("b", o, t)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 1).ok());
  ASSERT_TRUE(h.ObserveAt("b", "y", 2).ok());
  ASSERT_TRUE(h.ObserveAt("c", "z", 3).ok());
  EXPECT_EQ(h.matches.size(), 2u);
}

TEST(DetectorAndTest, OrderIrrelevant) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE c, conj
    ON WITHIN(observation("a", o1, t1) AND observation("b", o2, t2), 10sec)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("b", "y", 1).ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 3).ok());
  ASSERT_EQ(h.matches.size(), 1u);
  EXPECT_EQ(h.matches[0].t_begin, 1 * kSecond);
  EXPECT_EQ(h.matches[0].t_end, 3 * kSecond);
  // And the other order.
  ASSERT_TRUE(h.ObserveAt("a", "x", 20).ok());
  ASSERT_TRUE(h.ObserveAt("b", "y", 22).ok());
  EXPECT_EQ(h.matches.size(), 2u);
}

TEST(DetectorAndTest, WithinIntervalEnforced) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE c, conj
    ON WITHIN(observation("a", o1, t1) AND observation("b", o2, t2), 10sec)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 0).ok());
  ASSERT_TRUE(h.ObserveAt("b", "y", 11).ok());  // 11s apart: too wide.
  EXPECT_TRUE(h.matches.empty());
  // The expired 'a' must not linger; a fresh pair still works.
  ASSERT_TRUE(h.ObserveAt("a", "x", 20).ok());
  ASSERT_TRUE(h.ObserveAt("b", "y", 25).ok());
  EXPECT_EQ(h.matches.size(), 1u);
}

// --- TSEQ+ runs (paper Fig. 4) -------------------------------------------------

TEST(DetectorSeqPlusTest, Fig4ChronicleDetectsBothEpisodes) {
  // E = TSEQ(TSEQ+(E1, 0sec, 1sec); E2, 5sec, 10sec) over the history
  // e1@{1,2,3}, e1@{5,6,7}, e2@12, e2@15 — the gap 3→5 splits the runs; the
  // correct chronicle answer is {e1@1..3, e2@12} and {e1@5..7, e2@15}.
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE fig4, packing
    ON TSEQ(TSEQ+(observation("A", o1, t1), 0sec, 1sec);
            observation("B", o2, t2), 5sec, 10sec)
    IF true
    DO send alarm
  )").ok());
  for (double t : {1.0, 2.0, 3.0, 5.0, 6.0, 7.0}) {
    ASSERT_TRUE(h.ObserveAt("A", "item" + std::to_string(int(t)), t).ok());
  }
  ASSERT_TRUE(h.ObserveAt("B", "case1", 12).ok());
  ASSERT_TRUE(h.ObserveAt("B", "case2", 15).ok());
  ASSERT_EQ(h.matches.size(), 2u);
  EXPECT_EQ(h.matches[0].t_begin, 1 * kSecond);
  EXPECT_EQ(h.matches[0].t_end, 12 * kSecond);
  EXPECT_EQ(h.matches[1].t_begin, 5 * kSecond);
  EXPECT_EQ(h.matches[1].t_end, 15 * kSecond);
  // The first match's run holds exactly items 1..3.
  std::vector<events::Observation> first =
      h.matches[0].instance->CollectObservations();
  ASSERT_EQ(first.size(), 4u);  // 3 items + case.
  EXPECT_EQ(first[0].object, "item1");
  EXPECT_EQ(first[2].object, "item3");
  EXPECT_EQ(first[3].object, "case1");
}

TEST(DetectorSeqPlusTest, RunBindingsAreMultiValued) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE pack, containment
    ON TSEQ(TSEQ+(observation("A", o1, t1), 0sec, 1sec);
            observation("B", o2, t2), 5sec, 10sec)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("A", "i1", 1).ok());
  ASSERT_TRUE(h.ObserveAt("A", "i2", 1.5).ok());
  ASSERT_TRUE(h.ObserveAt("B", "case", 8).ok());
  ASSERT_EQ(h.matches.size(), 1u);
  const events::Bindings& b = h.matches[0].instance->bindings();
  ASSERT_TRUE(b.HasMulti("o1"));
  EXPECT_EQ(b.Multi("o1").size(), 2u);
  ASSERT_TRUE(b.HasScalar("o2"));
  EXPECT_EQ(std::get<events::SharedText>(b.Scalar("o2")).view(), "case");
}

TEST(DetectorSeqPlusTest, DistanceGapTooSmallSplitsRun) {
  // dist_lo = 0.5sec: arrivals closer than that violate the constraint.
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE pack, tight
    ON TSEQ(TSEQ+(observation("A", o1, t1), 0.5sec, 1sec);
            observation("B", o2, t2), 2sec, 10sec)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("A", "i1", 1.0).ok());
  ASSERT_TRUE(h.ObserveAt("A", "i2", 1.2).ok());  // 0.2s gap: splits.
  ASSERT_TRUE(h.ObserveAt("B", "case", 4).ok());
  ASSERT_EQ(h.matches.size(), 1u);
  // Only the second (still open then gap-closed) run or the first?
  // Chronicle: the first closed run with valid distance [2,10] to the case
  // is the singleton {i1} (dist 3s).
  std::vector<events::Observation> obs =
      h.matches[0].instance->CollectObservations();
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_EQ(obs[0].object, "i1");
}

TEST(DetectorSeqPlusTest, SnoopStyleTerminatorClosesUnboundedRun) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE collect, aperiodic
    ON SEQ(SEQ+(observation("A", o1, t1)); observation("B", o2, t2))
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("A", "i1", 1).ok());
  ASSERT_TRUE(h.ObserveAt("A", "i2", 50).ok());    // Any spacing is fine.
  ASSERT_TRUE(h.ObserveAt("A", "i3", 1000).ok());
  ASSERT_TRUE(h.ObserveAt("B", "case", 2000).ok());
  ASSERT_EQ(h.matches.size(), 1u);
  EXPECT_EQ(h.matches[0].instance->CollectObservations().size(), 4u);
}

TEST(DetectorSeqPlusTest, SelfClosingRunUnderWithinRoot) {
  // WITHIN(TSEQ+(E1, 0.1sec, 1sec), 100sec) — paper Fig. 6b. The run
  // closes via pseudo event once no arrival extends it within 1sec.
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE runs, aperiodic root
    ON WITHIN(TSEQ+(observation("A", o1, t1), 0.1sec, 1sec), 100sec)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("A", "i1", 1.0).ok());
  ASSERT_TRUE(h.ObserveAt("A", "i2", 1.5).ok());
  ASSERT_TRUE(h.ObserveAt("A", "i3", 2.0).ok());
  EXPECT_TRUE(h.matches.empty());  // Run still open.
  // Nothing arrives within 1s of i3: the pseudo event at t=3 closes it.
  ASSERT_TRUE(h.ObserveAt("X", "other", 10).ok());
  ASSERT_EQ(h.matches.size(), 1u);
  EXPECT_EQ(h.matches[0].t_begin, 1 * kSecond);
  EXPECT_EQ(h.matches[0].t_end, 2 * kSecond);
  EXPECT_EQ(h.matches[0].instance->children().size(), 3u);
}

TEST(DetectorSeqPlusTest, FlushClosesOpenRunAtEndOfStream) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE runs, aperiodic root
    ON WITHIN(TSEQ+(observation("A", o1, t1), 0.1sec, 1sec), 100sec)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("A", "i1", 1.0).ok());
  EXPECT_TRUE(h.matches.empty());
  ASSERT_TRUE(h.engine->Flush().ok());
  EXPECT_EQ(h.matches.size(), 1u);
}

// --- Out-of-order handling -------------------------------------------------------

TEST(DetectorStreamTest, RejectsOutOfOrderByDefault) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE any, all observations
    ON observation(r, o, t)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 5).ok());
  Status status = h.ObserveAt("a", "x", 4);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(DetectorStreamTest, ToleratesOutOfOrderWhenConfigured) {
  EngineOptions options;
  options.detector.tolerate_out_of_order = true;
  EngineHarness h(options);
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE any, all observations
    ON observation(r, o, t)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 5).ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 4).ok());  // Dropped, not an error.
  EXPECT_EQ(h.engine->stats().detector.out_of_order_dropped, 1u);
  EXPECT_EQ(h.matches.size(), 1u);
}

// --- Rule firing on primitive roots -----------------------------------------------

TEST(DetectorPrimitiveTest, PrimitiveRootRuleFiresPerObservation) {
  EngineHarness h;
  h.readers.RegisterReader("dock1", "g_dock", "dock");
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE loc, location rule
    ON observation(r, o, t), group(r) = "g_dock"
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("dock1", "o1", 1).ok());
  ASSERT_TRUE(h.ObserveAt("elsewhere", "o1", 2).ok());
  EXPECT_EQ(h.matches.size(), 1u);
}

TEST(DetectorEdgeTest, FlushOnEmptyStreamIsHarmless) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE s, seq
    ON WITHIN(observation("a", o1, t1); observation("b", o2, t2), 5sec)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  ASSERT_TRUE(h.engine->Flush().ok());  // Idempotent.
  EXPECT_TRUE(h.matches.empty());
  EXPECT_EQ(h.engine->stats().detector.pseudo_fired, 0u);
}

TEST(DetectorEdgeTest, UnwatchedReadersCostNoPrimitiveMatches) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules("CREATE RULE x, keyed ON observation(\"a\", o, t) "
                         "IF true DO send alarm")
                  .ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(h.ObserveAt("other", "o", i).ok());
  }
  EXPECT_EQ(h.engine->stats().detector.primitive_matches, 0u);
  EXPECT_EQ(h.engine->stats().detector.observations, 50u);
}

TEST(DetectorEdgeTest, ObservationMatchingTwoOrBranchesEmitsTwice) {
  // One observation can instantiate both OR branches when their types
  // overlap (a literal reader and a group constraint naming its group):
  // two distinct primitive instances, hence two rule matches.
  EngineHarness h;
  h.readers.RegisterReader("a", "ga", "loc");
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE o, overlapping branches
    ON observation("a", o, t) OR observation(r, o, t2), group(r) = "ga"
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 1).ok());
  EXPECT_EQ(h.matches.size(), 2u);
}

TEST(DetectorEdgeTest, EqualPseudoExecutionTimesFireInFifoOrder) {
  // Two anchors whose expiry windows end at the same instant must both
  // resolve (FIFO tie-break), producing two confirmations.
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE m, monitor
    ON WITHIN(observation("a", o1, t1) AND NOT observation("n", o2, t2),
              5sec)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  // Same timestamp, different objects: identical pseudo execution times.
  ASSERT_TRUE(h.engine
                  ->Process({"a", "x", 10 * kSecond})
                  .ok());
  ASSERT_TRUE(h.engine
                  ->Process({"a", "y", 10 * kSecond})
                  .ok());
  ASSERT_TRUE(h.engine->Flush().ok());
  ASSERT_EQ(h.matches.size(), 2u);
  EXPECT_EQ(h.matches[0].t_end, 15 * kSecond);
  EXPECT_EQ(h.matches[1].t_end, 15 * kSecond);
}

TEST(DetectorEdgeTest, IntervalEqualToWithinBoundMatches) {
  // interval(e) <= tau is inclusive: a pair spanning exactly the window
  // matches, one microsecond more does not.
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE s, exact window
    ON WITHIN(observation("a", o1, t1); observation("b", o2, t2), 5sec)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 0).ok());
  ASSERT_TRUE(h.engine->Process({"b", "y", 5 * kSecond}).ok());
  EXPECT_EQ(h.matches.size(), 1u);
  ASSERT_TRUE(h.engine->Process({"a", "x", 10 * kSecond}).ok());
  ASSERT_TRUE(h.engine->Process({"b", "y", 15 * kSecond + 1}).ok());
  EXPECT_EQ(h.matches.size(), 1u);  // 5s + 1us: rejected.
}

TEST(DetectorEdgeTest, AdvanceToIsMonotonic) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules("CREATE RULE x, a ON observation(r, o, t) IF true "
                         "DO send alarm")
                  .ok());
  ASSERT_TRUE(h.ObserveAt("r", "o", 100).ok());
  ASSERT_TRUE(h.engine->AdvanceTo(50 * kSecond).ok());  // Past: no-op.
  EXPECT_EQ(h.engine->clock(), 100 * kSecond);
  ASSERT_TRUE(h.engine->AdvanceTo(200 * kSecond).ok());
  EXPECT_EQ(h.engine->clock(), 200 * kSecond);
}

TEST(DetectorPrimitiveTest, TypeConstraintFilters) {
  EngineHarness h;
  h.catalog.RegisterExact("laptop-1", "laptop");
  h.catalog.RegisterExact("mug-1", "mug");
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE laptops, typed
    ON observation(r, o, t), type(o) = "laptop"
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("r", "laptop-1", 1).ok());
  ASSERT_TRUE(h.ObserveAt("r", "mug-1", 2).ok());
  ASSERT_TRUE(h.ObserveAt("r", "unknown", 3).ok());
  EXPECT_EQ(h.matches.size(), 1u);
}

// --- Reader dispatch records -------------------------------------------------

// The `reader_records=` counts a DebugReport prints: one for a serial
// engine, one per shard line for a sharded one.
std::vector<size_t> ReaderRecordCounts(const std::string& report) {
  std::vector<size_t> counts;
  const std::string field = "reader_records=";
  for (size_t at = report.find(field); at != std::string::npos;
       at = report.find(field, at + 1)) {
    counts.push_back(std::stoul(report.substr(at + field.size())));
  }
  return counts;
}

std::string BoundText(const RecordedMatch& match, const char* var) {
  return std::get<events::SharedText>(match.instance->bindings().Scalar(var))
      .str();
}

TEST(DetectorReaderRecordTest, ReRegistrationTakesEffectAtNextObservation) {
  // A keyed rule engages the sharded pipeline at shards > 1, whose workers
  // keep their own records.
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EngineOptions options;
    options.shards = shards;
    EngineHarness h(options);
    h.readers.RegisterReader("r1", "dock", "loc_dock");
    ASSERT_TRUE(h.AddRules(R"(
      CREATE RULE at_dock, dock
      ON observation(r, o, t), group(r) = "dock"
      IF true DO send alarm
      CREATE RULE at_shelf, shelf
      ON observation(r, o, t), group(r) = "shelf"
      IF true DO send alarm
      CREATE RULE dup, keyed
      ON WITHIN(observation(r, o, t1); observation(r, o, t2), 1sec)
      IF true DO send alarm
    )").ok());
    ASSERT_TRUE(h.ObserveAt("r1", "x", 1).ok());
    ASSERT_TRUE(h.ObserveAt("r1", "y", 2).ok());
    h.readers.RegisterReader("r1", "shelf", "loc_shelf");
    ASSERT_TRUE(h.ObserveAt("r1", "x", 3).ok());
    ASSERT_TRUE(h.engine->Flush().ok());
    EXPECT_EQ(h.engine->num_shards() > 1, shards > 1);

    std::vector<RecordedMatch> dock = h.MatchesFor("at_dock");
    std::vector<RecordedMatch> shelf = h.MatchesFor("at_shelf");
    ASSERT_EQ(dock.size(), 2u);
    ASSERT_EQ(shelf.size(), 1u);
    EXPECT_EQ(shelf[0].t_end, 3 * kSecond);
    EXPECT_EQ(BoundText(dock[1], "r_location"), "loc_dock");
    EXPECT_EQ(BoundText(shelf[0], "r_location"), "loc_shelf");
    EXPECT_TRUE(h.MatchesFor("dup").empty());
  }
}

TEST(DetectorReaderRecordTest, UnregisteredReadersLeaveNoRecords) {
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EngineOptions options;
    options.shards = shards;
    EngineHarness h(options);
    h.readers.RegisterReader("known", "g", "loc");
    ASSERT_TRUE(h.AddRules(R"(
      CREATE RULE any, every reader
      ON WITHIN(observation(r, o, t1); observation(r, o, t2), 1sec)
      IF true DO send alarm
    )").ok());
    ASSERT_TRUE(h.engine->Compile().ok());
    std::vector<events::Observation> stream;
    for (int i = 0; i < 10000; ++i) {
      stream.push_back({"reader" + std::to_string(i), "x", i * kSecond});
    }
    ASSERT_TRUE(h.engine->ProcessAll(stream).ok());
    EXPECT_EQ(h.engine->stats().detector.primitive_matches, 20000u);
    std::vector<size_t> counts = ReaderRecordCounts(h.engine->DebugReport());
    ASSERT_EQ(counts.size(), static_cast<size_t>(shards));
    for (size_t count : counts) EXPECT_EQ(count, 0u);

    ASSERT_TRUE(h.engine->Process({"known", "x", 10000 * kSecond}).ok());
    counts = ReaderRecordCounts(h.engine->DebugReport());
    size_t total = 0;
    for (size_t count : counts) total += count;
    EXPECT_EQ(total, 1u);
  }
}

TEST(DetectorReaderRecordTest, ObservationsOfOneReaderShareItsHandle) {
  EngineHarness h;
  h.readers.RegisterReader("a", "ga", "loc_a");
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE o, overlapping branches
    ON observation("a", o, t) OR observation(r, o, t2), group(r) = "ga"
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 1).ok());
  ASSERT_TRUE(h.ObserveAt("a", "y", 2).ok());
  ASSERT_EQ(h.matches.size(), 4u);
  const events::SharedText& first = h.matches[0].instance->reader_text();
  EXPECT_EQ(first.view(), "a");
  // Two leaves of one observation, and two observations of the reader.
  for (const RecordedMatch& match : h.matches) {
    EXPECT_TRUE(match.instance->reader_text().SharesStorageWith(first));
  }
  // The second leaf binds r; its value is the same handle.
  EXPECT_TRUE(std::get<events::SharedText>(
                  h.matches[1].instance->bindings().Scalar("r"))
                  .SharesStorageWith(first));
  EXPECT_EQ(BoundText(h.matches[3], "r_location"), "loc_a");
  EXPECT_EQ(ReaderRecordCounts(h.engine->DebugReport()),
            std::vector<size_t>{1});
}

}  // namespace
}  // namespace rfidcep::engine
