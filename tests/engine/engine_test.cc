// RcedaEngine facade behaviors: compilation lifecycle, conditions,
// procedures, statistics.

#include "engine/engine.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "sim/supply_chain.h"
#include "tests/engine/test_util.h"

namespace rfidcep::engine {
namespace {

using ::rfidcep::engine::testing::EngineHarness;
using ::rfidcep::engine::testing::RecordedMatch;

TEST(EngineTest, CompileRequiresRules) {
  store::Database db;
  RcedaEngine engine(&db, events::Environment{});
  EXPECT_FALSE(engine.Compile().ok());
}

TEST(EngineTest, DuplicateRuleIdsRejected) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules("CREATE RULE x, a ON observation(r, o, t) IF true "
                         "DO send alarm")
                  .ok());
  Status status = h.AddRules(
      "CREATE RULE x, b ON observation(r, o, t) IF true DO send alarm");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
}

TEST(EngineTest, NoRuleAdditionAfterCompile) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules("CREATE RULE x, a ON observation(r, o, t) IF true "
                         "DO send alarm")
                  .ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  EXPECT_FALSE(h.AddRules("CREATE RULE y, b ON observation(r, o, t) IF true "
                          "DO send alarm")
                   .ok());
}

TEST(EngineTest, ProcessRequiresCompile) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules("CREATE RULE x, a ON observation(r, o, t) IF true "
                         "DO send alarm")
                  .ok());
  EXPECT_FALSE(h.engine->compiled());
  Status status = h.engine->Process({"r", "o", 1 * kSecond});
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.ObserveAt("r", "o", 1).ok());
  EXPECT_EQ(h.matches.size(), 1u);
}

TEST(EngineTest, ConditionGatesActions) {
  EngineHarness h;
  int alarms = 0;
  h.engine->RegisterProcedure(
      "send alarm",
      [&](const RuleFiring&, const std::string&) { ++alarms; });
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE gated, conditional
    ON observation(r, o, t)
    IF o = 'target'
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("r", "noise", 1).ok());
  ASSERT_TRUE(h.ObserveAt("r", "target", 2).ok());
  ASSERT_TRUE(h.ObserveAt("r", "noise", 3).ok());
  EXPECT_EQ(alarms, 1);
  EXPECT_EQ(h.engine->stats().rules_fired, 1u);
  EXPECT_EQ(h.engine->stats().condition_rejects, 2u);
  EXPECT_EQ(h.engine->FiredCount("gated"), 1u);
  // Matches (pre-condition) were reported for all three.
  EXPECT_EQ(h.matches.size(), 3u);
}

// A condition whose integer arithmetic overflows is a condition error:
// wrapped, `t1 + 5sec` would fall before t2 and the rule would fire for
// two observations 10 us apart.
TEST(EngineTest, ConditionOverflowIsAConditionError) {
  EngineHarness h;
  int alarms = 0;
  h.engine->RegisterProcedure(
      "send alarm",
      [&](const RuleFiring&, const std::string&) { ++alarms; });
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE late, late pair rule
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
    IF t1 + 5000000 < t2
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  constexpr TimePoint kEnd = std::numeric_limits<TimePoint>::max();
  ASSERT_TRUE(h.engine->Process(events::Observation{"r", "o", kEnd - 20}).ok());
  ASSERT_TRUE(h.engine->Process(events::Observation{"r", "o", kEnd - 10}).ok());
  EXPECT_EQ(h.MatchesFor("late").size(), 1u);
  EXPECT_EQ(h.engine->stats().condition_errors, 1u);
  EXPECT_EQ(h.engine->stats().rules_fired, 0u);
  EXPECT_EQ(alarms, 0);
  EXPECT_EQ(h.engine->first_deferred_error().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, ProcedureReceivesBindingsAndArgs) {
  EngineHarness h;
  std::string seen_object;
  std::string seen_args;
  h.engine->RegisterProcedure(
      "send duplicate msg",
      [&](const RuleFiring& firing, const std::string& args) {
        seen_args = args;
        seen_object = firing.params.at("o").scalar.AsString();
      });
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE dup, duplicate detection rule
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
    IF true
    DO send duplicate msg(observation(r, o, t1))
  )").ok());
  ASSERT_TRUE(h.ObserveAt("r1", "oX", 0).ok());
  ASSERT_TRUE(h.ObserveAt("r1", "oX", 2).ok());
  EXPECT_EQ(seen_object, "oX");
  EXPECT_EQ(seen_args, "observation(r, o, t1)");
  EXPECT_EQ(h.engine->stats().procedures_invoked, 1u);
}

TEST(EngineTest, UnknownProceduresAreCountedNotFatal) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules("CREATE RULE x, a ON observation(r, o, t) IF true "
                         "DO some unregistered thing")
                  .ok());
  ASSERT_TRUE(h.ObserveAt("r", "o", 1).ok());
  EXPECT_EQ(h.engine->stats().unknown_procedures, 1u);
  EXPECT_TRUE(h.engine->first_deferred_error().ok());
}

TEST(EngineTest, ExecuteActionsFalseSkipsDispatch) {
  EngineOptions options;
  options.execute_actions = false;
  EngineHarness h(options);
  int alarms = 0;
  h.engine->RegisterProcedure(
      "send alarm",
      [&](const RuleFiring&, const std::string&) { ++alarms; });
  ASSERT_TRUE(h.AddRules("CREATE RULE x, a ON observation(r, o, t) IF true "
                         "DO send alarm")
                  .ok());
  ASSERT_TRUE(h.ObserveAt("r", "o", 1).ok());
  EXPECT_EQ(alarms, 0);
  EXPECT_EQ(h.engine->stats().rules_fired, 1u);  // Still counted.
}

TEST(EngineTest, SqlActionErrorsAreDeferred) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules("CREATE RULE x, a ON observation(r, o, t) IF true "
                         "DO INSERT INTO missing_table VALUES (o)")
                  .ok());
  ASSERT_TRUE(h.ObserveAt("r", "o", 1).ok());  // Stream keeps going.
  EXPECT_EQ(h.engine->stats().action_errors, 1u);
  EXPECT_FALSE(h.engine->first_deferred_error().ok());
}

TEST(EngineTest, FiredCountsPerRule) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE all_obs, everything
    ON observation(r, o, t)
    IF true
    DO send alarm
    CREATE RULE a_only, reader a
    ON observation("a", o, t)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 1).ok());
  ASSERT_TRUE(h.ObserveAt("b", "y", 2).ok());
  EXPECT_EQ(h.engine->FiredCount("all_obs"), 2u);
  EXPECT_EQ(h.engine->FiredCount("a_only"), 1u);
  EXPECT_EQ(h.engine->FiredCount("ghost"), 0u);
}

TEST(EngineTest, RemoveRuleAndRecompile) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE keep, stays
    ON observation("a", o, t)
    IF true
    DO send alarm
    CREATE RULE drop_me, goes
    ON observation(r, o, t)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 1).ok());
  EXPECT_EQ(h.matches.size(), 2u);  // Both rules matched.

  ASSERT_TRUE(h.engine->RemoveRule("drop_me").ok());
  EXPECT_FALSE(h.engine->compiled());  // Removal decompiles.
  EXPECT_EQ(h.engine->num_rules(), 1u);
  h.matches.clear();
  ASSERT_TRUE(h.ObserveAt("a", "y", 2).ok());  // Auto-recompiles.
  EXPECT_EQ(h.matches.size(), 1u);
  EXPECT_EQ(h.matches[0].rule_id, "keep");

  EXPECT_FALSE(h.engine->RemoveRule("ghost").ok());
}

// Rule ids resolve through one id -> index map: removing a rule shifts
// every later rule down, and frees its id for reuse.
TEST(EngineTest, RemoveRuleKeepsIdLookupsAligned) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE first, one ON observation("a", o, t) IF true DO send alarm
    CREATE RULE second, two ON observation("b", o, t) IF true DO send alarm
    CREATE RULE third, three ON observation("c", o, t) IF true DO send alarm
  )").ok());
  ASSERT_TRUE(h.engine->RemoveRule("first").ok());
  ASSERT_EQ(h.engine->num_rules(), 2u);
  EXPECT_EQ(h.engine->rule(0).id, "second");
  EXPECT_EQ(h.engine->rule(1).id, "third");

  Status duplicate = h.AddRules(
      "CREATE RULE third, again ON observation(r, o, t) IF true DO send alarm");
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(h.AddRules("CREATE RULE first, back ON observation(\"a\", o, t) "
                         "IF true DO send alarm")
                  .ok());
  ASSERT_EQ(h.engine->num_rules(), 3u);
  EXPECT_EQ(h.engine->rule(2).id, "first");

  ASSERT_TRUE(h.ObserveAt("c", "x", 1).ok());
  ASSERT_TRUE(h.ObserveAt("a", "y", 2).ok());
  ASSERT_TRUE(h.ObserveAt("c", "z", 3).ok());
  EXPECT_EQ(h.engine->FiredCount("first"), 1u);
  EXPECT_EQ(h.engine->FiredCount("second"), 0u);
  EXPECT_EQ(h.engine->FiredCount("third"), 2u);
  EXPECT_EQ(h.engine->FiredCount("ghost"), 0u);
  EXPECT_EQ(h.engine->RemoveRule("ghost").code(), StatusCode::kNotFound);
}

TEST(EngineTest, DecompileAllowsAddingRules) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules("CREATE RULE a, one ON observation(\"a\", o, t) IF "
                         "true DO send alarm")
                  .ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  h.engine->Decompile();
  ASSERT_TRUE(h.AddRules("CREATE RULE b, two ON observation(\"b\", o, t) IF "
                         "true DO send alarm")
                  .ok());
  ASSERT_TRUE(h.ObserveAt("b", "x", 1).ok());
  EXPECT_EQ(h.engine->FiredCount("b"), 1u);
}

TEST(EngineTest, ResetClearsRuntimeState) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE s, seq
    ON WITHIN(SEQ(observation("a", o1, t1); observation("b", o2, t2)), 10sec)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 5).ok());  // Buffered initiator.
  EXPECT_GT(h.engine->TotalBufferedEntries(), 0u);
  ASSERT_TRUE(h.engine->Reset().ok());
  EXPECT_EQ(h.engine->TotalBufferedEntries(), 0u);
  EXPECT_EQ(h.engine->clock(), 0);
  EXPECT_EQ(h.engine->stats().detector.observations, 0u);
  // The buffered initiator is gone: a terminator alone does not fire,
  // and a fresh stream can restart at t=0.
  ASSERT_TRUE(h.ObserveAt("b", "y", 1).ok());
  EXPECT_EQ(h.engine->FiredCount("s"), 0u);
  ASSERT_TRUE(h.ObserveAt("a", "x", 2).ok());
  ASSERT_TRUE(h.ObserveAt("b", "y", 3).ok());
  EXPECT_EQ(h.engine->FiredCount("s"), 1u);
}

TEST(EngineTest, ResetRequiresCompiled) {
  store::Database db;
  RcedaEngine engine(&db, events::Environment{});
  EXPECT_FALSE(engine.Reset().ok());
}

TEST(EngineTest, InvalidRuleFailsCompilation) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules("CREATE RULE bad, pull root ON NOT "
                         "observation(r, o, t) IF true DO send alarm")
                  .ok());
  Status status = h.engine->Compile();
  EXPECT_FALSE(status.ok());
}

TEST(EngineTest, DebugReportReflectsRuntimeState) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE s, seq
    ON WITHIN(SEQ(observation("a", o1, t1); observation("b", o2, t2)), 10sec)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 1).ok());
  std::string mid = h.engine->DebugReport();
  EXPECT_NE(mid.find("buffered=1"), std::string::npos) << mid;
  EXPECT_NE(mid.find("rule s fired=0"), std::string::npos) << mid;
  ASSERT_TRUE(h.ObserveAt("b", "y", 2).ok());
  std::string after = h.engine->DebugReport();
  EXPECT_NE(after.find("rule s fired=1"), std::string::npos) << after;
}

TEST(EngineTest, StatsTrackDetectorCounters) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules("CREATE RULE x, a ON observation(\"a\", o, t) IF "
                         "true DO send alarm")
                  .ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 1).ok());
  ASSERT_TRUE(h.ObserveAt("b", "y", 2).ok());
  const EngineStats& stats = h.engine->stats();
  EXPECT_EQ(stats.detector.observations, 2u);
  EXPECT_EQ(stats.detector.primitive_matches, 1u);
}

TEST(EngineTest, WindowFamilyBindsEachObservationOncePerLeafPattern) {
  // Five duplicate rules that differ only by window compile to two leaf
  // patterns, so each observation binds twice, not ten times, and every
  // rule still fires exactly as it does alone.
  const std::vector<std::string> family = {
      R"(CREATE RULE dup4, duplicate
         ON WITHIN(observation(r, o, t1); observation(r, o, t2), 4sec)
         IF true DO send alarm)",
      R"(CREATE RULE dup5, duplicate
         ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
         IF true DO send alarm)",
      R"(CREATE RULE dup6, duplicate
         ON WITHIN(observation(r, o, t1); observation(r, o, t2), 6sec)
         IF true DO send alarm)",
      R"(CREATE RULE dup7, duplicate
         ON WITHIN(observation(r, o, t1); observation(r, o, t2), 7sec)
         IF true DO send alarm)",
      R"(CREATE RULE dup8, duplicate
         ON WITHIN(observation(r, o, t1); observation(r, o, t2), 8sec)
         IF true DO send alarm)",
  };
  const std::vector<events::Observation> stream = {
      {"r1", "x", 0 * kSecond},  {"r2", "y", 1 * kSecond},
      {"r1", "x", 3 * kSecond},  {"r2", "y", 6 * kSecond},
      {"r1", "x", 10 * kSecond}, {"r2", "y", 13 * kSecond},
      {"r1", "x", 17 * kSecond}, {"r1", "x", 22 * kSecond},
  };
  auto spans = [](const EngineHarness& h, const std::string& rule_id) {
    std::vector<std::pair<TimePoint, TimePoint>> out;
    for (const auto& m : h.MatchesFor(rule_id)) {
      out.emplace_back(m.t_begin, m.t_end);
    }
    return out;
  };

  EngineHarness all;
  std::string program;
  for (const std::string& rule : family) program += rule + "\n";
  ASSERT_TRUE(all.AddRules(program).ok());
  ASSERT_TRUE(all.engine->Compile().ok());
  ASSERT_TRUE(all.engine->ProcessAll(stream).ok());
  ASSERT_TRUE(all.engine->Flush().ok());
  EXPECT_EQ(all.engine->stats().detector.primitive_matches, 2 * stream.size());

  size_t distinct = 0;
  for (size_t i = 0; i < family.size(); ++i) {
    const std::string id = "dup" + std::to_string(4 + i);
    EngineHarness alone;
    ASSERT_TRUE(alone.AddRules(family[i]).ok());
    ASSERT_TRUE(alone.engine->Compile().ok());
    ASSERT_TRUE(alone.engine->ProcessAll(stream).ok());
    ASSERT_TRUE(alone.engine->Flush().ok());
    EXPECT_EQ(spans(all, id), spans(alone, id)) << id;
    if (i > 0 && spans(all, id) != spans(all, "dup" + std::to_string(3 + i))) {
      ++distinct;
    }
  }
  EXPECT_GT(distinct, 0u) << "the windows must matter on this stream";
}

TEST(EngineTest, WindowFamilyHoldsEachInstanceOnce) {
  // Three window variants of the duplicate rule are one family: an
  // initiator all three buffer is one physical entry, counted once in
  // the total and once in each member's view.
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE dup2, duplicate
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 2sec)
    IF true DO send alarm
    CREATE RULE dup5, duplicate
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
    IF true DO send alarm
    CREATE RULE dup9, duplicate
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 9sec)
    IF true DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("a", "x", 1).ok());
  EXPECT_EQ(h.engine->TotalBufferedEntries(), 1u);
  std::string report = h.engine->DebugReport();
  EXPECT_NE(report.find("buffered=1\n"), std::string::npos) << report;
  // Leaves #0 and #1, then the three members; #2 represents the family.
  for (int id : {2, 3, 4}) {
    EXPECT_NE(report.find("#" + std::to_string(id) +
                          " push produced=0 buffered=1 family=#2 SEQ"),
              std::string::npos)
        << report;
  }
  // At 4s (a,x,1) is past dup2's deadline, and dup5/dup9 consume it;
  // (a,x,4) is shared by all three. Expiry runs at the family's widest
  // deadline (1 + 9 s), so the old entry stays until then.
  ASSERT_TRUE(h.ObserveAt("a", "x", 4).ok());
  EXPECT_EQ(h.engine->FiredCount("dup2"), 0u);
  EXPECT_EQ(h.engine->FiredCount("dup5"), 1u);
  EXPECT_EQ(h.engine->FiredCount("dup9"), 1u);
  EXPECT_EQ(h.engine->TotalBufferedEntries(), 2u);
  ASSERT_TRUE(h.ObserveAt("b", "y", 11).ok());
  EXPECT_EQ(h.engine->TotalBufferedEntries(), 2u);  // (a,x,4), (b,y,11).
}

TEST(EngineTest, LeavesAndPairsShareTheObservationsEpcText) {
  // Two leaves match each observation; both primitive instances, their
  // bindings and the pair built from them hold one copy of its EPC text.
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE first, leaf one
    ON observation(r, o, t1)
    IF true DO send alarm
    CREATE RULE second, leaf two
    ON observation(r, o, t2)
    IF true DO send alarm
    CREATE RULE dup, duplicate
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
    IF true DO send alarm
  )").ok());
  const std::string epc = "urn:epc:id:sgtin:0614141.100001.2731";
  ASSERT_TRUE(h.ObserveAt("r1", epc, 1).ok());
  ASSERT_TRUE(h.ObserveAt("r1", epc, 2).ok());
  const std::vector<RecordedMatch> first = h.MatchesFor("first");
  const std::vector<RecordedMatch> second = h.MatchesFor("second");
  const std::vector<RecordedMatch> dup = h.MatchesFor("dup");
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  ASSERT_EQ(dup.size(), 1u);
  auto object_of = [](const events::EventInstancePtr& e) {
    return std::get<events::SharedText>(e->bindings().Scalar("o"));
  };
  for (size_t i = 0; i < 2; ++i) {
    const events::EventInstance& a = *first[i].instance;
    const events::EventInstance& b = *second[i].instance;
    EXPECT_EQ(a.object_text().view(), epc);
    EXPECT_TRUE(a.object_text().SharesStorageWith(b.object_text()));
    EXPECT_TRUE(a.reader_text().SharesStorageWith(b.reader_text()));
    EXPECT_TRUE(
        object_of(first[i].instance).SharesStorageWith(a.object_text()));
    EXPECT_TRUE(
        object_of(second[i].instance).SharesStorageWith(a.object_text()));
  }
  // Each observation copies its text once: equal, not shared, across them.
  const events::SharedText& earlier = first[0].instance->object_text();
  const events::SharedText& later = first[1].instance->object_text();
  EXPECT_EQ(earlier, later);
  EXPECT_FALSE(earlier.SharesStorageWith(later));
  // The pair's merged binding keeps the initiator's handle.
  const events::EventInstancePtr& pair = dup[0].instance;
  ASSERT_EQ(pair->children().size(), 2u);
  EXPECT_TRUE(object_of(pair).SharesStorageWith(earlier));
  EXPECT_TRUE(pair->children()[1]->object_text().SharesStorageWith(later));
}

// --- Emission-order golden ------------------------------------------------
//
// Fig. 9a's workload (25 generated rules over a 5-site supply chain, seed
// 7): two FNV-1a digests pin the match-callback sequence (rule id,
// t_begin, t_end, sequence number) and a mid-stream checkpoint's bytes.
// Window-family members share one arrival; the constants are those of
// routing an instance to one parent at a time, so a change in emission
// order, sequence numbering, pseudo-event order or buffered state fails
// here even when every match count still agrees.

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  return h;
}

struct GoldenRun {
  size_t matches = 0;
  uint64_t match_digest = kFnvOffset;
  size_t checkpoint_bytes = 0;
  uint64_t checkpoint_digest = kFnvOffset;
};

// Runs the first `observations` of the 20,000-observation stream under
// `context`, checkpointing after half of them.
GoldenRun RunFig9aGolden(ParameterContext context, size_t observations) {
  sim::SupplyChainConfig config;  // perfbench's fig9a ChainConfig.
  config.seed = 7;
  config.num_sites = 5;
  config.num_items = 10000;
  config.num_cases = 1000;
  config.arrival_rate_per_second = 1000.0;
  config.duplicate_rate = 0.03;
  sim::SupplyChain chain(config);
  std::vector<events::Observation> stream = chain.GenerateStream(20000);
  stream.resize(std::min(observations, stream.size()));
  const std::vector<events::Observation> head(
      stream.begin(), stream.begin() + static_cast<long>(stream.size() / 2));
  const std::vector<events::Observation> tail(
      stream.begin() + static_cast<long>(stream.size() / 2), stream.end());

  EngineOptions options;
  options.detector.context = context;
  options.execute_actions = false;
  RcedaEngine engine(nullptr, chain.environment(), options);
  GoldenRun run;
  engine.SetMatchCallback(
      [&run](const rules::Rule& rule, const events::EventInstancePtr& e) {
        ++run.matches;
        run.match_digest = Fnv1a(run.match_digest, rule.id);
        run.match_digest =
            Fnv1a(run.match_digest, static_cast<uint64_t>(e->t_begin()));
        run.match_digest =
            Fnv1a(run.match_digest, static_cast<uint64_t>(e->t_end()));
        run.match_digest = Fnv1a(run.match_digest, e->sequence_number());
      });
  EXPECT_TRUE(engine.AddRulesFromText(chain.GeneratedRuleProgram(25)).ok());
  EXPECT_TRUE(engine.Compile().ok());
  EXPECT_TRUE(engine.ProcessAll(head).ok());
  std::string bytes;
  EXPECT_TRUE(engine.SerializeState(&bytes).ok());
  run.checkpoint_bytes = bytes.size();
  run.checkpoint_digest = Fnv1a(kFnvOffset, bytes);
  EXPECT_TRUE(engine.ProcessAll(tail).ok());
  EXPECT_TRUE(engine.Flush().ok());
  return run;
}

TEST(EngineGoldenTest, Fig9aEmissionOrderAndCheckpoint) {
  const GoldenRun run = RunFig9aGolden(ParameterContext::kChronicle, 20000);
  EXPECT_EQ(run.matches, 29967u);
  EXPECT_EQ(run.match_digest, 0x4f80c69d6af477e3ull);
  EXPECT_EQ(run.checkpoint_bytes, 1524100u);
  EXPECT_EQ(run.checkpoint_digest, 0x9a0ee06b9f3bbb3full);
}

TEST(EngineGoldenTest, Fig9aEmissionOrderInEveryContext) {
  struct Expected {
    ParameterContext context;
    size_t matches;
    uint64_t match_digest;
    size_t checkpoint_bytes;
    uint64_t checkpoint_digest;
  };
  const Expected expected[] = {
      {ParameterContext::kRecent, 2075, 0x5995cd211ae1d53aull, 2897,
       0x6d0964179f9d363dull},
      {ParameterContext::kContinuous, 2325, 0x4e84449228791ddcull, 209145,
       0x3b57699b521ec118ull},
      {ParameterContext::kCumulative, 2325, 0x4e84449228791ddcull, 209145,
       0x8b041b0ca4a355e2ull},
      {ParameterContext::kUnrestricted, 2325, 0x4e84449228791ddcull, 211442,
       0x98853c698ca6529aull},
  };
  for (const Expected& e : expected) {
    SCOPED_TRACE(std::string(ParameterContextName(e.context)));
    const GoldenRun run = RunFig9aGolden(e.context, 2000);
    EXPECT_EQ(run.matches, e.matches);
    EXPECT_EQ(run.match_digest, e.match_digest);
    EXPECT_EQ(run.checkpoint_bytes, e.checkpoint_bytes);
    EXPECT_EQ(run.checkpoint_digest, e.checkpoint_digest);
  }
}

}  // namespace
}  // namespace rfidcep::engine
