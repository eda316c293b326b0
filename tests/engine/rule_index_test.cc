// Rule-set compiler tests: vocabulary-indexed dispatch (PrimitiveIndex
// construction over the paper rule families), predicate pushdown, the
// all-wildcard full-scan fallback, safe cross-rule SEQ+ prefix sharing
// (ownership isolation, checked against the reference interpreter), and
// snapshots through an open shared run — fresh ones and a committed
// pre-sharing fixture.

#include "engine/rule_index.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "engine/graph.h"
#include "engine/reference/reference_interpreter.h"
#include "engine/snapshot.h"
#include "epc/epc.h"
#include "rules/parser.h"
#include "test_util.h"

namespace rfidcep::engine {
namespace {

using rfidcep::engine::testing::EngineHarness;

rules::RuleSet MustParse(std::string_view program) {
  Result<rules::RuleSet> set = rules::ParseRuleProgram(program);
  EXPECT_TRUE(set.ok()) << set.status();
  return std::move(*set);
}

EventGraph MustBuild(const rules::RuleSet& set) {
  Result<EventGraph> graph = EventGraph::Build(set.rules);
  EXPECT_TRUE(graph.ok()) << graph.status();
  return std::move(*graph);
}

std::string LaptopEpc(uint64_t serial) {
  Result<epc::Epc> epc = epc::Epc::MakeSgtin(1, 614141, 7, 300003, serial);
  EXPECT_TRUE(epc.ok());
  return epc->ToUri();
}

// The paper rule families, compacted: a reader literal (containment), a
// group constraint (location), a group + type pair (asset monitoring on
// typed objects), and a type-only leaf.
constexpr std::string_view kFamilyProgram = R"(
  CREATE RULE lit, reader literal
  ON observation("r_conv", o, t)
  IF true
  DO send alarm
  CREATE RULE grp, group keyed
  ON observation(r, o, t), group(r) = "g_dock"
  IF true
  DO send alarm
  CREATE RULE typed, group and type
  ON observation(r, o, t), group(r) = "g_exit", type(o) = "laptop"
  IF true
  DO send alarm
  CREATE RULE typeonly, type only
  ON observation(r, o, t), type(o) = "laptop"
  IF true
  DO send alarm
)";

TEST(RuleIndexTest, BucketsPaperFamiliesByVocabulary) {
  rules::RuleSet set = MustParse(kFamilyProgram);
  EventGraph graph = MustBuild(set);
  PrimitiveIndex index(graph);

  EXPECT_FALSE(index.fullscan_fallback());
  EXPECT_TRUE(index.has_typed_entries());

  // Reader literal and group constraints key buckets.
  ASSERT_NE(index.FindReaderBucket("r_conv"), nullptr);
  ASSERT_NE(index.FindReaderBucket("g_dock"), nullptr);
  const PrimitiveIndex::Bucket* exit_bucket = index.FindReaderBucket("g_exit");
  ASSERT_NE(exit_bucket, nullptr);
  EXPECT_EQ(index.FindReaderBucket("nowhere"), nullptr);

  // The pushed type(o) constraint keys a sub-bucket; its entry keeps only
  // the group residual (reachable through the raw-reader probe, where the
  // probe key does not imply the group).
  ASSERT_EQ(exit_bucket->by_type.count("laptop"), 1u);
  EXPECT_TRUE(exit_bucket->untyped.empty());
  const DispatchEntry& typed = exit_bucket->by_type.find("laptop")->second[0];
  EXPECT_TRUE(typed.check_group);
  EXPECT_EQ(typed.group, "g_exit");

  // The type-only leaf has no reader vocabulary: it lives in the unkeyed
  // bucket, typed sub-bucket — so a non-laptop observation skips it.
  EXPECT_EQ(index.unkeyed().by_type.count("laptop"), 1u);
  EXPECT_TRUE(index.unkeyed().untyped.empty());
}

TEST(RuleIndexTest, AllWildcardRuleSetIsFullScanFallback) {
  rules::RuleSet set = MustParse(R"(
    CREATE RULE any, wildcard
    ON observation(r, o, t)
    IF true
    DO send alarm
  )");
  EventGraph graph = MustBuild(set);
  PrimitiveIndex index(graph);
  EXPECT_TRUE(index.fullscan_fallback());
  ASSERT_EQ(index.unkeyed().untyped.size(), 1u);
}

TEST(RuleIndexTest, FullScanFallbackStillMatchesAndIsCounted) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(R"(
    CREATE RULE any, wildcard
    ON observation(r, o, t)
    IF true
    DO send alarm
  )").ok());
  ASSERT_TRUE(h.ObserveAt("somewhere", "x", 1).ok());
  ASSERT_TRUE(h.ObserveAt("elsewhere", "y", 2).ok());
  EXPECT_EQ(h.matches.size(), 2u);
  // The degradation is surfaced, not silent.
  EXPECT_NE(h.engine->DebugReport().find("dispatch_fullscan=2"),
            std::string::npos);
}

using MatchSeq = std::vector<std::tuple<std::string, TimePoint, TimePoint>>;

TEST(RuleIndexTest, IndexedDispatchMatchesPinnedSequence) {
  EngineHarness h;
  h.readers.RegisterReader("dock1", "g_dock", "dock");
  h.readers.RegisterReader("exit1", "g_exit", "exit");
  EXPECT_TRUE(
      h.catalog.RegisterItemClass(614141, 7, 300003, "laptop").ok());
  EXPECT_TRUE(h.AddRules(std::string(kFamilyProgram)).ok());
  const std::string laptop = LaptopEpc(7);
  EXPECT_TRUE(h.ObserveAt("r_conv", "plain", 1).ok());
  EXPECT_TRUE(h.ObserveAt("dock1", laptop, 2).ok());   // grp + typeonly.
  EXPECT_TRUE(h.ObserveAt("exit1", laptop, 3).ok());   // typed + typeonly.
  EXPECT_TRUE(h.ObserveAt("exit1", "plain", 4).ok());  // Nothing.
  EXPECT_TRUE(h.ObserveAt("unknown", laptop, 5).ok()); // typeonly.
  EXPECT_TRUE(h.engine->Flush().ok());
  MatchSeq got;
  for (const auto& match : h.matches) {
    got.emplace_back(match.rule_id, match.t_begin, match.t_end);
  }
  // Every family fires; within one observation the probe order is the
  // reader bucket, then the group bucket, then the unkeyed bucket.
  const MatchSeq want = {
      {"lit", 1 * kSecond, 1 * kSecond},
      {"grp", 2 * kSecond, 2 * kSecond},
      {"typeonly", 2 * kSecond, 2 * kSecond},
      {"typed", 3 * kSecond, 3 * kSecond},
      {"typeonly", 3 * kSecond, 3 * kSecond},
      {"typeonly", 5 * kSecond, 5 * kSecond},
  };
  EXPECT_EQ(got, want);
}

// --- SEQ+ prefix sharing ----------------------------------------------------

// Two rules over the same bounded TSEQ+ prefix behind NEGATION
// terminators (the run still closes via the SEQ+ node's own expiry, so
// sharing is safe) plus a third whose identical-looking TSEQ+ is
// terminator-closed — its terminator CONSUMES the run, so it must keep
// a private copy. The fourth, keyed on the tag, shares no node with them.
constexpr std::string_view kSharingProgram = R"(
  DEFINE E1 = observation("r_conv", o1, t1)
  CREATE RULE wa, exit negated
  ON TSEQ(TSEQ+(E1, 0.1sec, 1sec); NOT observation("r_exit", o2, t2),
          2sec, 4sec)
  IF true
  DO send alarm
  CREATE RULE nb, case negated
  ON TSEQ(TSEQ+(E1, 0.1sec, 1sec); NOT observation("r_case", o2, t2),
          2sec, 4sec)
  IF true
  DO send alarm
  CREATE RULE ct, closed terminator
  ON TSEQ(TSEQ+(E1, 0.1sec, 1sec); observation("r_case", o2, t2),
          2sec, 4sec)
  IF true
  DO send alarm
  CREATE RULE cv, conveyor read
  ON observation("r_conv", o, t)
  IF true
  DO send alarm
)";

TEST(PrefixSharingTest, EligibleSeqPlusSharesIneligibleStaysPrivate) {
  rules::RuleSet set = MustParse(kSharingProgram);
  EventGraph graph = MustBuild(set);

  // wa + nb merge their eligible prefix; ct keeps a private copy.
  int seqplus = 0;
  for (const GraphNode& node : graph.nodes()) {
    if (node.op == events::ExprOp::kSeqPlus) ++seqplus;
  }
  EXPECT_EQ(seqplus, 2);

  // State keys: the shared node is canonical-keyed; the terminator-closed
  // copy stays positionally keyed.
  std::vector<std::string> rule_ids;
  for (const rules::Rule& rule : set.rules) rule_ids.push_back(rule.id);
  int shared_keys = 0;
  for (const std::string& key : graph.NodeStateKeys(rule_ids)) {
    if (key.rfind("shared|", 0) == 0) ++shared_keys;
  }
  EXPECT_EQ(shared_keys, 1);

  // Aliases mark the share-eligible SEQ+ (what lets pre-sharing
  // snapshots restore), and nothing else.
  int aliases = 0;
  for (const std::string& alias : graph.NodeStateAliases()) {
    if (!alias.empty()) ++aliases;
  }
  EXPECT_EQ(aliases, 1);
}

// The sharing workload: two TSEQ+ runs on r_conv, one of them confirmed
// by an r_case terminator, plus unrelated traffic.
std::vector<events::Observation> SharingStream() {
  auto at = [](double sec) { return static_cast<TimePoint>(sec * kSecond); };
  return {
      {"r_conv", "a", at(1.0)},
      {"r_conv", "b", at(1.5)},
      {"r_conv", "c", at(2.0)},
      // Consumes ct's private run AND falsifies nb's negation window;
      // wa's r_exit negation still holds, so run 1 fires wa + ct but not
      // nb.
      {"r_case", "K", at(4.5)},
      // Run 2 gets no terminator: once the clock moves past its windows
      // (or at Flush), both negation rules fire and ct stays silent.
      {"r_conv", "d", at(8.0)},
      {"r_conv", "e", at(8.4)},
  };
}

// The continuation fed after the snapshot cut: closes the open (d, e)
// run, then a third wave whose wa-negation IS falsified by r_exit.
std::vector<events::Observation> SharingSuffix() {
  auto at = [](double sec) { return static_cast<TimePoint>(sec * kSecond); };
  return {
      {"elsewhere", "x", at(14.0)}, {"r_conv", "f", at(20.1)},
      {"r_conv", "g", at(20.6)},    {"r_exit", "X", at(24.0)},
      {"elsewhere", "x", at(30.0)},
  };
}

TEST(PrefixSharingTest, SharedRunsKeepOwnershipPerRule) {
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(std::string(kSharingProgram)).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.engine->ProcessAll(SharingStream()).ok());
  ASSERT_TRUE(h.engine->Flush().ok());

  // Each rule must match exactly as if it were evaluated alone: the
  // reference interpreter runs every rule's own interval-propagated event
  // in isolation, with no shared state and no input from the graph.
  rules::RuleSet set = MustParse(kSharingProgram);
  const events::Environment env{};
  for (size_t i = 0; i < set.rules.size(); ++i) {
    MatchSeq want;
    reference::ReferenceInterpreter interp(
        PropagateIntervalConstraints(set.rules[i].event), &env);
    for (const events::EventInstancePtr& e : interp.Run(SharingStream())) {
      want.emplace_back(set.rules[i].id, e->t_begin(), e->t_end());
    }
    // Every rule fires somewhere in the workload — in particular ct's
    // terminator consumes ITS private run without disturbing the runs
    // the shared node holds for wa and nb.
    EXPECT_FALSE(want.empty()) << set.rules[i].id;
    MatchSeq got;
    for (const auto& m : h.MatchesFor(set.rules[i].id)) {
      got.emplace_back(m.rule_id, m.t_begin, m.t_end);
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << set.rules[i].id;
  }
}

// --- Snapshots through an open shared run ----------------------------------

// The cut: right after SharingStream(), inside the open (d, e) TSEQ+ run
// (its expiry pseudos and negation windows pending).
std::string CaptureAtCut() {
  EngineHarness h;
  EXPECT_TRUE(h.AddRules(std::string(kSharingProgram)).ok());
  EXPECT_TRUE(h.engine->Compile().ok());
  EXPECT_TRUE(h.engine->ProcessAll(SharingStream()).ok());
  std::string bytes;
  EXPECT_TRUE(h.engine->SerializeState(&bytes).ok());
  return bytes;
}

// Node keys with their open-run counts, then the pending pseudo events.
std::vector<std::string> Shape(const std::string& bytes) {
  snapshot::EngineSnapshot snap;
  EXPECT_TRUE(snapshot::DecodeEngineSnapshot(bytes, &snap).ok());
  std::vector<std::string> out;
  for (const snapshot::DetectorSnapshot& src : snap.sources) {
    for (const snapshot::NodeStateRecord& rec : src.nodes) {
      out.push_back(rec.state_key + " runs=" + std::to_string(rec.runs.size()));
    }
    for (const snapshot::PseudoRecord& rec : src.pseudos) {
      out.push_back(rec.target_key + " @" + std::to_string(rec.execute_at));
    }
  }
  return out;
}

TEST(PrefixSharingTest, SnapshotKeepsSharedRunOpen) {
  const std::string bytes = CaptureAtCut();
  const std::vector<std::string> shape = Shape(bytes);
  EXPECT_TRUE(std::any_of(shape.begin(), shape.end(), [](const auto& e) {
    return e.starts_with("shared|") && e.ends_with(" runs=1");
  }));
  testing::ExpectRestoresToUninterruptedRun(kSharingProgram, SharingStream(),
                                            SharingSuffix(), bytes);
}

// checkpoint_v2_presharing.snap was captured at the cut by commit
// ee261d0 with SEQ+ prefix sharing switched off: wa and nb each hold a
// private copy of the TSEQ+ node, both with the open (d, e) run. The
// restore collapses them onto the one shared node.
TEST(PrefixSharingTest, PreSharingSnapshotCollapsesPrivateCopies) {
  const std::string bytes = testing::ReadFile(
      std::string(RFIDCEP_TESTDATA_DIR) + "/checkpoint_v2_presharing.snap");
  ASSERT_FALSE(bytes.empty()) << "missing fixture";

  // The two copies are the open runs under keys today's graph lacks
  // (ct's terminator-closed copy keeps its key).
  const std::vector<std::string> current = Shape(CaptureAtCut());
  int copies = 0;
  for (const std::string& entry : Shape(bytes)) {
    if (entry.ends_with(" runs=1") &&
        std::find(current.begin(), current.end(), entry) == current.end()) {
      ++copies;
    }
  }
  EXPECT_EQ(copies, 2);

  // Re-captured after the restore: one shared node, one set of expiry
  // pseudos, exactly as this build captures the cut itself.
  EngineHarness restored;
  ASSERT_TRUE(restored.AddRules(std::string(kSharingProgram)).ok());
  ASSERT_TRUE(restored.engine->Compile().ok());
  ASSERT_TRUE(restored.engine->RestoreState(bytes).ok());
  std::string again;
  ASSERT_TRUE(restored.engine->SerializeState(&again).ok());
  EXPECT_EQ(Shape(again), current);

  testing::ExpectRestoresToUninterruptedRun(kSharingProgram, SharingStream(),
                                            SharingSuffix(), bytes);
}

}  // namespace
}  // namespace rfidcep::engine
