#include "engine/graph.h"

#include <gtest/gtest.h>

#include "rules/parser.h"

namespace rfidcep::engine {
namespace {

using events::ExprOp;

rules::RuleSet MustParse(std::string_view program) {
  Result<rules::RuleSet> set = rules::ParseRuleProgram(program);
  EXPECT_TRUE(set.ok()) << set.status();
  return std::move(*set);
}

TEST(IntervalPropagationTest, Fig7TopDownMin) {
  // Paper Fig. 7: E = WITHIN(TSEQ+(E1 OR E2, 0.1sec, 1sec) ; E3, 10min) —
  // after propagation every descendant carries the 10min bound.
  Result<events::EventExprPtr> expr = rules::ParseEventExpr(
      "WITHIN(SEQ(TSEQ+(observation(\"r1\", o, t) OR observation(\"r2\", o, "
      "t), 0.1sec, 1sec); observation(\"r3\", o3, t3)), 10min)");
  ASSERT_TRUE(expr.ok()) << expr.status();
  events::EventExprPtr propagated = PropagateIntervalConstraints(*expr);
  // Root SEQ: 10min.
  EXPECT_EQ(propagated->within(), 10 * kMinute);
  // TSEQ+ child: 10min.
  const events::EventExprPtr& seqplus = propagated->children()[0];
  EXPECT_EQ(seqplus->op(), ExprOp::kSeqPlus);
  EXPECT_EQ(seqplus->within(), 10 * kMinute);
  // OR under TSEQ+: 10min.
  EXPECT_EQ(seqplus->children()[0]->within(), 10 * kMinute);
  // And its primitive leaves too.
  EXPECT_EQ(seqplus->children()[0]->children()[0]->within(), 10 * kMinute);
}

TEST(IntervalPropagationTest, InnerTighterBoundWins) {
  Result<events::EventExprPtr> expr = rules::ParseEventExpr(
      "WITHIN(WITHIN(observation(\"r1\", o, t), 5sec) AND "
      "observation(\"r2\", o2, t2), 1min)");
  ASSERT_TRUE(expr.ok()) << expr.status();
  events::EventExprPtr propagated = PropagateIntervalConstraints(*expr);
  EXPECT_EQ(propagated->within(), kMinute);
  EXPECT_EQ(propagated->children()[0]->within(), 5 * kSecond);  // min(5s,60s)
  EXPECT_EQ(propagated->children()[1]->within(), kMinute);
}

TEST(EventGraphTest, MergesCommonSubgraphsAcrossRules) {
  rules::RuleSet set = MustParse(R"(
    DEFINE E1 = observation("r1", o1, t1)
    CREATE RULE a, one
    ON TSEQ(TSEQ+(E1, 0.1sec, 1sec); observation("r2", o2, t2), 10sec, 20sec)
    IF true
    DO send alarm
    CREATE RULE b, two
    ON TSEQ(TSEQ+(E1, 0.1sec, 1sec); observation("r3", o3, t3), 10sec, 20sec)
    IF true
    DO send alarm
  )");
  Result<EventGraph> graph = EventGraph::Build(set.rules);
  ASSERT_TRUE(graph.ok()) << graph.status();
  // Nodes: E1, r2-obs, r3-obs, TSEQ a, TSEQ b hash-cons, but each rule gets
  // a private TSEQ+ node (7 total, not 8): run state is materialized by the
  // parent SEQ's terminator, so sharing one TSEQ+ between rules with
  // different terminators would let one rule close the other's open run.
  EXPECT_EQ(graph->num_nodes(), 7u);
  size_t seqplus_count = 0;
  for (const GraphNode& node : graph->nodes()) {
    if (node.op == ExprOp::kSeqPlus) ++seqplus_count;
  }
  EXPECT_EQ(seqplus_count, 2u);
}

TEST(EventGraphTest, DistinctWithinBoundsAreNotMerged) {
  rules::RuleSet set = MustParse(R"(
    CREATE RULE a, one
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
    IF true
    DO send alarm
    CREATE RULE b, two
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 9sec)
    IF true
    DO send alarm
  )");
  Result<EventGraph> graph = EventGraph::Build(set.rules);
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_NE(graph->RuleRoot(0), graph->RuleRoot(1));
  // But identical bounds do merge.
  rules::RuleSet same = MustParse(R"(
    CREATE RULE a, one
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
    IF true
    DO send alarm
    CREATE RULE b, two
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
    IF true
    DO send alarm
  )");
  Result<EventGraph> merged = EventGraph::Build(same.rules);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->RuleRoot(0), merged->RuleRoot(1));
}

TEST(EventGraphTest, LeavesDifferingOnlyByWithinShareOneNode) {
  // The Fig. 9 duplicate family: five windows over the same two leaf
  // patterns. A primitive instance spans no time, so no window can filter
  // it: two leaves serve all five SEQ roots.
  rules::RuleSet set = MustParse(R"(
    CREATE RULE dup4, duplicate
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 4sec)
    IF true DO send alarm
    CREATE RULE dup5, duplicate
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
    IF true DO send alarm
    CREATE RULE dup6, duplicate
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 6sec)
    IF true DO send alarm
    CREATE RULE dup7, duplicate
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 7sec)
    IF true DO send alarm
    CREATE RULE dup8, duplicate
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 8sec)
    IF true DO send alarm
  )");
  Result<EventGraph> graph = EventGraph::Build(set.rules);
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_EQ(graph->primitive_nodes().size(), 2u);
  EXPECT_EQ(graph->num_nodes(), 7u);
  for (size_t i = 0; i < set.rules.size(); ++i) {
    const GraphNode& root = graph->node(graph->RuleRoot(i));
    EXPECT_EQ(root.op, ExprOp::kSeq);
    EXPECT_EQ(root.within, static_cast<Duration>(4 + i) * kSecond);
    EXPECT_EQ(root.children, graph->node(graph->RuleRoot(0)).children);
  }
  for (int id : graph->primitive_nodes()) {
    EXPECT_EQ(graph->node(id).within, kDurationInfinity);
    EXPECT_EQ(graph->node(id).parents.size(), 5u);
  }

  // Rules rooted at the same primitive under different windows share
  // that leaf, which then fires both rules.
  rules::RuleSet roots = MustParse(R"(
    CREATE RULE short, one
    ON WITHIN(observation("A", o, t1), 5sec)
    IF true
    DO send alarm
    CREATE RULE long, two
    ON WITHIN(observation("A", o, t1), 9sec)
    IF true
    DO send alarm
  )");
  Result<EventGraph> shared = EventGraph::Build(roots.rules);
  ASSERT_TRUE(shared.ok()) << shared.status();
  ASSERT_EQ(shared->num_nodes(), 1u);
  EXPECT_EQ(shared->RuleRoot(0), shared->RuleRoot(1));
  EXPECT_EQ(shared->node(0).rule_indexes, (std::vector<size_t>{0, 1}));
}

TEST(EventGraphTest, DetectionModes) {
  rules::RuleSet set = MustParse(R"(
    DEFINE E4 = observation("r4", o4, t4), type(o4) = "laptop"
    DEFINE E5 = observation("r4", o5, t5), type(o5) = "superuser"
    CREATE RULE push_rule, simple
    ON observation("r1", o, t) OR observation("r2", o, t)
    IF true
    DO send alarm
    CREATE RULE mixed_rule, negated
    ON WITHIN(E4 AND NOT E5, 5sec)
    IF true
    DO send alarm
    CREATE RULE seq_rule, packing
    ON TSEQ(TSEQ+(observation("ri", o1, t1), 0.1sec, 1sec);
            observation("rc", o2, t2), 10sec, 20sec)
    IF true
    DO send alarm
  )");
  Result<EventGraph> graph = EventGraph::Build(set.rules);
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_EQ(graph->node(graph->RuleRoot(0)).mode, DetectionMode::kPush);
  EXPECT_EQ(graph->node(graph->RuleRoot(1)).mode, DetectionMode::kMixed);
  // Paper: TSEQ over a push terminator is push-detectable.
  EXPECT_EQ(graph->node(graph->RuleRoot(2)).mode, DetectionMode::kPush);
  // The TSEQ+ node itself is mixed; the NOT node is pull.
  for (const GraphNode& node : graph->nodes()) {
    if (node.op == ExprOp::kSeqPlus) {
      EXPECT_EQ(node.mode, DetectionMode::kMixed);
    }
    if (node.op == ExprOp::kNot) {
      EXPECT_EQ(node.mode, DetectionMode::kPull);
    }
  }
}

TEST(EventGraphTest, RejectsPullRootRule) {
  // A bare negation can never be detected.
  rules::RuleSet set = MustParse(R"(
    CREATE RULE invalid, bare negation
    ON NOT observation("r1", o, t)
    IF true
    DO send alarm
  )");
  Result<EventGraph> graph = EventGraph::Build(set.rules);
  EXPECT_FALSE(graph.ok());
}

TEST(EventGraphTest, RejectsUnboundedNegatedAnd) {
  rules::RuleSet set = MustParse(R"(
    CREATE RULE invalid, unbounded negation
    ON observation("r1", o, t) AND NOT observation("r2", o2, t2)
    IF true
    DO send alarm
  )");
  Result<EventGraph> graph = EventGraph::Build(set.rules);
  EXPECT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EventGraphTest, RejectsUnboundedSeqPlusRoot) {
  rules::RuleSet set = MustParse(R"(
    CREATE RULE invalid, unbounded aperiodic
    ON SEQ+(observation("r1", o, t))
    IF true
    DO send alarm
  )");
  Result<EventGraph> graph = EventGraph::Build(set.rules);
  EXPECT_FALSE(graph.ok());
}

TEST(EventGraphTest, AcceptsUnboundedSeqPlusUnderSeqTerminator) {
  // Snoop A* style: the terminator closes the collection.
  rules::RuleSet set = MustParse(R"(
    CREATE RULE valid, terminator closed
    ON SEQ(SEQ+(observation("r1", o1, t1)); observation("r2", o2, t2))
    IF true
    DO send alarm
  )");
  Result<EventGraph> graph = EventGraph::Build(set.rules);
  EXPECT_TRUE(graph.ok()) << graph.status();
}

TEST(EventGraphTest, RejectsNotOverNonSpontaneous) {
  rules::RuleSet set = MustParse(R"(
    CREATE RULE invalid, not over seqplus
    ON WITHIN(observation("r2", o2, t2) AND
              NOT TSEQ+(observation("r1", o, t), 0.1sec, 1sec), 10sec)
    IF true
    DO send alarm
  )");
  Result<EventGraph> graph = EventGraph::Build(set.rules);
  EXPECT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kUnimplemented);
}

TEST(EventGraphTest, RetentionCoversParentWindows) {
  rules::RuleSet set = MustParse(R"(
    DEFINE E4 = observation("r4", o4, t4), type(o4) = "laptop"
    DEFINE E5 = observation("r4", o5, t5), type(o5) = "superuser"
    CREATE RULE r5, asset monitoring rule
    ON WITHIN(E4 AND NOT E5, 5sec)
    IF true
    DO send alarm
  )");
  Result<EventGraph> graph = EventGraph::Build(set.rules);
  ASSERT_TRUE(graph.ok()) << graph.status();
  for (const GraphNode& node : graph->nodes()) {
    if (node.op == ExprOp::kNot) {
      EXPECT_EQ(node.retention, 5 * kSecond);
    }
  }
}

TEST(EventGraphTest, JoinVarsForEqualityJoins) {
  // The duplicate-filter rule joins on (r, o); t1/t2 are not shared.
  rules::RuleSet set = MustParse(R"(
    CREATE RULE dup, duplicate detection rule
    ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
    IF true
    DO send duplicate msg
  )");
  Result<EventGraph> graph = EventGraph::Build(set.rules);
  ASSERT_TRUE(graph.ok()) << graph.status();
  const GraphNode& root = graph->node(graph->RuleRoot(0));
  EXPECT_EQ(root.op, ExprOp::kSeq);
  EXPECT_EQ(root.join_vars, (std::vector<std::string>{"o", "r"}));
  EXPECT_EQ(root.bound_vars,
            (std::vector<std::string>{"o", "r", "t1", "t2"}));
}

TEST(EventGraphTest, NotLogKeyIsSharedWithProbingSibling) {
  // Infield rule: the NOT's occurrence log is keyed by (r, o), the
  // variables shared with the probing terminator.
  rules::RuleSet set = MustParse(R"(
    CREATE RULE infield, infield filtering
    ON WITHIN(NOT observation(r, o, t1); observation(r, o, t2), 30sec)
    IF true
    DO send alarm
  )");
  Result<EventGraph> graph = EventGraph::Build(set.rules);
  ASSERT_TRUE(graph.ok()) << graph.status();
  bool found = false;
  for (const GraphNode& node : graph->nodes()) {
    if (node.op == ExprOp::kNot) {
      found = true;
      EXPECT_EQ(node.join_vars, (std::vector<std::string>{"o", "r"}));
      EXPECT_TRUE(node.bound_vars.empty());  // NOT binds nothing itself.
    }
  }
  EXPECT_TRUE(found);
  // Rule 5 shape: no shared variables -> empty NOT key (single bucket).
  rules::RuleSet monitor = MustParse(R"(
    DEFINE E4 = observation("r4", o4, t4)
    DEFINE E5 = observation("r4", o5, t5)
    CREATE RULE r5, monitor
    ON WITHIN(E4 AND NOT E5, 5sec)
    IF true
    DO send alarm
  )");
  Result<EventGraph> g2 = EventGraph::Build(monitor.rules);
  ASSERT_TRUE(g2.ok());
  for (const GraphNode& node : g2->nodes()) {
    if (node.op == ExprOp::kNot) {
      EXPECT_TRUE(node.join_vars.empty());
    }
  }
}

TEST(EventGraphTest, OrBoundVarsAreTheIntersection) {
  rules::RuleSet set = MustParse(R"(
    CREATE RULE u, union
    ON observation("a", o, t1) OR observation("b", o, t2)
    IF true
    DO send alarm
  )");
  Result<EventGraph> graph = EventGraph::Build(set.rules);
  ASSERT_TRUE(graph.ok());
  const GraphNode& root = graph->node(graph->RuleRoot(0));
  ASSERT_EQ(root.op, ExprOp::kOr);
  // Only `o` is bound by both branches (t1 vs t2 differ).
  EXPECT_EQ(root.bound_vars, (std::vector<std::string>{"o"}));
}

TEST(EventGraphTest, DebugStringListsAllNodes) {
  rules::RuleSet set = MustParse(R"(
    CREATE RULE a, one
    ON observation("r1", o, t)
    IF true
    DO send alarm
  )");
  Result<EventGraph> graph = EventGraph::Build(set.rules);
  ASSERT_TRUE(graph.ok());
  std::string dump = graph->DebugString();
  EXPECT_NE(dump.find("push"), std::string::npos);
  EXPECT_NE(dump.find("rules: 0"), std::string::npos);
}

}  // namespace
}  // namespace rfidcep::engine
