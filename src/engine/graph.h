// The RCEDA event graph (paper §4.3–§4.5).
//
// Given a set of rules, we build one DAG whose leaves are primitive event
// types and whose internal nodes are complex-event constructors. Building
// proceeds in the paper's phases:
//
//   1. per-rule expression trees, with WITHIN interval constraints
//      propagated top-down (child.within = min(child.within,
//      parent.within));
//   2. common-subgraph merging by canonical key, so shared subevents are
//      detected once. Primitive leaves are keyed by their pattern alone:
//      a primitive instance spans no time, so no window can filter it,
//      and leaves differing only by a propagated WITHIN are one node;
//   3. bottom-up detection-mode assignment (push / pull / mixed);
//   4. top-down pseudo-event planning (which nodes anchor expiry timers
//      and which non-spontaneous nodes they query);
//   5. validation: a rule whose root would be pull-mode (or whose expiry
//      window is unbounded) can never fire and is rejected as invalid.

#ifndef RFIDCEP_ENGINE_GRAPH_H_
#define RFIDCEP_ENGINE_GRAPH_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "events/expr.h"
#include "rules/rule.h"

namespace rfidcep::engine {

enum class DetectionMode {
  kPush = 0,  // Spontaneous: occurrences propagate bottom-up.
  kMixed,     // Needs pseudo events / on-demand materialization.
  kPull,      // Only answers explicit queries (NOT).
};

std::string_view DetectionModeName(DetectionMode mode);

struct GraphNode {
  int id = -1;
  events::ExprOp op = events::ExprOp::kPrimitive;
  events::PrimitiveEventType primitive;  // Leaves only.
  Duration dist_lo = 0;                      // kSeq / kSeqPlus.
  Duration dist_hi = kDurationInfinity;      // kSeq / kSeqPlus.
  Duration within = kDurationInfinity;       // Propagated bound (not leaves).
  std::vector<int> children;                 // Child node ids (slot order).
  std::vector<int> parents;                  // Parent node ids (deduped).
  std::vector<size_t> rule_indexes;          // Rules rooted at this node.
  DetectionMode mode = DetectionMode::kPush;
  // How long this node's occurrence log / output must stay queryable by
  // parents (drives buffer GC); kDurationInfinity disables GC.
  Duration retention = 0;
  // Scalar variables guaranteed to be bound by every instance of this
  // node (sorted). OR takes the intersection of its branches; NOT and
  // SEQ+ bind nothing scalar.
  std::vector<std::string> bound_vars;
  // Equality-join keys:
  //  * kAnd/kSeq: variables shared by both children — instances can only
  //    pair when they agree on these, so slot buffers chain entries by
  //    their hash (the duplicate-filter rule's same-(r,o) join).
  //  * kNot: variables shared by the negated child and every sibling that
  //    queries it — the occurrence log is chained by them.
  std::vector<std::string> join_vars;
  // join_vars as interned symbols (same order); the detector hashes join
  // keys over these so the per-event path never touches variable names.
  std::vector<events::SymbolId> join_syms;
  std::string canonical_key;
  // SEQ+ only: whether this occurrence is hash-consed across rules
  // (bounded expiry and not closed by a positive SEQ terminator — see
  // Intern).
  bool seqplus_share_eligible = false;
};

class EventGraph {
 public:
  // Builds the merged, validated graph for `rules`. Each rule's event is
  // interval-propagated, hash-consed into shared nodes (share-eligible
  // SEQ+ nodes included: safe prefix sharing, see Intern), and validated.
  // Fails with kFailedPrecondition naming the first invalid rule.
  static Result<EventGraph> Build(const std::vector<rules::Rule>& rules);

  const std::vector<GraphNode>& nodes() const { return nodes_; }
  const GraphNode& node(int id) const { return nodes_[id]; }
  size_t num_nodes() const { return nodes_.size(); }

  // Root node id for rule index `rule_index`.
  int RuleRoot(size_t rule_index) const { return rule_roots_[rule_index]; }

  // The compiled (normalized, interval-propagated, hash-consed) event
  // expression of rule `rule_index`, rebuilt as a walkable EventExpr tree.
  // Shared subgraphs come back as shared subtrees (same EventExprPtr), so
  // structural sharing survives the round trip. It reflects exactly what
  // the detector runs (leaves carry no window), not what the rule author
  // wrote; the metamorphic rewriter (engine/rewrite.h) starts from it.
  events::EventExprPtr RuleExpr(size_t rule_index) const;

  // All leaf (primitive) node ids.
  const std::vector<int>& primitive_nodes() const { return primitive_nodes_; }

  // --- Snapshots (engine/snapshot.h) --------------------------------------
  // A graph-independent identity for every node's runtime state, used to
  // match detector state across graphs compiled from the same rule set
  // by different builds or layouts (checkpoint restore). Shareable nodes are
  // identified by their canonical key (hash-consing makes it unique in
  // any graph). Private SEQ+ nodes — duplicate canonical keys are
  // possible — are qualified by position: a SEQ+ rule root by the owning
  // rule's id (`rule_ids[rule_index]`), a nested SEQ+ by its unique
  // parent's state key and child slot. Share-eligible SEQ+ nodes are
  // keyed "shared|<canonical key>": sharing makes the canonical key unique
  // again. Snapshots written before prefix sharing hold such state under
  // positional keys; NodeStateAliases() lets them restore.
  std::vector<std::string> NodeStateKeys(
      const std::vector<std::string>& rule_ids) const;

  // Companion to NodeStateKeys: for each node, the canonical key under
  // which its state is equivalent to a private per-rule copy's —
  // non-empty exactly for share-eligible SEQ+ nodes (a shared node's
  // trajectory is identical to each private copy's). BuildRestorePlan
  // uses it to restore pre-sharing "rule:<id>|<key>" state into
  // "shared|<key>" nodes when no exact state key matches.
  std::vector<std::string> NodeStateAliases() const;

  // Human-readable dump (one line per node) for debugging and docs.
  std::string DebugString() const;

 private:
  EventGraph() = default;

  // Recursively interns `expr` (already interval-propagated) and returns
  // its node id. `terminator_closed` says the occurrence sits in the
  // initiator slot of a SEQ whose terminator is positive — the one
  // context where an arriving terminator force-closes SEQ+ runs, making
  // cross-rule sharing unsafe.
  int Intern(const events::EventExpr& expr, bool terminator_closed);

  void ComputeModes();
  void ComputeRetention();
  void ComputeJoinVars();
  Status Validate(const std::vector<rules::Rule>& rules) const;

  std::vector<GraphNode> nodes_;
  std::vector<int> rule_roots_;
  std::vector<int> primitive_nodes_;
  std::unordered_map<std::string, int> interned_;
};

// Returns a copy of `expr` with interval constraints pushed down:
// every child's within becomes min(child.within, parent.within)
// (paper §4.3, Fig. 7).
events::EventExprPtr PropagateIntervalConstraints(
    const events::EventExprPtr& expr);

}  // namespace rfidcep::engine

#endif  // RFIDCEP_ENGINE_GRAPH_H_
