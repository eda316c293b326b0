#include "engine/graph.h"

#include <algorithm>
#include <functional>

namespace rfidcep::engine {

using events::EventExpr;
using events::EventExprPtr;
using events::ExprOp;

std::string_view DetectionModeName(DetectionMode mode) {
  switch (mode) {
    case DetectionMode::kPush:
      return "push";
    case DetectionMode::kMixed:
      return "mixed";
    case DetectionMode::kPull:
      return "pull";
  }
  return "?";
}

namespace {

EventExprPtr PropagateImpl(const EventExpr& expr, Duration inherited) {
  Duration within = std::min(expr.within(), inherited);
  EventExprPtr rebuilt;
  switch (expr.op()) {
    case ExprOp::kPrimitive:
      rebuilt = EventExpr::Primitive(expr.primitive());
      break;
    case ExprOp::kOr: {
      std::vector<EventExprPtr> children;
      children.reserve(expr.children().size());
      for (const EventExprPtr& child : expr.children()) {
        children.push_back(PropagateImpl(*child, within));
      }
      rebuilt = EventExpr::Or(std::move(children));
      break;
    }
    case ExprOp::kAnd:
      rebuilt = EventExpr::And(PropagateImpl(*expr.children()[0], within),
                               PropagateImpl(*expr.children()[1], within));
      break;
    case ExprOp::kNot:
      rebuilt = EventExpr::Not(PropagateImpl(*expr.children()[0], within));
      break;
    case ExprOp::kSeq:
      rebuilt = EventExpr::Tseq(PropagateImpl(*expr.children()[0], within),
                                PropagateImpl(*expr.children()[1], within),
                                expr.dist_lo(), expr.dist_hi());
      break;
    case ExprOp::kSeqPlus:
      rebuilt = EventExpr::TseqPlus(PropagateImpl(*expr.children()[0], within),
                                    expr.dist_lo(), expr.dist_hi());
      break;
  }
  if (within != kDurationInfinity) {
    rebuilt = EventExpr::Within(std::move(rebuilt), within);
  }
  return rebuilt;
}

}  // namespace

EventExprPtr PropagateIntervalConstraints(const EventExprPtr& expr) {
  return PropagateImpl(*expr, kDurationInfinity);
}

int EventGraph::Intern(const EventExpr& expr, bool terminator_closed) {
  // A primitive instance spans no time, so a propagated WITHIN bound can
  // never filter it: leaves are keyed by their pattern alone and carry no
  // window. One binding per observation then serves every parent, whatever
  // that parent's window; windows apply where instances combine.
  const bool leaf = expr.op() == ExprOp::kPrimitive;
  std::string key =
      leaf ? EventExpr::Primitive(expr.primitive())->CanonicalKey()
           : expr.CanonicalKey();
  // SEQ+ run state is parent-specific only where a parent SEQ's positive
  // terminator force-materializes the run (SeqTerminatorArrival): two
  // rules sharing that node would observe (and disturb) each other's
  // runs. Everywhere else a bounded SEQ+ is self-closing — every run is
  // materialized by its own expiry pseudo event, so the node's state
  // trajectory is identical whether it serves one rule or many, and the
  // per-rule continuation slots above it keep run *consumption* private.
  // Such occurrences are shared. Unbounded or terminator-closed SEQ+
  // stays private per occurrence; it never touches the intern table at
  // all, so an interned eligible node can never acquire a
  // terminator-closed parent.
  bool eligible = false;
  if (expr.op() == ExprOp::kSeqPlus) {
    bool bounded = expr.dist_hi() != kDurationInfinity ||
                   expr.within() != kDurationInfinity;
    eligible = bounded && !terminator_closed;
  }
  bool shareable = expr.op() != ExprOp::kSeqPlus || eligible;
  if (shareable) {
    if (auto it = interned_.find(key); it != interned_.end()) {
      return it->second;
    }
  }
  // Intern children first (so ids are topologically ordered).
  std::vector<int> child_ids;
  child_ids.reserve(expr.children().size());
  for (size_t c = 0; c < expr.children().size(); ++c) {
    bool child_closed =
        expr.op() == ExprOp::kSeq && c == 0 &&
        expr.children()[1]->op() != ExprOp::kNot;
    child_ids.push_back(Intern(*expr.children()[c], child_closed));
  }

  GraphNode node;
  node.id = static_cast<int>(nodes_.size());
  node.op = expr.op();
  node.primitive = expr.primitive();
  node.dist_lo = expr.dist_lo();
  node.dist_hi = expr.dist_hi();
  node.within = leaf ? kDurationInfinity : expr.within();
  node.children = child_ids;
  node.canonical_key = key;
  node.seqplus_share_eligible = eligible;
  nodes_.push_back(std::move(node));
  if (shareable) interned_.emplace(std::move(key), nodes_.back().id);
  int id = nodes_.back().id;

  for (int child : child_ids) {
    auto& parents = nodes_[child].parents;
    if (std::find(parents.begin(), parents.end(), id) == parents.end()) {
      parents.push_back(id);
    }
  }
  if (leaf) primitive_nodes_.push_back(id);
  return id;
}

namespace {

EventExprPtr ExprFromNode(const std::vector<GraphNode>& nodes, int id,
                          std::vector<EventExprPtr>* memo) {
  if ((*memo)[id] != nullptr) return (*memo)[id];
  const GraphNode& node = nodes[id];
  EventExprPtr expr;
  switch (node.op) {
    case ExprOp::kPrimitive:
      expr = EventExpr::Primitive(node.primitive);
      break;
    case ExprOp::kOr: {
      std::vector<EventExprPtr> children;
      children.reserve(node.children.size());
      for (int child : node.children) {
        children.push_back(ExprFromNode(nodes, child, memo));
      }
      expr = EventExpr::Or(std::move(children));
      break;
    }
    case ExprOp::kAnd:
      expr = EventExpr::And(ExprFromNode(nodes, node.children[0], memo),
                            ExprFromNode(nodes, node.children[1], memo));
      break;
    case ExprOp::kNot:
      expr = EventExpr::Not(ExprFromNode(nodes, node.children[0], memo));
      break;
    case ExprOp::kSeq:
      expr = EventExpr::Tseq(ExprFromNode(nodes, node.children[0], memo),
                             ExprFromNode(nodes, node.children[1], memo),
                             node.dist_lo, node.dist_hi);
      break;
    case ExprOp::kSeqPlus:
      expr = EventExpr::TseqPlus(ExprFromNode(nodes, node.children[0], memo),
                                 node.dist_lo, node.dist_hi);
      break;
  }
  if (node.within != kDurationInfinity) {
    expr = EventExpr::Within(std::move(expr), node.within);
  }
  (*memo)[id] = expr;
  return expr;
}

}  // namespace

events::EventExprPtr EventGraph::RuleExpr(size_t rule_index) const {
  std::vector<EventExprPtr> memo(nodes_.size());
  return ExprFromNode(nodes_, rule_roots_[rule_index], &memo);
}

void EventGraph::ComputeModes() {
  // Children precede parents in id order.
  for (GraphNode& node : nodes_) {
    auto child_mode = [&](int slot) {
      return nodes_[node.children[slot]].mode;
    };
    switch (node.op) {
      case ExprOp::kPrimitive:
        node.mode = DetectionMode::kPush;
        break;
      case ExprOp::kOr: {
        bool all_push = true;
        bool all_pull = true;
        for (int child : node.children) {
          all_push &= nodes_[child].mode == DetectionMode::kPush;
          all_pull &= nodes_[child].mode == DetectionMode::kPull;
        }
        node.mode = all_push ? DetectionMode::kPush
                    : all_pull ? DetectionMode::kPull
                               : DetectionMode::kMixed;
        break;
      }
      case ExprOp::kAnd: {
        DetectionMode a = child_mode(0);
        DetectionMode b = child_mode(1);
        if (a == DetectionMode::kPush && b == DetectionMode::kPush) {
          node.mode = DetectionMode::kPush;
        } else if (a == DetectionMode::kPull && b == DetectionMode::kPull) {
          node.mode = DetectionMode::kPull;
        } else {
          node.mode = DetectionMode::kMixed;
        }
        break;
      }
      case ExprOp::kNot:
        node.mode = DetectionMode::kPull;
        break;
      case ExprOp::kSeq: {
        // Detection is driven by the terminator (second child).
        switch (child_mode(1)) {
          case DetectionMode::kPush:
            node.mode = DetectionMode::kPush;
            break;
          case DetectionMode::kMixed:
            node.mode = DetectionMode::kMixed;
            break;
          case DetectionMode::kPull:
            // SEQ(a; NOT b): detectable at expiry when the window is
            // bounded by WITHIN or the distance constraint.
            node.mode = (node.within != kDurationInfinity ||
                         node.dist_hi != kDurationInfinity)
                            ? DetectionMode::kMixed
                            : DetectionMode::kPull;
            break;
        }
        break;
      }
      case ExprOp::kSeqPlus:
        node.mode = child_mode(0) == DetectionMode::kPull
                        ? DetectionMode::kPull
                        : DetectionMode::kMixed;
        break;
    }
  }
}

namespace {

std::vector<std::string> Intersect(const std::vector<std::string>& a,
                                   const std::vector<std::string>& b) {
  std::vector<std::string> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<std::string> Union(const std::vector<std::string>& a,
                               const std::vector<std::string>& b) {
  std::vector<std::string> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

}  // namespace

void EventGraph::ComputeJoinVars() {
  // Bound-variable sets, children first (ids are topological).
  for (GraphNode& node : nodes_) {
    switch (node.op) {
      case ExprOp::kPrimitive: {
        const events::PrimitiveEventType& type = node.primitive;
        if (!type.reader().is_literal && !type.reader().text.empty()) {
          node.bound_vars.push_back(type.reader().text);
        }
        if (!type.object().is_literal && !type.object().text.empty()) {
          node.bound_vars.push_back(type.object().text);
        }
        if (!type.time_var().empty()) {
          node.bound_vars.push_back(type.time_var());
        }
        std::sort(node.bound_vars.begin(), node.bound_vars.end());
        node.bound_vars.erase(
            std::unique(node.bound_vars.begin(), node.bound_vars.end()),
            node.bound_vars.end());
        break;
      }
      case ExprOp::kOr: {
        node.bound_vars = nodes_[node.children[0]].bound_vars;
        for (size_t i = 1; i < node.children.size(); ++i) {
          node.bound_vars =
              Intersect(node.bound_vars, nodes_[node.children[i]].bound_vars);
        }
        break;
      }
      case ExprOp::kAnd:
      case ExprOp::kSeq:
        node.bound_vars = Union(nodes_[node.children[0]].bound_vars,
                                nodes_[node.children[1]].bound_vars);
        break;
      case ExprOp::kNot:
      case ExprOp::kSeqPlus:
        // NOT instances are synthetic; SEQ+ demotes bindings to
        // multi-valued — neither guarantees scalar bindings.
        break;
    }
    if (node.op == ExprOp::kAnd || node.op == ExprOp::kSeq) {
      node.join_vars = Intersect(nodes_[node.children[0]].bound_vars,
                                 nodes_[node.children[1]].bound_vars);
    }
  }
  // NOT log keys: variables shared with every probing sibling.
  for (GraphNode& node : nodes_) {
    if (node.op != ExprOp::kNot) continue;
    std::vector<std::string> key = nodes_[node.children[0]].bound_vars;
    for (int parent_id : node.parents) {
      const GraphNode& parent = nodes_[parent_id];
      for (int sibling : parent.children) {
        if (sibling != node.id) {
          key = Intersect(key, nodes_[sibling].bound_vars);
        }
      }
    }
    node.join_vars = std::move(key);
  }
  // Intern the join vocabulary once, at compile time.
  for (GraphNode& node : nodes_) {
    node.join_syms.reserve(node.join_vars.size());
    for (const std::string& var : node.join_vars) {
      node.join_syms.push_back(events::InternSymbol(var));
    }
  }
}

namespace {

// Upper bound on how long after its t_end an instance of `id` can arrive at
// its parents. Primitives arrive immediately. A SEQ+ run closes only when the
// clock passes run_end + min(dist_hi, within), so its instance lags by that
// much plus whatever lag its element already carries. Composite nodes inherit
// the worst lag among their non-negated children (NOT children never produce
// arrivals; they are only consulted via log queries).
Duration MaterializationLag(const std::vector<GraphNode>& nodes, int id,
                            std::vector<Duration>* memo) {
  Duration& slot = (*memo)[id];
  if (slot >= 0) return slot;
  slot = 0;  // Primitives and kNot stay at zero; also breaks any cycle.
  const GraphNode& node = nodes[id];
  if (node.op == ExprOp::kSeqPlus) {
    Duration closure = std::min(node.dist_hi, node.within);
    slot = AddSaturating(closure,
                         MaterializationLag(nodes, node.children[0], memo));
  } else if (node.op != ExprOp::kPrimitive && node.op != ExprOp::kNot) {
    Duration lag = 0;
    for (int child_id : node.children) {
      if (nodes[child_id].op == ExprOp::kNot) continue;
      lag = std::max(lag, MaterializationLag(nodes, child_id, memo));
    }
    slot = lag;
  }
  return slot;
}

}  // namespace

void EventGraph::ComputeRetention() {
  std::vector<Duration> lag_memo(nodes_.size(), Duration{-1});
  for (GraphNode& node : nodes_) {
    Duration retention = 0;
    for (int parent_id : node.parents) {
      const GraphNode& parent = nodes_[parent_id];
      Duration window = parent.within;
      if (window == kDurationInfinity && parent.op == ExprOp::kSeq) {
        window = parent.dist_hi;
      }
      // A query against this node's log is anchored at the triggering
      // sibling's t_end, which can lie well before the clock when that
      // sibling materializes late (e.g. a SEQ+ run closing at its expiry
      // pseudo event). Pad the window by the siblings' materialization lag
      // so falsifiers are still in the log when the late query arrives.
      Duration sibling_lag = 0;
      for (int child_id : parent.children) {
        if (child_id == node.id || nodes_[child_id].op == ExprOp::kNot) {
          continue;
        }
        sibling_lag = std::max(
            sibling_lag, MaterializationLag(nodes_, child_id, &lag_memo));
      }
      retention = std::max(retention, AddSaturating(window, sibling_lag));
    }
    node.retention = retention;
  }
}

Status EventGraph::Validate(const std::vector<rules::Rule>& rules) const {
  auto rule_error = [&](size_t rule_index, const std::string& what) {
    return Status::FailedPrecondition(
        "invalid rule '" + rules[rule_index].id + "': " + what);
  };

  // Per-node structural checks.
  for (const GraphNode& node : nodes_) {
    if (node.op == ExprOp::kNot) {
      const GraphNode& child = nodes_[node.children[0]];
      if (child.mode != DetectionMode::kPush) {
        return Status::Unimplemented(
            "NOT over a non-spontaneous event (" + child.canonical_key +
            ") is not supported");
      }
      for (int parent_id : node.parents) {
        const GraphNode& parent = nodes_[parent_id];
        if (parent.op != ExprOp::kAnd && parent.op != ExprOp::kSeq) {
          return Status::Unimplemented(
              "NOT may only appear under AND or SEQ/TSEQ");
        }
      }
    }
    if (node.op == ExprOp::kSeq) {
      bool left_not = nodes_[node.children[0]].op == ExprOp::kNot;
      bool right_not = nodes_[node.children[1]].op == ExprOp::kNot;
      if ((left_not || right_not) && node.within == kDurationInfinity &&
          node.dist_hi == kDurationInfinity) {
        return Status::FailedPrecondition(
            "SEQ with a negated side needs a WITHIN or distance bound: " +
            node.canonical_key);
      }
      if (left_not && right_not) {
        return Status::Unimplemented(
            "SEQ with both sides negated is not supported");
      }
    }
    if (node.op == ExprOp::kAnd && node.mode == DetectionMode::kMixed &&
        node.within == kDurationInfinity) {
      return Status::FailedPrecondition(
          "AND with a negated side needs a WITHIN bound to ever be "
          "detected: " +
          node.canonical_key);
    }
    if (node.op == ExprOp::kSeqPlus) {
      bool bounded = node.dist_hi != kDurationInfinity ||
                     node.within != kDurationInfinity;
      if (!bounded) {
        // Only legal when every use is as the initiator of a SEQ, whose
        // terminator then closes the open run.
        bool queried_only = !node.parents.empty();
        for (int parent_id : node.parents) {
          const GraphNode& parent = nodes_[parent_id];
          if (parent.op != ExprOp::kSeq || parent.children[0] != node.id) {
            queried_only = false;
          }
        }
        if (!queried_only) {
          return Status::FailedPrecondition(
              "unbounded SEQ+ can never close: " + node.canonical_key +
              " (add distance bounds, WITHIN, or a sequence terminator)");
        }
      }
    }
  }

  for (size_t i = 0; i < rule_roots_.size(); ++i) {
    const GraphNode& root = nodes_[rule_roots_[i]];
    if (root.mode == DetectionMode::kPull) {
      return rule_error(i,
                        "event is pull-mode (non-spontaneous with no bounded "
                        "window); it can never be detected");
    }
  }
  return Status::Ok();
}

Result<EventGraph> EventGraph::Build(const std::vector<rules::Rule>& rules) {
  EventGraph graph;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].event == nullptr) {
      return Status::InvalidArgument("rule '" + rules[i].id +
                                     "' has no event");
    }
    EventExprPtr propagated = PropagateIntervalConstraints(rules[i].event);
    int root = graph.Intern(*propagated, /*terminator_closed=*/false);
    graph.rule_roots_.push_back(root);
    graph.nodes_[root].rule_indexes.push_back(i);
  }
  graph.ComputeModes();
  graph.ComputeRetention();
  graph.ComputeJoinVars();
  RFIDCEP_RETURN_IF_ERROR(graph.Validate(rules));
  return graph;
}

std::vector<std::string> EventGraph::NodeStateKeys(
    const std::vector<std::string>& rule_ids) const {
  std::vector<std::string> keys(nodes_.size());
  // Keys are built parent-first for SEQ+ chains; recursion depth is the
  // expression nesting depth.
  std::function<const std::string&(int)> key_of =
      [&](int id) -> const std::string& {
    std::string& out = keys[id];
    if (!out.empty()) return out;
    const GraphNode& node = nodes_[id];
    if (node.op != ExprOp::kSeqPlus) {
      out = node.canonical_key;
      return out;
    }
    if (node.seqplus_share_eligible) {
      // Shared across rules: hash-consing makes the canonical key unique
      // among shared SEQ+ nodes, so this key is position-free.
      out = "shared|";
      out += node.canonical_key;
      return out;
    }
    if (node.parents.empty()) {
      // A private SEQ+ rule root is created per rule, so it carries
      // exactly one rule index (Intern never reuses a private SEQ+).
      out = "rule:";
      out += node.rule_indexes.empty()
                 ? "#" + std::to_string(id)
                 : rule_ids[node.rule_indexes.front()];
      out += '|';
      out += node.canonical_key;
      return out;
    }
    // Nested SEQ+: at most one parent (non-shareable nodes are never
    // re-interned), and (parent state key, slot) pins the occurrence.
    int parent_id = node.parents.front();
    const GraphNode& parent = nodes_[parent_id];
    size_t slot = 0;
    for (size_t c = 0; c < parent.children.size(); ++c) {
      if (parent.children[c] == id) {
        slot = c;
        break;
      }
    }
    out = key_of(parent_id);
    out += "|c";
    out += std::to_string(slot);
    out += '|';
    out += node.canonical_key;
    return out;
  };
  for (size_t id = 0; id < nodes_.size(); ++id) {
    key_of(static_cast<int>(id));
  }
  return keys;
}

std::string EventGraph::DebugString() const {
  std::string out;
  for (const GraphNode& node : nodes_) {
    out += '#';
    out += std::to_string(node.id);
    out += ' ';
    out += DetectionModeName(node.mode);
    out += ' ';
    out += node.canonical_key;
    if (!node.rule_indexes.empty()) {
      out += " [rules:";
      for (size_t rule : node.rule_indexes) {
        out += ' ';
        out += std::to_string(rule);
      }
      out += "]";
    }
    out += "\n";
  }
  return out;
}

}  // namespace rfidcep::engine
