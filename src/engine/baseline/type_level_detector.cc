#include "engine/baseline/type_level_detector.h"

namespace rfidcep::engine::baseline {

using events::Bindings;
using events::EventExpr;
using events::EventExprPtr;
using events::EventInstance;
using events::EventInstancePtr;
using events::ExprOp;
using events::Observation;

namespace {

bool ContainsNot(const EventExpr& expr) {
  if (expr.op() == ExprOp::kNot) return true;
  for (const EventExprPtr& child : expr.children()) {
    if (ContainsNot(*child)) return true;
  }
  return false;
}

// Merge that cannot fail: both sides demoted to multi-valued bindings.
Bindings LooseMerge(const Bindings& a, const Bindings& b) {
  Bindings merged = a.ToMulti();
  Bindings other = b.ToMulti();
  merged.Merge(other);
  return merged;
}

}  // namespace

Result<std::unique_ptr<TypeLevelDetector>> TypeLevelDetector::Create(
    events::EventExprPtr expr, const events::Environment* env,
    BaselineMatchCallback on_match) {
  if (ContainsNot(*expr)) {
    return Status::Unimplemented(
        "the type-level ECA baseline does not support NOT");
  }
  return std::unique_ptr<TypeLevelDetector>(
      new TypeLevelDetector(std::move(expr), env, std::move(on_match)));
}

TypeLevelDetector::TypeLevelDetector(events::EventExprPtr expr,
                                     const events::Environment* env,
                                     BaselineMatchCallback on_match)
    : root_expr_(std::move(expr)), env_(env), on_match_(std::move(on_match)) {
  root_ = BuildNodes(root_expr_);
  states_.resize(nodes_.size());
}

int TypeLevelDetector::BuildNodes(const EventExprPtr& expr) {
  std::vector<int> children;
  children.reserve(expr->children().size());
  for (const EventExprPtr& child : expr->children()) {
    children.push_back(BuildNodes(child));
  }
  Node node;
  node.expr = expr;
  node.children = children;
  int id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(node));
  for (size_t slot = 0; slot < children.size(); ++slot) {
    nodes_[children[slot]].parent = id;
    nodes_[children[slot]].slot_in_parent = static_cast<int>(slot);
  }
  if (expr->op() == ExprOp::kPrimitive) {
    primitive_nodes_.push_back(id);
  }
  return id;
}

Status TypeLevelDetector::Process(const Observation& obs) {
  ++stats_.observations;
  const events::SharedText reader = obs.reader;
  const events::SharedText object = obs.object;
  for (int node_index : primitive_nodes_) {
    const events::PrimitiveEventType& type =
        nodes_[node_index].expr->primitive();
    if (!type.Matches(obs, *env_)) continue;
    EmitAt(node_index, EventInstance::MakePrimitive(
                           reader, object, obs.timestamp,
                           type.Bind(reader, object, obs.timestamp), ++seq_));
  }
  return Status::Ok();
}

void TypeLevelDetector::EmitAt(int node_index,
                               const EventInstancePtr& instance) {
  if (node_index == root_) {
    ++stats_.type_level_matches;
    // "Constraints as conditions": check temporal constraints only now.
    if (CheckConstraints(*nodes_[node_index].expr, *instance)) {
      ++stats_.accepted;
      if (on_match_) on_match_(instance);
    } else {
      ++stats_.rejected;
    }
    return;
  }
  const Node& node = nodes_[node_index];
  Arrive(node.parent, node_index, instance);
}

void TypeLevelDetector::Arrive(int node_index, int child_index,
                               const EventInstancePtr& instance) {
  Node& node = nodes_[node_index];
  NodeState& st = states_[node_index];
  int slot = nodes_[child_index].slot_in_parent;

  switch (node.expr->op()) {
    case ExprOp::kPrimitive:
      return;  // Unreachable.
    case ExprOp::kOr:
      EmitAt(node_index, instance);
      return;
    case ExprOp::kNot:
      return;  // Rejected at Create().
    case ExprOp::kAnd: {
      std::deque<EventInstancePtr>& other = st.slots[1 - slot];
      if (other.empty()) {
        st.slots[slot].push_back(instance);
        return;
      }
      EventInstancePtr partner = other.front();
      other.pop_front();
      TimePoint t_begin = std::min(partner->t_begin(), instance->t_begin());
      TimePoint t_end = std::max(partner->t_end(), instance->t_end());
      std::vector<EventInstancePtr> children =
          partner->t_begin() <= instance->t_begin()
              ? std::vector<EventInstancePtr>{partner, instance}
              : std::vector<EventInstancePtr>{instance, partner};
      EmitAt(node_index, EventInstance::MakeComplex(
                             t_begin, t_end,
                             LooseMerge(partner->bindings(),
                                        instance->bindings()),
                             std::move(children), ++seq_));
      return;
    }
    case ExprOp::kSeq: {
      if (slot == 0) {
        st.slots[0].push_back(instance);
        return;
      }
      // Terminator. An aperiodic initiator is consumed wholesale.
      const Node& left = nodes_[node.children[0]];
      EventInstancePtr initiator;
      if (left.expr->op() == ExprOp::kSeqPlus) {
        NodeState& left_state = states_[node.children[0]];
        std::vector<EventInstancePtr>& collection = left_state.collection;
        // Keep only elements strictly before the terminator.
        std::vector<EventInstancePtr> taken;
        for (const EventInstancePtr& e : collection) {
          if (e->t_end() < instance->t_begin()) taken.push_back(e);
        }
        if (taken.empty()) return;
        collection.clear();
        Bindings merged;
        for (const EventInstancePtr& e : taken) {
          merged = LooseMerge(merged, e->bindings());
        }
        TimePoint run_begin = taken.front()->t_begin();
        TimePoint run_end = taken.back()->t_end();
        initiator = EventInstance::MakeComplex(
            run_begin, run_end, std::move(merged), std::move(taken), ++seq_);
      } else {
        std::deque<EventInstancePtr>& buffer = st.slots[0];
        while (!buffer.empty() &&
               buffer.front()->t_end() >= instance->t_begin()) {
          buffer.pop_front();
        }
        if (buffer.empty()) return;
        initiator = buffer.front();
        buffer.pop_front();
      }
      EmitAt(node_index,
             EventInstance::MakeComplex(
                 initiator->t_begin(), instance->t_end(),
                 LooseMerge(initiator->bindings(), instance->bindings()),
                 {initiator, instance}, ++seq_));
      return;
    }
    case ExprOp::kSeqPlus:
      st.collection.push_back(instance);
      return;
  }
}

bool TypeLevelDetector::CheckConstraints(
    const EventExpr& expr, const EventInstance& instance) const {
  if (expr.has_within() && instance.interval() > expr.within()) return false;
  switch (expr.op()) {
    case ExprOp::kPrimitive:
      return true;
    case ExprOp::kOr:
      for (const EventExprPtr& child : expr.children()) {
        if (CheckConstraints(*child, instance)) return true;
      }
      return false;
    case ExprOp::kNot:
      return false;  // Unsupported.
    case ExprOp::kAnd: {
      if (instance.children().size() != 2) return false;
      const EventInstance& a = *instance.children()[0];
      const EventInstance& b = *instance.children()[1];
      return (CheckConstraints(*expr.children()[0], a) &&
              CheckConstraints(*expr.children()[1], b)) ||
             (CheckConstraints(*expr.children()[0], b) &&
              CheckConstraints(*expr.children()[1], a));
    }
    case ExprOp::kSeq: {
      if (instance.children().size() != 2) return false;
      const EventInstance& first = *instance.children()[0];
      const EventInstance& second = *instance.children()[1];
      if (first.t_end() >= second.t_begin()) return false;
      Duration d = events::Dist(first, second);
      if (d < expr.dist_lo() || d > expr.dist_hi()) return false;
      return CheckConstraints(*expr.children()[0], first) &&
             CheckConstraints(*expr.children()[1], second);
    }
    case ExprOp::kSeqPlus: {
      if (instance.children().empty()) return false;
      const EventExpr& element_expr = *expr.children()[0];
      for (size_t i = 0; i < instance.children().size(); ++i) {
        if (!CheckConstraints(element_expr, *instance.children()[i])) {
          return false;
        }
        if (i > 0) {
          Duration d = events::Dist(*instance.children()[i - 1],
                                    *instance.children()[i]);
          if (d < expr.dist_lo() || d > expr.dist_hi()) return false;
        }
      }
      return true;
    }
  }
  return false;
}

}  // namespace rfidcep::engine::baseline
