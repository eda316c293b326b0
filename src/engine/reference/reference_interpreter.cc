#include "engine/reference/reference_interpreter.h"

#include <algorithm>
#include <cassert>

#include "engine/graph.h"

namespace rfidcep::engine::reference {

using events::Bindings;
using events::EventExpr;
using events::EventExprPtr;
using events::EventInstance;
using events::EventInstancePtr;
using events::ExprOp;
using events::Observation;

// Per-node runtime state. Nothing here is ever garbage-collected: slots
// remember every instance (consumption is a flag), NOT logs keep the full
// occurrence history, and admissibility recomputes deadlines from the
// node's constraints on every probe.
struct ReferenceInterpreter::Node {
  ExprOp op = ExprOp::kPrimitive;
  events::PrimitiveEventType primitive;
  Duration dist_lo = 0;
  Duration dist_hi = kDurationInfinity;
  Duration within = kDurationInfinity;
  std::string canonical_key;
  std::vector<Node*> children;
  std::vector<Node*> parents;  // Deduped, creation order.
  bool is_root = false;
  // SEQ+ self-closure: the run must expire on its own unless every parent
  // consumes it as a SEQ initiator (then the terminator materializes it).
  bool seqplus_self = false;

  struct Held {
    EventInstancePtr inst;
    bool consumed = false;
  };
  std::vector<Held> slots[2];            // AND both, SEQ slot 0.
  std::vector<EventInstancePtr> not_log;  // NOT: full child history.
  bool run_open = false;                  // SEQ+.
  std::vector<EventInstancePtr> run_elems;
  Bindings run_bindings;
  TimePoint run_begin = 0;
  TimePoint run_end = 0;
};

ReferenceInterpreter::ReferenceInterpreter(const EventExprPtr& root,
                                           const events::Environment* env,
                                           ReferenceOptions options)
    : env_(env), options_(options) {
  // Idempotent for already-propagated expressions.
  EventExprPtr propagated = PropagateIntervalConstraints(root);
  root_ = Build(*propagated);
  root_->is_root = true;
  // Leaves dispatch in canonical-key order, mirroring the detector's
  // compilation-invariant bucket order.
  std::sort(leaves_.begin(), leaves_.end(), [](const Node* a, const Node* b) {
    return a->canonical_key < b->canonical_key;
  });
  for (const std::unique_ptr<Node>& node : nodes_) {
    if (node->op != ExprOp::kSeqPlus) continue;
    bool self = node->is_root || node->parents.empty();
    for (const Node* parent : node->parents) {
      // A SEQ terminator drives materialization only when it arrives; a
      // negated terminator never does (mirrors the detector's rule).
      if (parent->op != ExprOp::kSeq || parent->children[0] != node.get() ||
          parent->children[1]->op == ExprOp::kNot) {
        self = true;
      }
    }
    node->seqplus_self = self;
  }
}

ReferenceInterpreter::~ReferenceInterpreter() = default;

// Hash-consing by canonical key mirrors the graph compiler: a rule using
// the same subevent twice (duplicate filter) gets one shared node whose
// arrivals play every role, in the same slot order as the detector.
// Leaves are keyed by their pattern alone: a primitive instance spans no
// time, so a window on a leaf is vacuous, and one pattern under several
// windows is one leaf (also the key leaves dispatch in).
ReferenceInterpreter::Node* ReferenceInterpreter::Build(
    const EventExpr& expr) {
  const bool leaf = expr.op() == ExprOp::kPrimitive;
  std::string key =
      leaf ? EventExpr::Primitive(expr.primitive())->CanonicalKey()
           : expr.CanonicalKey();
  // SEQ+ occurrences are never shared (mirrors the graph compiler): run
  // state reacts to the parent SEQ's terminator, so each parent needs a
  // private copy.
  bool shareable = expr.op() != ExprOp::kSeqPlus;
  if (shareable) {
    if (auto it = interned_.find(key); it != interned_.end()) {
      return it->second;
    }
  }
  std::vector<Node*> children;
  children.reserve(expr.children().size());
  for (const EventExprPtr& child : expr.children()) {
    children.push_back(Build(*child));
  }
  nodes_.push_back(std::make_unique<Node>());
  Node* node = nodes_.back().get();
  node->op = expr.op();
  node->primitive = expr.primitive();
  node->dist_lo = expr.dist_lo();
  node->dist_hi = expr.dist_hi();
  node->within = leaf ? kDurationInfinity : expr.within();
  node->canonical_key = key;
  node->children = std::move(children);
  for (Node* child : node->children) {
    auto& parents = child->parents;
    if (std::find(parents.begin(), parents.end(), node) == parents.end()) {
      parents.push_back(node);
    }
  }
  if (leaf) leaves_.push_back(node);
  if (shareable) interned_.emplace(std::move(key), node);
  return node;
}

void ReferenceInterpreter::ResetState() {
  for (const std::unique_ptr<Node>& node : nodes_) {
    node->slots[0].clear();
    node->slots[1].clear();
    node->not_log.clear();
    node->run_open = false;
    node->run_elems.clear();
    node->run_bindings = Bindings();
    node->run_begin = 0;
    node->run_end = 0;
  }
  pending_.clear();
  results_.clear();
  clock_ = 0;
  sequence_counter_ = 0;
  check_counter_ = 0;
}

Result<std::vector<EventInstancePtr>> ReferenceInterpreter::Run(
    const std::vector<Observation>& stream) {
  if (options_.context != ParameterContext::kChronicle &&
      options_.context != ParameterContext::kUnrestricted) {
    return Status::Unimplemented(
        "reference interpreter: the " +
        std::string(ParameterContextName(options_.context)) +
        " context is not implemented (chronicle and unrestricted are)");
  }
  ResetState();
  for (const Observation& obs : stream) {
    if (obs.timestamp < clock_) {
      if (!options_.tolerate_out_of_order) {
        return Status::InvalidArgument(
            "reference interpreter: observation at " +
            FormatTimePoint(obs.timestamp) + " is older than the stream "
            "clock " + FormatTimePoint(clock_) +
            " (set tolerate_out_of_order to drop it)");
      }
      continue;  // Mirrors the detector's tolerate_out_of_order drop.
    }
    // Pseudo completions fire only once the stream strictly passes their
    // execution time: an observation AT the boundary instant is processed
    // first (it may falsify a NOT window or extend a SEQ+ run).
    FireChecksBefore(obs.timestamp);
    clock_ = obs.timestamp;
    DispatchLeaves(obs);
  }
  FlushChecks();
  return std::move(results_);
}

void ReferenceInterpreter::DispatchLeaves(const Observation& obs) {
  // Mirror the detector's dispatch order: leaves keyed by the exact
  // reader, then leaves keyed by the reader's group, then unkeyed leaves —
  // each class in node-creation order.
  auto leaf_key = [](const Node* leaf) -> const std::string* {
    if (leaf->primitive.reader().is_literal) {
      return &leaf->primitive.reader().text;
    }
    if (leaf->primitive.group_constraint().has_value()) {
      return &*leaf->primitive.group_constraint();
    }
    return nullptr;
  };
  const events::SharedText reader = obs.reader;
  const events::SharedText object = obs.object;
  const events::SharedText location =
      env_->readers != nullptr ? env_->readers->LocationViewOf(obs.reader)
                               : std::string_view();
  auto dispatch_to = [&](const Node* match_leaf) {
    for (Node* leaf : leaves_) {
      if (leaf != match_leaf) continue;
      if (!leaf->primitive.Matches(obs, *env_)) continue;
      Deliver(leaf, EventInstance::MakePrimitive(
                        reader, object, obs.timestamp,
                        leaf->primitive.Bind(reader, object, obs.timestamp,
                                             location),
                        NextSeq()));
    }
  };
  std::string_view group = env_->GroupViewOf(obs.reader);
  for (Node* leaf : leaves_) {
    const std::string* key = leaf_key(leaf);
    if (key != nullptr && *key == obs.reader) dispatch_to(leaf);
  }
  if (group != obs.reader) {
    for (Node* leaf : leaves_) {
      const std::string* key = leaf_key(leaf);
      if (key != nullptr && *key == group) dispatch_to(leaf);
    }
  }
  for (Node* leaf : leaves_) {
    if (leaf_key(leaf) == nullptr) dispatch_to(leaf);
  }
}

void ReferenceInterpreter::Deliver(Node* node, EventInstancePtr inst) {
  // WITHIN is an interval constraint on the node itself (§4.3): an
  // instance whose interval exceeds it is not an occurrence. Closed bound:
  // interval == within passes.
  if (node->within != kDurationInfinity &&
      inst->interval() > node->within) {
    return;
  }
  if (node->is_root) results_.push_back(inst);
  for (Node* parent : node->parents) {
    Arrival(parent, node, inst);
  }
}

void ReferenceInterpreter::Arrival(Node* parent, const Node* child,
                                   const EventInstancePtr& inst) {
  switch (parent->op) {
    case ExprOp::kPrimitive:
      assert(false && "primitive nodes have no children");
      return;
    case ExprOp::kOr:
      Deliver(parent, inst);
      return;
    case ExprOp::kNot:
      parent->not_log.push_back(inst);
      return;
    case ExprOp::kSeqPlus:
      SeqPlusArrival(parent, inst);
      return;
    case ExprOp::kAnd:
      for (int slot = 0; slot < 2; ++slot) {
        if (parent->children[slot] == child) AndArrival(parent, slot, inst);
      }
      return;
    case ExprOp::kSeq:
      // Terminator role first, then initiator (an instance serving both
      // roles pairs with a strictly older occurrence before becoming an
      // initiator itself) — same order as the detector's RouteToParent.
      if (parent->children[1] == child) SeqTerminatorArrival(parent, inst);
      if (parent->children[0] == child) SeqInitiatorArrival(parent, inst);
      return;
  }
}

// --- AND ---------------------------------------------------------------------

void ReferenceInterpreter::AndArrival(Node* node, int slot,
                                      const EventInstancePtr& e) {
  Node* other = node->children[1 - slot];
  if (other->op == ExprOp::kNot) {
    // WITHIN(E ∧ ¬N, w): N must not occur anywhere in the closed window
    // [t_end(e) − w, t_begin(e) + w] (that is exactly the set of instants
    // an N occurrence could pair with `e` under CombinedInterval <= w).
    // The past half is decidable now; the future half at t_begin(e) + w.
    Duration w = node->within;  // Finite (graph validation).
    if (HasOccurrence(other, e->bindings(), e->t_end() - w, e->t_end(),
                      /*include_from=*/true, /*include_to=*/true)) {
      return;
    }
    ScheduleCheck(AddSaturating(e->t_begin(), w), node, e);
    return;
  }
  bool paired = PairNaive(node, slot, e);
  bool buffer = !paired;
  if (options_.context == ParameterContext::kUnrestricted) buffer = true;
  if (buffer) node->slots[slot].push_back({e, false});
}

// --- SEQ ---------------------------------------------------------------------

void ReferenceInterpreter::SeqInitiatorArrival(Node* node,
                                               const EventInstancePtr& e1) {
  Node* right = node->children[1];
  if (right->op == ExprOp::kNot) {
    // SEQ(a ; ¬b): confirmed at expiry if no negated occurrence strictly
    // follows a within the bounded window.
    TimePoint expiry = std::min(AddSaturating(e1->t_begin(), node->within),
                                AddSaturating(e1->t_end(), node->dist_hi));
    ScheduleCheck(expiry, node, e1);
    return;
  }
  node->slots[0].push_back({e1, false});
}

void ReferenceInterpreter::SeqTerminatorArrival(Node* node,
                                                const EventInstancePtr& e2) {
  Node* left = node->children[0];
  if (left->op == ExprOp::kNot) {
    // WITHIN(¬a ; b, w): non-occurrence of `a` over the half-open window
    // [t_end(b) − width, t_begin(b)) — b itself does not falsify it.
    Duration width = std::min(node->within, node->dist_hi);
    TimePoint from = e2->t_end() - width;
    TimePoint to = e2->t_begin();
    if (!HasOccurrence(left, e2->bindings(), from, to,
                       /*include_from=*/true, /*include_to=*/false)) {
      EventInstancePtr synth =
          EventInstance::MakeComplex(from, to, Bindings(), {}, NextSeq());
      EventInstancePtr inst = EventInstance::MakeComplex(
          from, e2->t_end(), e2->bindings(), {std::move(synth), e2},
          NextSeq());
      Deliver(node, std::move(inst));
    }
    return;
  }
  if (left->op == ExprOp::kSeqPlus) {
    // A fully unbounded SEQ+ is closed by its sequence terminator (Snoop
    // A* semantics); bounded runs only close once expired.
    bool force = left->dist_hi == kDurationInfinity &&
                 left->within == kDurationInfinity;
    MaterializeRun(left, force, /*include_now=*/false);
  }
  PairNaive(node, 1, e2);
}

// --- Pairing -----------------------------------------------------------------

bool ReferenceInterpreter::PairNaive(Node* node, int incoming_slot,
                                     const EventInstancePtr& incoming) {
  std::vector<Node::Held>& buffer = node->slots[1 - incoming_slot];

  // An initiator stays pairable until the stream clock passes its
  // deadline: min(t_begin + within, t_end + dist_hi), both bounds closed
  // (clock == deadline still pairs). An initiator the clock has
  // invalidated is consumed — it is never retried against a later
  // terminator, exactly like the detector's pruned buffers.
  auto deadline = [&](const EventInstancePtr& inst) {
    TimePoint d = AddSaturating(inst->t_begin(), node->within);
    if (node->op == ExprOp::kSeq) {
      d = std::min(d, AddSaturating(inst->t_end(), node->dist_hi));
    }
    return d;
  };
  auto admissible = [&](const EventInstancePtr& cand) {
    if (node->op == ExprOp::kSeq) {
      // Strict sequence: the initiator ends before the terminator begins,
      // with dist in the closed [dist_lo, dist_hi].
      if (cand->t_end() >= incoming->t_begin()) return false;
      Duration d = incoming->t_end() - cand->t_end();
      if (d < node->dist_lo || d > node->dist_hi) return false;
    }
    if (node->within != kDurationInfinity &&
        events::CombinedInterval(*cand, *incoming) > node->within) {
      return false;
    }
    return cand->bindings().UnifiesWith(incoming->bindings());
  };

  std::vector<Node::Held*> candidates;
  for (Node::Held& held : buffer) {
    if (held.consumed && options_.context == ParameterContext::kChronicle) {
      continue;
    }
    if (deadline(held.inst) < clock_) continue;
    if (!admissible(held.inst)) continue;
    candidates.push_back(&held);
  }
  if (candidates.empty()) return false;
  // Chronicle selection by explicit sort: oldest (by arrival sequence)
  // admissible candidate wins.
  std::sort(candidates.begin(), candidates.end(),
            [](const Node::Held* a, const Node::Held* b) {
              return a->inst->sequence_number() < b->inst->sequence_number();
            });
  if (options_.context == ParameterContext::kChronicle) {
    candidates.front()->consumed = true;
    ProducePair(node, candidates.front()->inst, incoming);
    return true;
  }
  // Unrestricted: every admissible combination, nothing consumed.
  for (Node::Held* held : candidates) {
    ProducePair(node, held->inst, incoming);
  }
  return true;
}

void ReferenceInterpreter::ProducePair(Node* node,
                                       const EventInstancePtr& initiator,
                                       const EventInstancePtr& terminator) {
  TimePoint t_begin = std::min(initiator->t_begin(), terminator->t_begin());
  TimePoint t_end = std::max(initiator->t_end(), terminator->t_end());
  Bindings merged = initiator->bindings();
  bool ok = merged.Merge(terminator->bindings());
  assert(ok && "admissibility verified unification");
  (void)ok;
  std::vector<EventInstancePtr> children;
  if (initiator->t_begin() <= terminator->t_begin()) {
    children = {initiator, terminator};
  } else {
    children = {terminator, initiator};
  }
  Deliver(node, EventInstance::MakeComplex(t_begin, t_end, std::move(merged),
                                           std::move(children), NextSeq()));
}

// --- SEQ+ --------------------------------------------------------------------

void ReferenceInterpreter::SeqPlusArrival(Node* node,
                                          const EventInstancePtr& e) {
  bool extended = false;
  if (node->run_open) {
    Duration d = e->t_end() - node->run_end;
    bool fits_dist = d >= node->dist_lo && d <= node->dist_hi;
    bool fits_within = node->within == kDurationInfinity ||
                       e->t_end() - node->run_begin <= node->within;
    if (fits_dist && fits_within) {
      node->run_elems.push_back(e);
      node->run_bindings.Merge(e->bindings().ToMulti());
      node->run_end = e->t_end();
      extended = true;
    } else {
      CloseRun(node);
    }
  }
  if (!extended) {
    node->run_open = true;
    node->run_elems = {e};
    node->run_bindings = e->bindings().ToMulti();
    node->run_begin = e->t_begin();
    node->run_end = e->t_end();
  }
  if (node->seqplus_self) {
    TimePoint expiry = std::min(AddSaturating(node->run_end, node->dist_hi),
                                AddSaturating(node->run_begin, node->within));
    ScheduleCheck(expiry, node, nullptr);
  }
}

void ReferenceInterpreter::MaterializeRun(Node* node, bool force,
                                          bool include_now) {
  if (!node->run_open) return;
  // Closed extension bound: an element AT t_end + dist_hi still extends
  // the run. A terminator arriving at exactly the expiry therefore must
  // not close it (include_now=false) — an element in the same dispatch
  // round may yet extend it. The scheduled-check path fires only once the
  // stream strictly passed the expiry, so there clock_ == expiry is dead.
  TimePoint expiry = std::min(AddSaturating(node->run_end, node->dist_hi),
                              AddSaturating(node->run_begin, node->within));
  bool expired = include_now ? expiry <= clock_ : expiry < clock_;
  if (force || expired) CloseRun(node);
}

void ReferenceInterpreter::CloseRun(Node* node) {
  node->run_open = false;
  EventInstancePtr inst = EventInstance::MakeComplex(
      node->run_begin, node->run_end, std::move(node->run_bindings),
      std::move(node->run_elems), NextSeq());
  node->run_elems.clear();
  node->run_bindings = Bindings();
  Deliver(node, std::move(inst));
}

// --- NOT ---------------------------------------------------------------------

bool ReferenceInterpreter::HasOccurrence(const Node* not_node,
                                         const Bindings& probe,
                                         TimePoint from, TimePoint to,
                                         bool include_from,
                                         bool include_to) const {
  // Literal definition over the complete, never-pruned history.
  for (const EventInstancePtr& inst : not_node->not_log) {
    TimePoint t = inst->t_end();
    bool after_from = include_from ? t >= from : t > from;
    bool before_to = include_to ? t <= to : t < to;
    if (after_from && before_to && probe.UnifiesWith(inst->bindings())) {
      return true;
    }
  }
  return false;
}

// --- Deferred completions ----------------------------------------------------

void ReferenceInterpreter::ScheduleCheck(TimePoint at, Node* node,
                                         EventInstancePtr anchor) {
  if (at == kTimeInfinity) return;
  pending_.push_back(Check{at, ++check_counter_, node, std::move(anchor)});
}

void ReferenceInterpreter::FireChecksBefore(TimePoint t) {
  for (;;) {
    size_t best = pending_.size();
    for (size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].at >= t) continue;
      if (best == pending_.size() || pending_[i].at < pending_[best].at ||
          (pending_[i].at == pending_[best].at &&
           pending_[i].order < pending_[best].order)) {
        best = i;
      }
    }
    if (best == pending_.size()) return;
    Check check = std::move(pending_[best]);
    pending_.erase(pending_.begin() + static_cast<long>(best));
    FireCheck(std::move(check));
  }
}

void ReferenceInterpreter::FlushChecks() {
  while (!pending_.empty()) {
    size_t best = 0;
    for (size_t i = 1; i < pending_.size(); ++i) {
      if (pending_[i].at < pending_[best].at ||
          (pending_[i].at == pending_[best].at &&
           pending_[i].order < pending_[best].order)) {
        best = i;
      }
    }
    Check check = std::move(pending_[best]);
    pending_.erase(pending_.begin() + static_cast<long>(best));
    FireCheck(std::move(check));
  }
}

void ReferenceInterpreter::FireCheck(Check check) {
  clock_ = std::max(clock_, check.at);
  Node* node = check.node;
  if (node->op == ExprOp::kSeqPlus) {
    MaterializeRun(node, /*force=*/false, /*include_now=*/true);
    return;
  }
  // Anchored NOT completion (AND or SEQ with a negated side). Each anchor
  // is checked exactly once; a falsified anchor is simply dead (Fig. 8d).
  Node* not_child = node->children[0]->op == ExprOp::kNot
                        ? node->children[0]
                        : node->children[1];
  assert(not_child->op == ExprOp::kNot);
  TimePoint created = check.anchor->t_end();
  // AND re-checks its own instant (an occurrence at exactly t_end pairs);
  // SEQ requires the negated occurrence to strictly follow the anchor.
  bool include_from = node->op == ExprOp::kAnd;
  if (HasOccurrence(not_child, check.anchor->bindings(), created, check.at,
                    include_from, /*include_to=*/true)) {
    return;
  }
  EventInstancePtr synth = EventInstance::MakeComplex(
      created, check.at, Bindings(), {}, NextSeq());
  EventInstancePtr inst = EventInstance::MakeComplex(
      check.anchor->t_begin(), check.at, check.anchor->bindings(),
      {check.anchor, std::move(synth)}, NextSeq());
  Deliver(node, std::move(inst));
}

}  // namespace rfidcep::engine::reference
