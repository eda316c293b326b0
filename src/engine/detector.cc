#include "engine/detector.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "engine/snapshot.h"
#include "engine/trace.h"

namespace rfidcep::engine {

using events::Bindings;
using events::EventInstance;
using events::EventInstancePtr;
using events::ExprOp;
using events::Observation;

std::string_view ParameterContextName(ParameterContext context) {
  switch (context) {
    case ParameterContext::kChronicle:
      return "chronicle";
    case ParameterContext::kRecent:
      return "recent";
    case ParameterContext::kContinuous:
      return "continuous";
    case ParameterContext::kCumulative:
      return "cumulative";
    case ParameterContext::kUnrestricted:
      return "unrestricted";
  }
  return "?";
}

namespace {

// Chain for entries whose join variables are not all bound; always
// scanned in addition to the exact chain.
constexpr uint64_t kWildcardKey = events::kWildcardJoinKey;

// Every complete key maps here under debug_force_join_collisions.
constexpr uint64_t kCollisionKey = 0x636f6c6cull;

constexpr JoinBuffer::Index kNoEntry = JoinBuffer::kNone;

// Members per window family: one bit each in JoinBuffer::Members.
constexpr int kMaxFamilyMembers = 64;

// When `e` leaves a binary node's slot buffer under the bounds
// (`within`, `dist_hi`): the WITHIN bound counts from e's start, and a SEQ
// initiator's distance bound from its end.
TimePoint SlotDeadline(ExprOp op, Duration within, Duration dist_hi,
                       const EventInstance& e) {
  TimePoint deadline = AddSaturating(e.t_begin(), within);
  if (op == ExprOp::kSeq) {
    deadline = std::min(deadline, AddSaturating(e.t_end(), dist_hi));
  }
  return deadline;
}

TimePoint SlotDeadline(const GraphNode& node, const EventInstance& e) {
  return SlotDeadline(node.op, node.within, node.dist_hi, e);
}

uint64_t MixSignature(uint64_t h, uint64_t v) {
  h = (h ^ v) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 31);
}

Bindings MergedOrDie(const Bindings& a, const Bindings& b) {
  Bindings merged;
  merged.Reserve(a.scalar_count() + b.scalar_count(),
                 a.multi_count() + b.multi_count());
  bool ok = merged.Merge(a) && merged.Merge(b);
  assert(ok && "pairing predicate must have verified unification");
  (void)ok;
  return merged;
}

}  // namespace

DetectorInstruments MakeDetectorInstruments(common::MetricsRegistry* registry,
                                            const EventGraph& graph) {
  const std::string shard = "{shard=\"0\"}";
  DetectorInstruments m;
  m.primitive_matches =
      registry->GetCounter("detector_primitive_matches_total" + shard);
  m.instances_produced =
      registry->GetCounter("detector_instances_produced_total" + shard);
  m.rule_matches = registry->GetCounter("detector_rule_matches_total" + shard);
  m.pseudo_scheduled =
      registry->GetCounter("detector_pseudo_scheduled_total" + shard);
  m.pseudo_fired = registry->GetCounter("detector_pseudo_fired_total" + shard);
  m.pseudo_queue_depth =
      registry->GetGauge("detector_pseudo_queue_depth" + shard);
  m.pseudo_queue_peak =
      registry->GetGauge("detector_pseudo_queue_peak" + shard);
  m.pseudo_lag_us = registry->GetHistogram("detector_pseudo_lag_us" + shard);
  m.dispatch_fullscan =
      registry->GetCounter("rfidcep_dispatch_fullscan_total" + shard);
  m.node_firings.reserve(static_cast<size_t>(graph.num_nodes()));
  for (const GraphNode& node : graph.nodes()) {
    m.node_firings.push_back(registry->GetCounter(
        "graph_node_firings_total{shard=\"0\",node=\"" +
        std::to_string(node.id) + "\",op=\"" +
        std::string(events::ExprOpName(node.op)) + "\"}"));
  }
  return m;
}

Detector::Detector(const EventGraph* graph, const events::Environment* env,
                   DetectorOptions options, RuleMatchCallback on_match)
    : graph_(graph),
      env_(env),
      options_(options),
      on_match_(std::move(on_match)),
      states_(graph->num_nodes()),
      produced_per_node_(graph->num_nodes(), 0),
      seqplus_self_(graph->num_nodes(), false),
      index_(*graph) {
  BuildFamilies();
  // SEQ+ self-closure: needed unless every use is as a SEQ initiator
  // whose terminator actually arrives (then the terminator drives
  // materialization). A negated terminator never produces arrivals, so
  // SEQ(E+ ; ¬b) still needs the expiry timer — otherwise the run closes
  // arbitrarily late and its ¬b window is checked against an
  // already-pruned occurrence log.
  for (const GraphNode& node : graph_->nodes()) {
    if (node.op != ExprOp::kSeqPlus) continue;
    bool self = !node.rule_indexes.empty() || node.parents.empty();
    for (int parent_id : node.parents) {
      const GraphNode& parent = graph_->node(parent_id);
      if (parent.op != ExprOp::kSeq || parent.children[0] != node.id ||
          graph_->node(parent.children[1]).op == ExprOp::kNot) {
        self = true;
      }
    }
    seqplus_self_[node.id] = self;
  }
}

void Detector::BuildFamilies() {
  const std::vector<GraphNode>& nodes = graph_->nodes();
  // A child counts by its family when it is a NOT node (its siblings by
  // window are different nodes with one log), else by its node id.
  auto child_class = [&](int child) -> int64_t {
    return nodes[child].op == ExprOp::kNot ? -1 - states_[child].family
                                           : child;
  };
  auto same_family = [&](const GraphNode& a, const GraphNode& b) {
    if (a.op != b.op || a.join_syms != b.join_syms) return false;
    if (a.op == ExprOp::kNot) return a.children[0] == b.children[0];
    return child_class(a.children[0]) == child_class(b.children[0]) &&
           child_class(a.children[1]) == child_class(b.children[1]);
  };
  // Signature hash -> newest family with that hash; older ones (full, or
  // a hash collision) chain through `older`.
  std::unordered_map<uint64_t, int> newest;
  newest.reserve(nodes.size());
  std::vector<int> older;
  // Ids are topological, so NOT children are grouped before their parents.
  for (const GraphNode& node : nodes) {
    if (node.op != ExprOp::kAnd && node.op != ExprOp::kSeq &&
        node.op != ExprOp::kNot) {
      continue;
    }
    uint64_t h = MixSignature(0, static_cast<uint64_t>(node.op));
    for (int child : node.children) {
      h = MixSignature(h, static_cast<uint64_t>(child_class(child)));
    }
    for (events::SymbolId sym : node.join_syms) h = MixSignature(h, sym);
    auto it = newest.try_emplace(h, -1).first;
    int family = it->second;
    while (family >= 0 && (families_[family].size == kMaxFamilyMembers ||
                           !same_family(node, nodes[families_[family].rep]))) {
      family = older[family];
    }
    if (family < 0) {
      family = static_cast<int>(families_.size());
      families_.emplace_back().rep = node.id;
      older.push_back(it->second);
      it->second = family;
    }
    Family& fam = families_[family];
    states_[node.id].family = family;
    states_[node.id].member = JoinBuffer::Members{1} << fam.size++;
    fam.within = std::max(fam.within, node.within);
    fam.dist_hi = std::max(fam.dist_hi, node.dist_hi);
    fam.retention = std::max(fam.retention, node.retention);
  }
}

Status Detector::Process(const Observation& obs) {
  const DetectorInstruments* m = options_.instruments;
  if (obs.timestamp < clock_) {
    if (options_.tolerate_out_of_order) {
      ++stats_.out_of_order_dropped;
      if (m != nullptr && m->out_of_order_dropped != nullptr) {
        m->out_of_order_dropped->Increment();
      }
      return Status::Ok();
    }
    return Status::InvalidArgument(
        "out-of-order observation at " + FormatTimePoint(obs.timestamp) +
        " (clock is " + FormatTimePoint(clock_) + ")");
  }
  FirePseudosBefore(obs.timestamp);
  clock_ = obs.timestamp;
  ++stats_.observations;
  if (m != nullptr && m->observations != nullptr) m->observations->Increment();

  ReaderRecord scratch;
  ReaderRecord& record = RecordFor(obs.reader, &scratch);
  // The object's EPC text (and an unregistered reader's) is copied once,
  // when the first leaf matches; every leaf's bindings and primitive
  // instance share the handles, and a kept record's reader and location
  // handles are shared by every observation of the reader.
  events::SharedText object;
  bool texts_made = false;
  auto emit_leaf = [&](int node_id, const events::PrimitiveEventType& type) {
    ++stats_.primitive_matches;
    if (m != nullptr) m->primitive_matches->Increment();
    if (!texts_made) {
      if (record.reader.empty()) record.reader = obs.reader;
      object = obs.object;
      texts_made = true;
    }
    Bindings bindings =
        type.Bind(record.reader, object, obs.timestamp, record.location);
    Emit(node_id, EventInstance::MakePrimitive(record.reader, object,
                                               obs.timestamp,
                                               std::move(bindings),
                                               NextSeq()));
  };
  // The probe implies reader-literal and pushed type predicates; type(o)
  // is resolved once per observation, and only when some leaf pushed it.
  if (index_.fullscan_fallback()) {
    ++fullscan_observations_;
    if (m != nullptr && m->dispatch_fullscan != nullptr) {
      m->dispatch_fullscan->Increment();
    }
  }
  // type(o) resolves lazily — only when a probed bucket actually has
  // typed sub-buckets — so observations whose buckets pushed no type
  // predicate never pay the EPC parse.
  std::string_view type_view;
  bool type_resolved = false;
  auto resolve_type = [&](const PrimitiveIndex::Bucket& bucket) {
    if (!type_resolved && !bucket.by_type.empty()) {
      type_view = env_->TypeViewOf(obs.object);
      type_resolved = true;
    }
  };
  auto candidate = [&](const DispatchEntry& entry) {
    if (entry.check_group && record.group != entry.group) return;
    if (entry.check_object && obs.object != entry.object_literal) return;
    emit_leaf(entry.node_id, graph_->node(entry.node_id).primitive);
  };
  for (const PrimitiveIndex::Bucket* bucket :
       {record.reader_bucket, record.group_bucket}) {
    if (bucket == nullptr) continue;
    resolve_type(*bucket);
    PrimitiveIndex::Probe(*bucket, type_view, candidate);
  }
  resolve_type(index_.unkeyed());
  PrimitiveIndex::Probe(index_.unkeyed(), type_view, candidate);
  return Status::Ok();
}

void Detector::AdvanceTo(TimePoint t) {
  if (t < clock_) return;
  // Same firing rule as Process: pseudo events at exactly `t` stay
  // pending, because an observation arriving at `t` must be handled first
  // — it can falsify a NOT window whose closed edge is `t`, or extend a
  // SEQ+ run whose closed distance bound lands on `t`. They fire once the
  // stream strictly passes `t` (or at Flush).
  FirePseudosBefore(t);
  clock_ = std::max(clock_, t);
}

void Detector::Flush() {
  while (!pseudo_queue_.empty()) {
    PseudoEvent pe = pseudo_queue_.top();
    pseudo_queue_.pop();
    FirePseudo(pe);
  }
}

void Detector::FirePseudosBefore(TimePoint t) {
  while (!pseudo_queue_.empty() && pseudo_queue_.top().execute_at < t) {
    PseudoEvent pe = pseudo_queue_.top();
    pseudo_queue_.pop();
    FirePseudo(pe);
  }
}

void Detector::SchedulePseudo(TimePoint execute_at, TimePoint created_at,
                              int target_node, int parent_node,
                              uint64_t anchor_seq, uint64_t anchor_key) {
  if (execute_at == kTimeInfinity) return;
  ++stats_.pseudo_scheduled;
  pseudo_queue_.push(PseudoEvent{execute_at, created_at, target_node,
                                 parent_node, anchor_seq, anchor_key,
                                 ++pseudo_counter_});
  if (const DetectorInstruments* m = options_.instruments) {
    m->pseudo_scheduled->Increment();
    int64_t depth = static_cast<int64_t>(pseudo_queue_.size());
    m->pseudo_queue_depth->Set(depth);
    m->pseudo_queue_peak->UpdateMax(depth);
  }
}

void Detector::Emit(int node_id, EventInstancePtr instance) {
  const GraphNode& node = graph_->node(node_id);
  if (node.within != kDurationInfinity && instance->interval() > node.within) {
    return;  // Violates the propagated interval constraint.
  }
  ++stats_.instances_produced;
  ++produced_per_node_[node_id];
  if (const DetectorInstruments* m = options_.instruments) {
    m->instances_produced->Increment();
    if (!m->node_firings.empty()) m->node_firings[node_id]->Increment();
  }
  if (options_.trace != nullptr) {
    options_.trace->RecordNodeActivation(node_id, events::ExprOpName(node.op),
                                         *instance);
  }
  for (size_t rule_index : node.rule_indexes) {
    ++stats_.rule_matches;
    if (options_.instruments != nullptr) {
      options_.instruments->rule_matches->Increment();
    }
    on_match_(rule_index, instance);
  }
  for (int parent_id : node.parents) {
    RouteToParent(parent_id, node_id, instance);
  }
}

void Detector::RouteToParent(int parent_id, int child_id,
                             const EventInstancePtr& instance) {
  const GraphNode& parent = graph_->node(parent_id);
  switch (parent.op) {
    case ExprOp::kPrimitive:
      assert(false && "primitive nodes have no children");
      return;
    case ExprOp::kOr:
      // OR forwards constituent occurrences unchanged.
      Emit(parent_id, instance);
      return;
    case ExprOp::kNot:
      NotLogInsert(parent_id, instance);
      return;
    case ExprOp::kSeqPlus:
      SeqPlusArrival(parent_id, instance);
      return;
    case ExprOp::kAnd: {
      // One key computation per (instance, family), shared by every role
      // the instance plays below and by every member of the family.
      JoinKey key = FamilyKey(parent_id, *instance);
      for (int slot = 0; slot < 2; ++slot) {
        if (parent.children[slot] == child_id) {
          AndArrival(parent_id, slot, instance, key);
        }
      }
      return;
    }
    case ExprOp::kSeq: {
      JoinKey key = FamilyKey(parent_id, *instance);
      // Terminator role first, then initiator buffering, so an instance
      // serving both roles (duplicate-filter rule) pairs with a strictly
      // older occurrence before becoming an initiator itself.
      if (parent.children[1] == child_id) {
        SeqTerminatorArrival(parent_id, instance, key);
      }
      if (parent.children[0] == child_id) {
        SeqInitiatorArrival(parent_id, instance, key);
      }
      return;
    }
  }
}

Detector::ReaderRecord& Detector::RecordFor(std::string_view reader,
                                            ReaderRecord* scratch) {
  if (const epc::ReaderRegistry* registry = env_->readers) {
    if (registry->generation() != records_generation_) {
      // A registration may have moved a reader to another group or
      // location, or overwritten the text a group view aliases.
      reader_records_.clear();
      records_generation_ = registry->generation();
    }
    if (auto it = reader_records_.find(reader); it != reader_records_.end()) {
      return it->second;
    }
    if (const epc::ReaderRegistry::ReaderInfo* info = registry->Find(reader)) {
      ReaderRecord& record = reader_records_[std::string(reader)];
      record.reader = reader;
      record.location = info->location_id;
      ResolveBuckets(reader, info->group, &record);
      return record;
    }
  }
  ResolveBuckets(reader, reader, scratch);
  return *scratch;
}

void Detector::ResolveBuckets(std::string_view reader, std::string_view group,
                              ReaderRecord* record) const {
  record->group = group;
  record->reader_bucket = index_.FindReaderBucket(reader);
  record->group_bucket =
      group != reader ? index_.FindReaderBucket(group) : nullptr;
}

// --- Slot buffers -------------------------------------------------------------

Detector::JoinKey Detector::KeyFor(int node_id,
                                   const Bindings& bindings) const {
  const GraphNode& node = graph_->node(node_id);
  JoinKey key;
  key.hash = events::ComputeJoinKey(bindings, node.join_syms, &key.complete);
  if (key.complete && options_.debug_force_join_collisions) {
    key.hash = kCollisionKey;
  }
  return key;
}

Detector::JoinKey Detector::FamilyKey(int node_id, const EventInstance& e) {
  // Routed instances are fresh, so their sequence numbers are unique.
  Family& family = families_[states_[node_id].family];
  if (family.keyed_seq != e.sequence_number()) {
    family.key = KeyFor(node_id, e.bindings());
    family.keyed_seq = e.sequence_number();
  }
  return family.key;
}

void Detector::BufferInsert(int node_id, int slot_index, EventInstancePtr e,
                            JoinKey key) {
  const NodeState& st = states_[node_id];
  Family& family = families_[st.family];
  JoinBuffer& slot = family.buffers[slot_index];
  slot.DrainExpired(clock_);
  // Not before the clock moves on: an instance emitted late (a SEQ+ run
  // closed by its expiry pseudo event) can arrive past its deadline, and
  // its anchored pseudo event fires only after the rest of this cascade,
  // in which a sibling's drain must not free the anchor.
  TimePoint deadline = std::max(
      clock_, SlotDeadline(graph_->node(node_id).op, family.within,
                           family.dist_hi, *e));
  slot.Append(key.hash, std::move(e), deadline, st.member);
}

// --- AND ------------------------------------------------------------------------

void Detector::AndArrival(int node_id, int slot, const EventInstancePtr& e,
                          JoinKey key) {
  const GraphNode& node = graph_->node(node_id);
  NodeState& st = states_[node_id];
  int other_slot = 1 - slot;
  const GraphNode& other = graph_->node(node.children[other_slot]);

  if (other.op == ExprOp::kNot) {
    // WITHIN(E ∧ ¬N, w): check the past window now, and the future window
    // at expiry via a pseudo event (paper Fig. 8).
    Duration w = node.within;  // Finite (validated at graph build).
    if (NotHasOccurrence(other.id, e->bindings(), e->t_end() - w, e->t_end(),
                         /*include_from=*/true, /*include_to=*/true)) {
      return;  // A negated occurrence already falsifies this instance.
    }
    TimePoint expiry = AddSaturating(e->t_begin(), w);
    uint64_t seq = e->sequence_number();
    TimePoint created = e->t_end();
    BufferInsert(node_id, slot, e, key);
    SchedulePseudo(expiry, created, other.id, node_id, seq, key.hash);
    return;
  }

  bool paired = PairBinary(node_id, slot, e, key);
  bool buffer = !paired;
  if (options_.context == ParameterContext::kUnrestricted) buffer = true;
  if (options_.context == ParameterContext::kRecent) {
    // Only the most recent instance per slot is retained.
    families_[st.family].buffers[slot].ReleaseAll(st.member);
    buffer = true;
  }
  if (buffer) BufferInsert(node_id, slot, e, key);
}

// --- SEQ -------------------------------------------------------------------------

void Detector::SeqInitiatorArrival(int node_id, const EventInstancePtr& e1,
                                   JoinKey key) {
  const GraphNode& node = graph_->node(node_id);
  NodeState& st = states_[node_id];
  const GraphNode& right = graph_->node(node.children[1]);

  if (right.op == ExprOp::kNot) {
    // SEQ(a ; ¬b): confirmed at expiry if no negated occurrence follows.
    TimePoint expiry = SlotDeadline(node, *e1);
    uint64_t seq = e1->sequence_number();
    TimePoint created = e1->t_end();
    BufferInsert(node_id, 0, e1, key);
    SchedulePseudo(expiry, created, right.id, node_id, seq, key.hash);
    return;
  }
  if (options_.context == ParameterContext::kRecent) {
    families_[st.family].buffers[0].ReleaseAll(st.member);
  }
  BufferInsert(node_id, 0, e1, key);
}

void Detector::SeqTerminatorArrival(int node_id, const EventInstancePtr& e2,
                                    JoinKey key) {
  const GraphNode& node = graph_->node(node_id);
  const GraphNode& left = graph_->node(node.children[0]);

  if (left.op == ExprOp::kNot) {
    // WITHIN(¬a ; b, w): on b's arrival, query non-occurrence over the
    // preceding window (half-open: b itself does not falsify it).
    Duration width = std::min(node.within, node.dist_hi);
    TimePoint from = e2->t_end() - width;
    TimePoint to = e2->t_begin();
    if (!NotHasOccurrence(left.id, e2->bindings(), from, to,
                          /*include_from=*/true, /*include_to=*/false)) {
      EventInstancePtr synth =
          EventInstance::MakeComplex(from, to, Bindings(), {}, NextSeq());
      EventInstancePtr inst = EventInstance::MakeComplex(
          from, e2->t_end(), e2->bindings(), {std::move(synth), e2},
          NextSeq());
      Emit(node_id, std::move(inst));
    }
    return;
  }

  if (left.op == ExprOp::kSeqPlus) {
    // Close out runs so they are visible as initiators. A SEQ+ with no
    // bounds at all is closed by this terminator (Snoop A* semantics).
    bool force = left.dist_hi == kDurationInfinity &&
                 left.within == kDurationInfinity;
    MaterializeSeqPlus(left.id, force, /*include_now=*/false);
  }
  PairBinary(node_id, 1, e2, key);
}

// --- Pairing -----------------------------------------------------------------------

bool Detector::PairBinary(int node_id, int incoming_slot,
                          const EventInstancePtr& incoming, JoinKey key) {
  const GraphNode& node = graph_->node(node_id);
  const JoinBuffer::Members member = states_[node_id].member;
  JoinBuffer& buffer =
      families_[states_[node_id].family].buffers[1 - incoming_slot];
  buffer.DrainExpired(clock_);

  auto admissible = [&](const EventInstancePtr& cand) {
    if (node.op == ExprOp::kSeq) {
      // `cand` is the initiator, `incoming` the terminator.
      if (cand->t_end() >= incoming->t_begin()) return false;
      Duration d = incoming->t_end() - cand->t_end();
      if (d < node.dist_lo || d > node.dist_hi) return false;
    }
    if (node.within != kDurationInfinity &&
        events::CombinedInterval(*cand, *incoming) > node.within) {
      return false;
    }
    // Full unification re-check: hash collisions (and the wildcard chain)
    // may surface non-matching candidates.
    return cand->bindings().UnifiesWith(incoming->bindings());
  };

  // Chronicle keeps the admissible entry with the lowest sequence number,
  // recent the highest; the other contexts take every admissible entry,
  // sorted into sequence order below.
  const ParameterContext context = options_.context;
  const bool lowest = context == ParameterContext::kChronicle;
  const bool single = lowest || context == ParameterContext::kRecent;
  JoinBuffer::Index best = kNoEntry;
  uint64_t best_seq = 0;
  std::vector<std::pair<uint64_t, JoinBuffer::Index>> all;  // (seq, entry)
  auto scan_chain = [&](JoinBuffer::Index i) {
    for (; i != kNoEntry; i = buffer.next(i)) {
      const JoinBuffer::Entry& entry = buffer.entry(i);
      // Other members' entries, and entries past this member's deadline
      // that a wider sibling still holds, are not this node's.
      if ((entry.members & member) == 0 ||
          SlotDeadline(node, *entry.instance) < clock_ ||
          !admissible(entry.instance)) {
        continue;
      }
      uint64_t seq = entry.instance->sequence_number();
      if (!single) {
        all.emplace_back(seq, i);
      } else if (best == kNoEntry ||
                 (lowest ? seq < best_seq : seq > best_seq)) {
        best = i;
        best_seq = seq;
      }
    }
    return false;
  };
  if (!key.complete) {
    // Incoming lacks a join variable: every chain may hold partners.
    buffer.PruneAllFronts(clock_);
    buffer.AnyChain(scan_chain);
  } else {
    // Complete keys are never the wildcard value, so the wildcard chain
    // is always a distinct, additional scan.
    scan_chain(buffer.PruneFront(key.hash, clock_));
    scan_chain(buffer.PruneFront(kWildcardKey, clock_));
  }
  if (best == kNoEntry && all.empty()) return false;

  // Partners are copied out before emitting: an emission can cascade back
  // into this node (a shared SEQ+ child closing its run) and reallocate
  // the pool.
  switch (context) {
    case ParameterContext::kChronicle: {
      EventInstancePtr partner = buffer.entry(best).instance;
      buffer.Release(best, member);
      ProducePair(node_id, partner, incoming);
      return true;
    }
    case ParameterContext::kRecent: {
      EventInstancePtr partner = buffer.entry(best).instance;
      ProducePair(node_id, partner, incoming);  // Initiator is reused.
      return true;
    }
    case ParameterContext::kContinuous:
    case ParameterContext::kCumulative:
    case ParameterContext::kUnrestricted:
      break;
  }
  std::sort(all.begin(), all.end());
  std::vector<EventInstancePtr> partners;
  partners.reserve(all.size());
  for (const auto& [seq, i] : all) {
    partners.push_back(buffer.entry(i).instance);
    if (context != ParameterContext::kUnrestricted) buffer.Release(i, member);
  }
  if (context == ParameterContext::kCumulative) {
    // All open initiators merge into one instance with the terminator.
    TimePoint t_begin = incoming->t_begin();
    Bindings merged = incoming->bindings().ToMulti();
    for (const EventInstancePtr& cand : partners) {
      t_begin = std::min(t_begin, cand->t_begin());
      merged.Merge(cand->bindings().ToMulti());
    }
    partners.push_back(incoming);
    Emit(node_id, EventInstance::MakeComplex(
                      t_begin, incoming->t_end(), std::move(merged),
                      std::move(partners), NextSeq()));
    return true;
  }
  for (const EventInstancePtr& partner : partners) {
    ProducePair(node_id, partner, incoming);
  }
  return true;
}

void Detector::ProducePair(int node_id, const EventInstancePtr& initiator,
                           const EventInstancePtr& terminator) {
  TimePoint t_begin = std::min(initiator->t_begin(), terminator->t_begin());
  TimePoint t_end = std::max(initiator->t_end(), terminator->t_end());
  Bindings merged = MergedOrDie(initiator->bindings(), terminator->bindings());
  std::vector<EventInstancePtr> children;
  if (initiator->t_begin() <= terminator->t_begin()) {
    children = {initiator, terminator};
  } else {
    children = {terminator, initiator};
  }
  Emit(node_id,
       EventInstance::MakeComplex(t_begin, t_end, std::move(merged),
                                  std::move(children), NextSeq()));
}

// --- SEQ+ -------------------------------------------------------------------------

void Detector::SeqPlusArrival(int node_id, const EventInstancePtr& e) {
  const GraphNode& node = graph_->node(node_id);
  NodeState& st = states_[node_id];

  bool extended = false;
  if (!st.open_runs.empty()) {
    Run& run = st.open_runs.front();
    Duration d = e->t_end() - run.t_end;
    bool fits_dist = d >= node.dist_lo && d <= node.dist_hi;
    bool fits_within = node.within == kDurationInfinity ||
                       e->t_end() - run.t_begin <= node.within;
    if (fits_dist && fits_within) {
      run.elements.push_back(e);
      run.bindings.Merge(e->bindings().ToMulti());
      run.t_end = e->t_end();
      extended = true;
    } else {
      Run closed = std::move(st.open_runs.front());
      st.open_runs.clear();
      CloseRun(node_id, std::move(closed));
    }
  }
  if (!extended) {
    Run run;
    run.elements = {e};
    run.bindings = e->bindings().ToMulti();
    run.t_begin = e->t_begin();
    run.t_end = e->t_end();
    st.open_runs.push_back(std::move(run));
  }
  if (seqplus_self_[node_id]) {
    const Run& run = st.open_runs.front();
    TimePoint expiry = std::min(AddSaturating(run.t_end, node.dist_hi),
                                AddSaturating(run.t_begin, node.within));
    SchedulePseudo(expiry, e->t_end(), node_id, node_id, /*anchor_seq=*/0,
                   kWildcardKey);
  }
}

void Detector::MaterializeSeqPlus(int node_id, bool force, bool include_now) {
  const GraphNode& node = graph_->node(node_id);
  NodeState& st = states_[node_id];
  if (st.open_runs.empty()) return;
  const Run& run = st.open_runs.front();
  // Distance and within bounds are closed, so a run whose expiry equals the
  // clock can still be extended by an element in the current dispatch round.
  // Callers reacting to an observation at `clock_` must therefore only close
  // runs whose expiry is strictly past (include_now=false); the pseudo-event
  // path fires only once the stream has strictly passed the expiry, so there
  // clock_ == expiry genuinely means dead (include_now=true).
  TimePoint expiry = std::min(AddSaturating(run.t_end, node.dist_hi),
                              AddSaturating(run.t_begin, node.within));
  bool expired = include_now ? expiry <= clock_ : expiry < clock_;
  if (force || expired) {
    Run closed = std::move(st.open_runs.front());
    st.open_runs.clear();
    CloseRun(node_id, std::move(closed));
  }
}

void Detector::CloseRun(int node_id, Run run) {
  Emit(node_id,
       EventInstance::MakeComplex(run.t_begin, run.t_end,
                                  std::move(run.bindings),
                                  std::move(run.elements), NextSeq()));
}

// --- NOT --------------------------------------------------------------------------

void Detector::NotLogInsert(int not_node_id, const EventInstancePtr& e) {
  const NodeState& st = states_[not_node_id];
  Family& family = families_[st.family];
  JoinBuffer& log = family.buffers[0];
  log.DrainExpired(clock_);
  log.Append(FamilyKey(not_node_id, *e).hash, e,
             AddSaturating(e->t_end(), family.retention), st.member);
}

bool Detector::NotHasOccurrence(int not_node_id, const Bindings& probe,
                                TimePoint from, TimePoint to,
                                bool include_from, bool include_to) {
  const JoinBuffer::Members member = states_[not_node_id].member;
  const JoinBuffer& log = families_[states_[not_node_id].family].buffers[0];
  auto in_window = [&](const EventInstancePtr& inst) {
    TimePoint t = inst->t_end();
    bool after_from = include_from ? t >= from : t > from;
    bool before_to = include_to ? t <= to : t < to;
    return after_from && before_to;
  };
  auto scan_chain = [&](JoinBuffer::Index i) {
    for (; i != kNoEntry; i = log.next(i)) {
      const JoinBuffer::Entry& entry = log.entry(i);
      // UnifiesWith re-checks bindings, so collisions cannot produce a
      // false "occurrence exists".
      if ((entry.members & member) != 0 && in_window(entry.instance) &&
          probe.UnifiesWith(entry.instance->bindings())) {
        return true;
      }
    }
    return false;
  };
  JoinKey key = KeyFor(not_node_id, probe);
  if (!key.complete) return log.AnyChain(scan_chain);
  return scan_chain(log.Head(key.hash)) || scan_chain(log.Head(kWildcardKey));
}

// --- Pseudo events -------------------------------------------------------------------

void Detector::FirePseudo(const PseudoEvent& pe) {
  if (const DetectorInstruments* m = options_.instruments) {
    m->pseudo_fired->Increment();
    m->pseudo_queue_depth->Set(static_cast<int64_t>(pseudo_queue_.size()));
    m->pseudo_lag_us->Record(
        clock_ > pe.execute_at
            ? static_cast<uint64_t>(clock_ - pe.execute_at)
            : 0);
  }
  if (options_.trace != nullptr) {
    options_.trace->RecordPseudoFired(pe.target_node, pe.execute_at,
                                      pe.created_at);
  }
  clock_ = std::max(clock_, pe.execute_at);
  ++stats_.pseudo_fired;
  const GraphNode& parent = graph_->node(pe.parent_node);

  if (parent.op == ExprOp::kSeqPlus) {
    MaterializeSeqPlus(pe.parent_node, /*force=*/false, /*include_now=*/true);
    return;
  }

  // Anchored completion for AND / SEQ with a negated side: find the
  // buffered anchor in its chain, and release this node's hold on it.
  const NodeState& st = states_[pe.parent_node];
  EventInstancePtr anchor;
  for (int slot = 0; slot < 2 && anchor == nullptr; ++slot) {
    JoinBuffer& buffer = families_[st.family].buffers[slot];
    for (JoinBuffer::Index i = buffer.Head(pe.anchor_key); i != kNoEntry;
         i = buffer.next(i)) {
      const JoinBuffer::Entry& entry = buffer.entry(i);
      if ((entry.members & st.member) != 0 &&
          entry.instance->sequence_number() == pe.anchor_seq) {
        anchor = entry.instance;
        buffer.Release(i, st.member);
        break;
      }
    }
  }
  if (anchor == nullptr) return;  // Anchor consumed or expired.

  bool include_from = parent.op == ExprOp::kAnd;  // SEQ excludes the anchor.
  if (NotHasOccurrence(pe.target_node, anchor->bindings(), pe.created_at,
                       pe.execute_at, include_from, /*include_to=*/true)) {
    return;  // Negation falsified; the anchor is deleted (Fig. 8d).
  }
  EventInstancePtr synth = EventInstance::MakeComplex(
      pe.created_at, pe.execute_at, Bindings(), {}, NextSeq());
  EventInstancePtr inst = EventInstance::MakeComplex(
      anchor->t_begin(), pe.execute_at, anchor->bindings(),
      {anchor, std::move(synth)}, NextSeq());
  Emit(pe.parent_node, std::move(inst));
}

// --- Checkpoint/restore --------------------------------------------------------------

void Detector::SaveState(const std::vector<std::string>& state_keys,
                         snapshot::DetectorSnapshot* out) const {
  out->source_id = 0;
  out->clock = clock_;
  out->sequence_counter = sequence_counter_;
  // Canonical dense orders: restore renumbers the queue 1..n (fired
  // pseudos leave gaps), so capture the live count — not the raw counter
  // — to keep capture→restore→capture byte-identical. Relative FIFO
  // order is preserved, and post-restore pseudos still sort after every
  // restored one.
  out->pseudo_counter = pseudo_queue_.size();
  out->stats = stats_;
  out->instances.clear();
  out->nodes.clear();
  out->pseudos.clear();

  // Children-first instance interning. Instances are visited in
  // deterministic order (nodes by id, entries by sequence number), so the
  // table layout — and the encoded bytes — are reproducible.
  std::unordered_map<const EventInstance*, uint32_t> interned;
  std::function<uint32_t(const EventInstancePtr&)> intern =
      [&](const EventInstancePtr& e) -> uint32_t {
    if (auto it = interned.find(e.get()); it != interned.end()) {
      return it->second;
    }
    snapshot::InstanceRecord rec;
    rec.is_primitive = e->is_primitive();
    if (rec.is_primitive) {
      rec.observation = e->observation();
    } else {
      rec.t_begin = e->t_begin();
      rec.t_end = e->t_end();
    }
    rec.sequence_number = e->sequence_number();
    for (const auto& [sym, value] : e->bindings().scalars()) {
      rec.scalars.emplace_back(events::SymbolName(sym), value);
    }
    for (const auto& [sym, values] : e->bindings().multis()) {
      rec.multis.emplace_back(events::SymbolName(sym), values);
    }
    for (const EventInstancePtr& child : e->children()) {
      rec.children.push_back(intern(child));
    }
    uint32_t index = static_cast<uint32_t>(out->instances.size());
    out->instances.push_back(std::move(rec));
    interned.emplace(e.get(), index);
    return index;
  };
  auto by_seq = [](const std::pair<EventInstancePtr, TimePoint>& a,
                   const std::pair<EventInstancePtr, TimePoint>& b) {
    return a.first->sequence_number() < b.first->sequence_number();
  };

  std::vector<int> record_of(states_.size(), -1);
  for (size_t id = 0; id < states_.size(); ++id) {
    const NodeState& st = states_[id];
    const GraphNode& node = graph_->node(static_cast<int>(id));
    snapshot::NodeStateRecord rec;
    rec.retention = node.retention;
    rec.produced = produced_per_node_[id];
    // Each member records its own view: the entries carrying its bit, at
    // its own deadline. Entries already past that deadline (lazily pruned,
    // or kept for a wider sibling) are skipped: no pairing, anchored
    // pseudo or NOT window of this node can ever see them again.
    auto live_by_seq = [&](const JoinBuffer& buffer, auto deadline_of) {
      std::vector<std::pair<EventInstancePtr, TimePoint>> live;
      buffer.AnyChain([&](JoinBuffer::Index i) {
        for (; i != kNoEntry; i = buffer.next(i)) {
          const JoinBuffer::Entry& entry = buffer.entry(i);
          if ((entry.members & st.member) == 0) continue;
          TimePoint deadline = deadline_of(*entry.instance);
          if (deadline >= clock_) live.emplace_back(entry.instance, deadline);
        }
        return false;
      });
      std::sort(live.begin(), live.end(), by_seq);
      return live;
    };
    if (node.op == ExprOp::kNot) {
      auto deadline_of = [&](const EventInstance& e) {
        return AddSaturating(e.t_end(), node.retention);
      };
      for (const auto& [e, deadline] :
           live_by_seq(families_[st.family].buffers[0], deadline_of)) {
        rec.not_log.push_back(intern(e));
      }
    } else if (st.family >= 0) {
      auto deadline_of = [&](const EventInstance& e) {
        return SlotDeadline(node, e);
      };
      for (int slot = 0; slot < 2; ++slot) {
        for (const auto& [e, deadline] :
             live_by_seq(families_[st.family].buffers[slot], deadline_of)) {
          rec.slots[slot].push_back(
              snapshot::SlotEntryRecord{intern(e), deadline});
        }
      }
    }
    rec.runs.reserve(st.open_runs.size());
    for (const Run& run : st.open_runs) {
      snapshot::RunRecord rr;
      rr.elements.reserve(run.elements.size());
      for (const EventInstancePtr& e : run.elements) {
        rr.elements.push_back(intern(e));
      }
      rr.t_begin = run.t_begin;
      rr.t_end = run.t_end;
      rec.runs.push_back(std::move(rr));
    }
    if (rec.produced == 0 && rec.slots[0].empty() && rec.slots[1].empty() &&
        rec.not_log.empty() && rec.runs.empty()) {
      continue;
    }
    rec.state_key = state_keys[id];
    record_of[id] = static_cast<int>(out->nodes.size());
    out->nodes.push_back(std::move(rec));
  }

  // Pseudo queue in firing order. Anchors become positions into the
  // parent's serialized slot lists (sequence numbers are source-local).
  auto queue = pseudo_queue_;
  out->pseudos.reserve(queue.size());
  while (!queue.empty()) {
    PseudoEvent pe = queue.top();
    queue.pop();
    snapshot::PseudoRecord rec;
    rec.execute_at = pe.execute_at;
    rec.created_at = pe.created_at;
    rec.target_key = state_keys[pe.target_node];
    rec.parent_key = state_keys[pe.parent_node];
    if (graph_->node(pe.parent_node).op == ExprOp::kSeqPlus) {
      rec.anchor_kind = snapshot::AnchorKind::kNone;
    } else {
      rec.anchor_kind = snapshot::AnchorKind::kStale;
      if (int rid = record_of[pe.parent_node]; rid >= 0) {
        const snapshot::NodeStateRecord& nrec = out->nodes[rid];
        for (int slot = 0;
             slot < 2 && rec.anchor_kind == snapshot::AnchorKind::kStale;
             ++slot) {
          for (size_t pos = 0; pos < nrec.slots[slot].size(); ++pos) {
            if (out->instances[nrec.slots[slot][pos].instance]
                    .sequence_number == pe.anchor_seq) {
              rec.anchor_kind = snapshot::AnchorKind::kLive;
              rec.anchor_slot = static_cast<uint8_t>(slot);
              rec.anchor_pos = static_cast<uint32_t>(pos);
              break;
            }
          }
        }
      }
    }
    out->pseudos.push_back(std::move(rec));
  }
}

Status Detector::RestoreState(const snapshot::RestorePlan& plan,
                              const DetectorStats& stats) {
  for (NodeState& st : states_) st.open_runs.clear();
  for (Family& family : families_) {
    family.buffers[0] = JoinBuffer();
    family.buffers[1] = JoinBuffer();
    family.keyed_seq = 0;
  }
  produced_per_node_.assign(graph_->num_nodes(), 0);
  pseudo_queue_ = {};
  clock_ = plan.clock;
  sequence_counter_ = plan.sequence_counter;
  pseudo_counter_ = plan.pseudo_counter;
  stats_ = stats;

  // Member records merge into their family's buffers by instance: every
  // (family, slot) list is appended in sequence order, so each member's
  // chains and the expiry records reproduce the original arrival order,
  // and members holding one instance share its entry again.
  struct Held {
    int family;
    int slot;
    uint64_t seq;
    uintptr_t instance;  // Groups one instance's members.
    int node_id;
    const EventInstancePtr* e;
  };
  std::vector<Held> held;
  for (const snapshot::RestoredNode& rn : plan.nodes) {
    if (rn.node_id < 0 || rn.node_id >= static_cast<int>(states_.size())) {
      return Status::Internal("restore: node id out of range");
    }
    NodeState& st = states_[rn.node_id];
    const GraphNode& node = graph_->node(rn.node_id);
    produced_per_node_[rn.node_id] = rn.produced;
    auto hold = [&](int slot, const EventInstancePtr& e) {
      held.push_back(Held{st.family, slot, e->sequence_number(),
                          reinterpret_cast<uintptr_t>(e.get()), rn.node_id,
                          &e});
    };
    if (node.op == ExprOp::kNot) {
      for (const EventInstancePtr& e : rn.not_log) hold(0, e);
    } else if (st.family >= 0) {
      for (int slot = 0; slot < 2; ++slot) {
        for (const auto& [e, deadline] : rn.slots[slot]) hold(slot, e);
      }
    }
    for (const snapshot::RestoredRun& rr : rn.runs) {
      if (rr.elements.empty()) {
        return Status::Internal("restore: SEQ+ run with no elements");
      }
      Run run;
      run.elements = rr.elements;
      run.bindings = rr.elements.front()->bindings().ToMulti();
      for (size_t i = 1; i < rr.elements.size(); ++i) {
        if (!run.bindings.Merge(rr.elements[i]->bindings().ToMulti())) {
          return Status::Internal("restore: SEQ+ run bindings do not merge");
        }
      }
      run.t_begin = rr.t_begin;
      run.t_end = rr.t_end;
      st.open_runs.push_back(std::move(run));
    }
  }
  std::sort(held.begin(), held.end(), [](const Held& x, const Held& y) {
    return std::tie(x.family, x.slot, x.seq, x.instance, x.node_id) <
           std::tie(y.family, y.slot, y.seq, y.instance, y.node_id);
  });
  for (const Held& h : held) {
    const EventInstancePtr& e = *h.e;
    Family& family = families_[h.family];
    const GraphNode& node = graph_->node(h.node_id);
    TimePoint deadline =
        node.op == ExprOp::kNot
            ? AddSaturating(e->t_end(), family.retention)
            : SlotDeadline(node.op, family.within, family.dist_hi, *e);
    family.buffers[h.slot].Append(KeyFor(h.node_id, e->bindings()).hash, e,
                                  deadline, states_[h.node_id].member);
  }

  for (const snapshot::RestoredPseudo& rp : plan.pseudos) {
    if (rp.target_node < 0 ||
        rp.target_node >= static_cast<int>(states_.size()) ||
        rp.parent_node < 0 ||
        rp.parent_node >= static_cast<int>(states_.size())) {
      return Status::Internal("restore: pseudo node id out of range");
    }
    uint64_t anchor_seq = 0;
    uint64_t anchor_key = kWildcardKey;
    if (rp.anchor != nullptr) {
      anchor_seq = rp.anchor->sequence_number();
      anchor_key = KeyFor(rp.parent_node, rp.anchor->bindings()).hash;
    }
    pseudo_queue_.push(PseudoEvent{rp.execute_at, rp.created_at,
                                   rp.target_node, rp.parent_node, anchor_seq,
                                   anchor_key, rp.order});
  }
  if (const DetectorInstruments* m = options_.instruments) {
    int64_t depth = static_cast<int64_t>(pseudo_queue_.size());
    if (m->pseudo_queue_depth != nullptr) m->pseudo_queue_depth->Set(depth);
    if (m->pseudo_queue_peak != nullptr) {
      m->pseudo_queue_peak->UpdateMax(depth);
    }
  }
  return Status::Ok();
}

// --- Helpers ------------------------------------------------------------------------

size_t Detector::TotalBufferedEntries() const {
  size_t total = 0;
  for (const Family& family : families_) {
    total += family.buffers[0].size() + family.buffers[1].size();
  }
  for (const NodeState& st : states_) {
    for (const Run& run : st.open_runs) total += run.elements.size();
  }
  return total;
}

size_t Detector::BufferedAt(int node_id) const {
  const NodeState& st = states_[node_id];
  size_t total = 0;
  for (const Run& run : st.open_runs) total += run.elements.size();
  if (st.family < 0) return total;
  for (const JoinBuffer& buffer : families_[st.family].buffers) {
    buffer.AnyChain([&](JoinBuffer::Index i) {
      for (; i != kNoEntry; i = buffer.next(i)) {
        if ((buffer.entry(i).members & st.member) != 0) ++total;
      }
      return false;
    });
  }
  return total;
}

int Detector::FamilyRep(int node_id) const {
  int family = states_[node_id].family;
  if (family < 0 || families_[family].size < 2) return -1;
  return families_[family].rep;
}

}  // namespace rfidcep::engine
