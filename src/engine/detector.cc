#include "engine/detector.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "engine/snapshot.h"
#include "engine/trace.h"
#include "events/symbol.h"

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
  BuildRuns();
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
    uint64_t h = common::HashCombine(0, static_cast<uint64_t>(node.op));
    for (int child : node.children) {
      h = common::HashCombine(h, static_cast<uint64_t>(child_class(child)));
    }
    for (events::SymbolId sym : node.join_syms) {
      h = common::HashCombine(h, sym);
    }
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

void Detector::BuildRuns() {
  run_begin_.reserve(graph_->num_nodes() + 1);
  for (const GraphNode& node : graph_->nodes()) {
    run_begin_.push_back(static_cast<uint32_t>(run_sizes_.size()));
    const std::vector<int>& parents = node.parents;
    for (size_t i = 0; i < parents.size();) {
      // Members of one family have the same children, so they take the
      // instance in the same slot or slots.
      const int family = states_[parents[i]].family;
      size_t end = i + 1;
      while (family >= 0 && end < parents.size() &&
             states_[parents[end]].family == family) {
        ++end;
      }
      // An AND taking the instance in both slots stays a run of one: each
      // member's second slot pairs with what its first slot buffered, so
      // members must not interleave.
      if (const GraphNode& parent = graph_->node(parents[i]);
          end - i > 1 && parent.op == ExprOp::kAnd &&
          parent.children[0] == parent.children[1]) {
        end = i + 1;
      }
      run_sizes_.push_back(static_cast<uint8_t>(end - i));
      i = end;
    }
  }
  run_begin_.push_back(static_cast<uint32_t>(run_sizes_.size()));
}

JoinBuffer::Members Detector::RunMask(MemberRun run) const {
  JoinBuffer::Members mask = 0;
  for (int node_id : run) mask |= states_[node_id].member;
  return mask;
}

Status Detector::Process(const Observation& obs) {
  if (obs.timestamp < clock_) {
    if (options_.tolerate_out_of_order) {
      ++stats_.out_of_order_dropped;
      return Status::Ok();
    }
    return Status::InvalidArgument(
        "out-of-order observation at " + FormatTimePoint(obs.timestamp) +
        " (clock is " + FormatTimePoint(clock_) + ")");
  }
  FirePseudosBefore(obs.timestamp);
  clock_ = obs.timestamp;
  ++stats_.observations;

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
  if (index_.fullscan_fallback()) ++stats_.fullscan_dispatches;
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
  stats_.pseudo_queue_peak =
      std::max<uint64_t>(stats_.pseudo_queue_peak, pseudo_queue_.size());
}

void Detector::Emit(int node_id, EventInstancePtr instance) {
  const GraphNode& node = graph_->node(node_id);
  if (node.within != kDurationInfinity && instance->interval() > node.within) {
    return;  // Violates the propagated interval constraint.
  }
  ++stats_.instances_produced;
  ++produced_per_node_[node_id];
  if (options_.trace != nullptr) {
    options_.trace->RecordNodeActivation(node_id, events::ExprOpName(node.op),
                                         *instance);
  }
  for (size_t rule_index : node.rule_indexes) {
    ++stats_.rule_matches;
    on_match_(rule_index, instance);
  }
  // Runs are taken in parents order and never merged across parents
  // that are not adjacent, so matches reach rules in the same order as
  // routing to one parent at a time.
  const int* parent = node.parents.data();
  const uint8_t* size = run_sizes_.data() + run_begin_[node_id];
  const uint8_t* const end = run_sizes_.data() + run_begin_[node_id + 1];
  for (; size != end; ++size) {
    RouteToRun(MemberRun(parent, *size), node_id, instance);
    parent += *size;
  }
}

void Detector::RouteToRun(MemberRun run, int child_id,
                          const EventInstancePtr& instance) {
  const GraphNode& parent = graph_->node(run[0]);
  switch (parent.op) {
    case ExprOp::kPrimitive:
      assert(false && "primitive nodes have no children");
      return;
    case ExprOp::kOr:
      // OR forwards constituent occurrences unchanged (a run of one).
      Emit(run[0], instance);
      return;
    case ExprOp::kNot:
      NotLogInsert(run, instance);
      return;
    case ExprOp::kSeqPlus:
      SeqPlusArrival(run[0], instance);  // A run of one.
      return;
    case ExprOp::kAnd: {
      // One key computation per run, shared by every role the instance
      // plays below and by every member of the run.
      JoinKey key = KeyFor(run[0], instance->bindings());
      for (int slot = 0; slot < 2; ++slot) {
        if (parent.children[slot] == child_id) {
          AndArrival(run, slot, instance, key);
        }
      }
      return;
    }
    case ExprOp::kSeq: {
      JoinKey key = KeyFor(run[0], instance->bindings());
      // Terminator role first, then initiator buffering, so an instance
      // serving both roles (duplicate-filter rule) pairs with a strictly
      // older occurrence before becoming an initiator itself. Every
      // member's terminator role runs before any member's initiator
      // role, which emits as one parent at a time would: the initiator
      // role of SEQ(a ; a) neither emits nor schedules, and the entry it
      // buffers for one member could never pair with another's
      // terminator (a member pairs only with entries carrying its bit,
      // and an instance never precedes itself).
      if (parent.children[1] == child_id) {
        SeqTerminatorArrival(run, instance, key);
      }
      if (parent.children[0] == child_id) {
        SeqInitiatorArrival(run, instance, key);
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

void Detector::BufferInsert(MemberRun run, int slot_index,
                            const EventInstancePtr& e, JoinKey key,
                            JoinBuffer::Members members) {
  if (members == 0) return;
  Family& family = families_[states_[run[0]].family];
  JoinBuffer& slot = family.buffers[slot_index];
  slot.DrainExpired(clock_);
  // Not before the clock moves on: an instance emitted late (a SEQ+ run
  // closed by its expiry pseudo event) can arrive past its deadline, and
  // its anchored pseudo event fires only after the rest of this cascade,
  // in which a sibling's drain must not free the anchor. The family's
  // widest bounds give every member the same deadline, so one entry
  // serves them all.
  TimePoint deadline = std::max(
      clock_, SlotDeadline(graph_->node(run[0]).op, family.within,
                           family.dist_hi, *e));
  slot.Append(key.hash, e, deadline, members);
}

// --- AND ------------------------------------------------------------------------

void Detector::AndArrival(MemberRun run, int slot, const EventInstancePtr& e,
                          JoinKey key) {
  const int other_slot = 1 - slot;
  JoinBuffer::Members buffering = 0;
  if (graph_->node(graph_->node(run[0]).children[other_slot]).op ==
      ExprOp::kNot) {
    // WITHIN(E ∧ ¬N, w): check the past window now, and the future window
    // at expiry via a pseudo event (paper Fig. 8). Each member queries its
    // own NOT node over its own window.
    for (int node_id : run) {
      const GraphNode& node = graph_->node(node_id);
      const int not_id = node.children[other_slot];
      Duration w = node.within;  // Finite (validated at graph build).
      if (NotHasOccurrence(not_id, e->bindings(), e->t_end() - w, e->t_end(),
                           /*include_from=*/true, /*include_to=*/true)) {
        continue;  // A negated occurrence already falsifies this instance.
      }
      buffering |= states_[node_id].member;
      SchedulePseudo(AddSaturating(e->t_begin(), w), e->t_end(), not_id,
                     node_id, e->sequence_number(), key.hash);
    }
  } else {
    const JoinBuffer::Members paired = PairRun(run, slot, e, key);
    buffering = RunMask(run);
    if (options_.context == ParameterContext::kRecent) {
      // Only the most recent instance per slot is retained.
      families_[states_[run[0]].family].buffers[slot].ReleaseAll(buffering);
    } else if (options_.context != ParameterContext::kUnrestricted) {
      buffering &= ~paired;
    }
  }
  BufferInsert(run, slot, e, key, buffering);
}

// --- SEQ -------------------------------------------------------------------------

void Detector::SeqInitiatorArrival(MemberRun run, const EventInstancePtr& e1,
                                   JoinKey key) {
  const JoinBuffer::Members members = RunMask(run);
  if (graph_->node(graph_->node(run[0]).children[1]).op == ExprOp::kNot) {
    // SEQ(a ; ¬b): confirmed at expiry if no negated occurrence follows.
    for (int node_id : run) {
      const GraphNode& node = graph_->node(node_id);
      SchedulePseudo(SlotDeadline(node, *e1), e1->t_end(), node.children[1],
                     node_id, e1->sequence_number(), key.hash);
    }
  } else if (options_.context == ParameterContext::kRecent) {
    families_[states_[run[0]].family].buffers[0].ReleaseAll(members);
  }
  BufferInsert(run, 0, e1, key, members);
}

void Detector::SeqTerminatorArrival(MemberRun run, const EventInstancePtr& e2,
                                    JoinKey key) {
  const GraphNode& left = graph_->node(graph_->node(run[0]).children[0]);

  if (left.op == ExprOp::kNot) {
    // WITHIN(¬a ; b, w): on b's arrival, each member queries
    // non-occurrence over its own preceding window (half-open: b itself
    // does not falsify it).
    for (int node_id : run) {
      const GraphNode& node = graph_->node(node_id);
      Duration width = std::min(node.within, node.dist_hi);
      TimePoint from = e2->t_end() - width;
      TimePoint to = e2->t_begin();
      if (!NotHasOccurrence(node.children[0], e2->bindings(), from, to,
                            /*include_from=*/true, /*include_to=*/false)) {
        EventInstancePtr synth =
            EventInstance::MakeComplex(from, to, Bindings(), {}, NextSeq());
        EventInstancePtr inst = EventInstance::MakeComplex(
            from, e2->t_end(), e2->bindings(), {std::move(synth), e2},
            NextSeq());
        Emit(node_id, std::move(inst));
      }
    }
    return;
  }

  if (left.op == ExprOp::kSeqPlus) {
    // Close out runs so they are visible as initiators. A SEQ+ with no
    // bounds at all is closed by this terminator (Snoop A* semantics). A
    // SEQ+ initiating a positive terminator is private to its one parent
    // (EventGraph::Intern), so the run is this node alone.
    assert(run.size() == 1);
    bool force = left.dist_hi == kDurationInfinity &&
                 left.within == kDurationInfinity;
    MaterializeSeqPlus(left.id, force, /*include_now=*/false);
  }
  PairRun(run, 1, e2, key);
}

// --- Pairing -----------------------------------------------------------------------

JoinBuffer::Members Detector::PairRun(MemberRun run, int incoming_slot,
                                      const EventInstancePtr& incoming,
                                      JoinKey key) {
  const bool seq = graph_->node(run[0]).op == ExprOp::kSeq;
  Family& family = families_[states_[run[0]].family];
  JoinBuffer& buffer = family.buffers[1 - incoming_slot];
  buffer.DrainExpired(clock_);

  // Chronicle keeps each member's admissible entry with the lowest
  // sequence number, recent the highest; the other contexts take every
  // admissible entry, in sequence order.
  const ParameterContext context = options_.context;
  const bool lowest = context == ParameterContext::kChronicle;
  const bool single = lowest || context == ParameterContext::kRecent;
  struct Member {
    const GraphNode* node;
    JoinBuffer::Members bit;
    JoinBuffer::Index best;
    uint64_t best_seq;
  };
  std::array<Member, kMaxFamilyMembers> members;
  JoinBuffer::Members run_mask = 0;
  for (size_t k = 0; k < run.size(); ++k) {
    members[k] = {&graph_->node(run[k]), states_[run[k]].member, kNoEntry, 0};
    run_mask |= members[k].bit;
  }
  struct Candidate {
    uint64_t seq;
    JoinBuffer::Index index;
    JoinBuffer::Members admitted;  // Members that may pair with it.
  };
  std::vector<Candidate> all;
  auto scan_chain = [&](JoinBuffer::Index i) {
    for (; i != kNoEntry; i = buffer.next(i)) {
      const JoinBuffer::Entry& entry = buffer.entry(i);
      const JoinBuffer::Members held = entry.members & run_mask;
      if (held == 0) continue;  // Other members' entries.
      // Under SEQ, `cand` is the initiator and `incoming` the terminator.
      const EventInstance& cand = *entry.instance;
      if (seq && cand.t_end() >= incoming->t_begin()) continue;
      const Duration distance = incoming->t_end() - cand.t_end();
      const Duration span = events::CombinedInterval(cand, *incoming);
      JoinBuffer::Members admitted = 0;
      for (size_t k = 0; k < run.size(); ++k) {
        const GraphNode& node = *members[k].node;
        // An entry past this member's deadline that a wider sibling
        // still holds is not this member's.
        if ((held & members[k].bit) == 0 ||
            SlotDeadline(node, cand) < clock_ ||
            (seq && (distance < node.dist_lo || distance > node.dist_hi)) ||
            (node.within != kDurationInfinity && span > node.within)) {
          continue;
        }
        admitted |= members[k].bit;
      }
      // Full unification re-check, once per entry: hash collisions (and
      // the wildcard chain) may surface non-matching candidates.
      if (admitted == 0 ||
          !cand.bindings().UnifiesWith(incoming->bindings())) {
        continue;
      }
      const uint64_t cand_seq = cand.sequence_number();
      if (!single) {
        all.push_back(Candidate{cand_seq, i, admitted});
        continue;
      }
      for (size_t k = 0; k < run.size(); ++k) {
        Member& m = members[k];
        if ((admitted & m.bit) != 0 &&
            (m.best == kNoEntry ||
             (lowest ? cand_seq < m.best_seq : cand_seq > m.best_seq))) {
          m.best = i;
          m.best_seq = cand_seq;
        }
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
  if (!single) {
    std::sort(all.begin(), all.end(),
              [](const Candidate& a, const Candidate& b) {
                return std::tie(a.seq, a.index) < std::tie(b.seq, b.index);
              });
  }

  // Every member's partners were chosen above, before any member emits,
  // and they stay valid through the loop. A member's own release clears
  // only its bit, so an entry another member chose stays live. And a
  // member's emission never reaches its own family's buffers. Only the
  // family's children write them, and a cascade climbs from a member to
  // its ancestors, never down to its children. The one other route, a
  // SEQ+ child closed by an ancestor's terminator, would need a
  // terminator-closed SEQ+, and such a SEQ+ is private to its single
  // parent (EventGraph::Intern), so family members never share one as a
  // child. Debug builds check this with the buffers' mutation counts.
  [[maybe_unused]] const uint64_t mutations =
      family.buffers[0].mutations() + family.buffers[1].mutations();
  [[maybe_unused]] uint64_t releases = 0;
  JoinBuffer::Members paired = 0;
  for (size_t k = 0; k < run.size(); ++k) {
    const int node_id = run[k];
    const Member& m = members[k];
    if (single) {
      if (m.best == kNoEntry) continue;
      EventInstancePtr partner = buffer.entry(m.best).instance;
      if (lowest) {
        buffer.Release(m.best, m.bit);
        ++releases;
      }  // Recent reuses the initiator.
      paired |= m.bit;
      ProducePair(node_id, partner, incoming);
      continue;
    }
    std::vector<EventInstancePtr> partners;
    for (const Candidate& cand : all) {
      if ((cand.admitted & m.bit) == 0) continue;
      partners.push_back(buffer.entry(cand.index).instance);
      if (context != ParameterContext::kUnrestricted) {
        buffer.Release(cand.index, m.bit);
        ++releases;
      }
    }
    if (partners.empty()) continue;
    paired |= m.bit;
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
      continue;
    }
    for (const EventInstancePtr& partner : partners) {
      ProducePair(node_id, partner, incoming);
    }
  }
  assert(family.buffers[0].mutations() + family.buffers[1].mutations() ==
             mutations + releases &&
         "an emission reached its own window family's buffers");
  return paired;
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
  if (st.open_run.has_value()) {
    Run& run = *st.open_run;
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
      Run closed = std::move(run);
      st.open_run.reset();
      CloseRun(node_id, std::move(closed));
    }
  }
  if (!extended) {
    Run& run = st.open_run.emplace();
    run.elements = {e};
    run.bindings = e->bindings().ToMulti();
    run.t_begin = e->t_begin();
    run.t_end = e->t_end();
  }
  if (seqplus_self_[node_id]) {
    const Run& run = *st.open_run;
    TimePoint expiry = std::min(AddSaturating(run.t_end, node.dist_hi),
                                AddSaturating(run.t_begin, node.within));
    SchedulePseudo(expiry, e->t_end(), node_id, node_id, /*anchor_seq=*/0,
                   kWildcardKey);
  }
}

void Detector::MaterializeSeqPlus(int node_id, bool force, bool include_now) {
  const GraphNode& node = graph_->node(node_id);
  NodeState& st = states_[node_id];
  if (!st.open_run.has_value()) return;
  const Run& run = *st.open_run;
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
    Run closed = std::move(*st.open_run);
    st.open_run.reset();
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

void Detector::NotLogInsert(MemberRun run, const EventInstancePtr& e) {
  Family& family = families_[states_[run[0]].family];
  JoinBuffer& log = family.buffers[0];
  log.DrainExpired(clock_);
  log.Append(KeyFor(run[0], e->bindings()).hash, e,
             AddSaturating(e->t_end(), family.retention), RunMask(run));
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
  if (options_.pseudo_lag_us != nullptr) {
    options_.pseudo_lag_us->Record(
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

namespace {

// The text of a primitive record's observation as a handle, shared with
// an equal bound value when the record has one, as detection shares it.
events::SharedText ObservationText(const snapshot::InstanceRecord& rec,
                                   const std::string& text) {
  for (const auto& [name, value] : rec.scalars) {
    const auto* bound = std::get_if<events::SharedText>(&value);
    if (bound != nullptr && bound->view() == text) return *bound;
  }
  return events::SharedText(text);
}

// Rebuilds the instance table as live objects, the inverse of SaveState's
// interning.
std::vector<EventInstancePtr> DecodeInstances(
    const snapshot::DetectorSnapshot& src) {
  std::vector<EventInstancePtr> out;
  out.reserve(src.instances.size());
  for (const snapshot::InstanceRecord& rec : src.instances) {
    Bindings bindings;
    for (const auto& [name, value] : rec.scalars) {
      bindings.BindScalar(events::InternSymbol(name), value);
    }
    for (const auto& [name, values] : rec.multis) {
      events::SymbolId sym = events::InternSymbol(name);
      for (const events::BindingValue& value : values) {
        bindings.BindMulti(sym, value);
      }
    }
    if (rec.is_primitive) {
      out.push_back(EventInstance::MakePrimitive(
          ObservationText(rec, rec.observation.reader),
          ObservationText(rec, rec.observation.object),
          rec.observation.timestamp, std::move(bindings),
          rec.sequence_number));
    } else {
      std::vector<EventInstancePtr> children;
      children.reserve(rec.children.size());
      for (uint32_t child : rec.children) {
        children.push_back(out[child]);  // Bounds-checked at decode.
      }
      out.push_back(EventInstance::MakeComplex(rec.t_begin, rec.t_end,
                                               std::move(bindings),
                                               std::move(children),
                                               rec.sequence_number));
    }
  }
  return out;
}

Status UnknownStateKey(std::string_view what, std::string_view key) {
  return Status::FailedPrecondition(
      "snapshot: " + std::string(what) + " under state key '" +
      std::string(key) +
      "', which the compiled graph lacks, is not restored (a checkpoint "
      "from before SEQ+ prefix sharing keeps per-rule copies under such "
      "keys)");
}

// SaveState writes slot entries only under AND and SEQ (slot 1 only under
// AND), NOT-log entries only under NOT, and at most one non-empty run,
// only under SEQ+. Any other record is damaged or forged.
Status CheckRecordShape(ExprOp op, const snapshot::NodeStateRecord& rec) {
  const char* what = nullptr;
  if (op != ExprOp::kAnd && op != ExprOp::kSeq && !rec.slots[0].empty()) {
    what = "slot entries";
  } else if (op != ExprOp::kAnd && !rec.slots[1].empty()) {
    what = "slot-1 entries";
  } else if (op != ExprOp::kNot && !rec.not_log.empty()) {
    what = "NOT-log entries";
  } else if (op != ExprOp::kSeqPlus && !rec.runs.empty()) {
    what = "a SEQ+ run";
  } else if (rec.runs.size() > 1) {
    what = "a second SEQ+ run";
  } else if (!rec.runs.empty() && rec.runs[0].elements.empty()) {
    what = "an empty SEQ+ run";
  }
  if (what == nullptr) return Status::Ok();
  return Status::InvalidArgument(
      "snapshot: " + std::string(what) + " under state key '" +
      rec.state_key + "' (" + std::string(events::ExprOpName(op)) +
      "), which capture never writes");
}

}  // namespace

void Detector::SaveState(const std::vector<std::string>& state_keys,
                         snapshot::DetectorSnapshot* out) const {
  out->sequence_counter = sequence_counter_;
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
  std::vector<int> record_of(states_.size(), -1);
  for (size_t id = 0; id < states_.size(); ++id) {
    const NodeState& st = states_[id];
    const GraphNode& node = graph_->node(static_cast<int>(id));
    snapshot::NodeStateRecord rec;
    rec.produced = produced_per_node_[id];
    // Each member records its own view: the entries carrying its bit, at
    // its own deadline. Entries already past that deadline (lazily pruned,
    // or kept for a wider sibling) are skipped: no pairing, anchored
    // pseudo or NOT window of this node can ever see them again.
    auto live_by_seq = [&](const JoinBuffer& buffer, auto deadline_of) {
      std::vector<EventInstancePtr> live;
      buffer.AnyChain([&](JoinBuffer::Index i) {
        for (; i != kNoEntry; i = buffer.next(i)) {
          const JoinBuffer::Entry& entry = buffer.entry(i);
          if ((entry.members & st.member) == 0) continue;
          if (deadline_of(*entry.instance) >= clock_) {
            live.push_back(entry.instance);
          }
        }
        return false;
      });
      std::sort(live.begin(), live.end(),
                [](const EventInstancePtr& a, const EventInstancePtr& b) {
                  return a->sequence_number() < b->sequence_number();
                });
      return live;
    };
    if (node.op == ExprOp::kNot) {
      auto deadline_of = [&](const EventInstance& e) {
        return AddSaturating(e.t_end(), node.retention);
      };
      for (const EventInstancePtr& e :
           live_by_seq(families_[st.family].buffers[0], deadline_of)) {
        rec.not_log.push_back(intern(e));
      }
    } else if (st.family >= 0) {
      auto deadline_of = [&](const EventInstance& e) {
        return SlotDeadline(node, e);
      };
      for (int slot = 0; slot < 2; ++slot) {
        for (const EventInstancePtr& e :
             live_by_seq(families_[st.family].buffers[slot], deadline_of)) {
          rec.slots[slot].push_back(intern(e));
        }
      }
    }
    if (st.open_run.has_value()) {
      snapshot::RunRecord& rr = rec.runs.emplace_back();
      rr.elements.reserve(st.open_run->elements.size());
      for (const EventInstancePtr& e : st.open_run->elements) {
        rr.elements.push_back(intern(e));
      }
      rr.t_begin = st.open_run->t_begin;
      rr.t_end = st.open_run->t_end;
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
  // parent's serialized slot lists.
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
            if (out->instances[nrec.slots[slot][pos]].sequence_number ==
                pe.anchor_seq) {
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

Status Detector::RestoreState(const std::vector<std::string>& state_keys,
                              const snapshot::DetectorSnapshot& snap,
                              TimePoint clock, const DetectorStats& stats) {
  // Everything that can fail runs first, into locals; the detector
  // changes only in the install pass at the end, which cannot fail.
  std::unordered_map<std::string_view, int> node_by_key;
  node_by_key.reserve(state_keys.size());
  for (size_t id = 0; id < state_keys.size(); ++id) {
    node_by_key.emplace(state_keys[id], static_cast<int>(id));
  }
  std::vector<const snapshot::NodeStateRecord*> record_at(states_.size());
  for (const snapshot::NodeStateRecord& rec : snap.nodes) {
    auto found = node_by_key.find(rec.state_key);
    if (found == node_by_key.end()) {
      if (!rec.slots[0].empty() || !rec.slots[1].empty() ||
          !rec.not_log.empty() || !rec.runs.empty()) {
        return UnknownStateKey("detection state", rec.state_key);
      }
      continue;  // Produced-only: a window-stamped leaf of an older graph.
    }
    if (record_at[found->second] != nullptr) {
      return Status::InvalidArgument("snapshot: two records for state key '" +
                                     rec.state_key + "'");
    }
    record_at[found->second] = &rec;
    RFIDCEP_RETURN_IF_ERROR(
        CheckRecordShape(graph_->node(found->second).op, rec));
  }
  const std::vector<EventInstancePtr> table = DecodeInstances(snap);
  std::vector<PseudoEvent> pseudos;
  pseudos.reserve(snap.pseudos.size());
  for (const snapshot::PseudoRecord& rec : snap.pseudos) {
    const auto target = node_by_key.find(rec.target_key);
    const auto parent = node_by_key.find(rec.parent_key);
    if (target == node_by_key.end()) {
      return UnknownStateKey("a pseudo event", rec.target_key);
    }
    if (parent == node_by_key.end()) {
      return UnknownStateKey("a pseudo event", rec.parent_key);
    }
    // A SEQ+ node's own expiry, or an anchored AND/SEQ completion that
    // queries a NOT node.
    const ExprOp parent_op = graph_->node(parent->second).op;
    if (parent_op == ExprOp::kSeqPlus
            ? target->second != parent->second
            : (parent_op != ExprOp::kAnd && parent_op != ExprOp::kSeq) ||
                  graph_->node(target->second).op != ExprOp::kNot) {
      return Status::InvalidArgument(
          "snapshot: a pseudo event from state key '" + rec.parent_key +
          "' to '" + rec.target_key + "', which capture never writes");
    }
    // Restore numbers the queue 1..n, and the counter resumes at its
    // length: later pseudos sort after every restored one, and a
    // re-capture of the restored engine is byte-identical.
    PseudoEvent& pe = pseudos.emplace_back(
        PseudoEvent{rec.execute_at, rec.created_at, target->second,
                    parent->second, 0, kWildcardKey, pseudos.size() + 1});
    if (rec.anchor_kind == snapshot::AnchorKind::kLive) {
      const snapshot::NodeStateRecord* holder = record_at[parent->second];
      if (holder == nullptr ||
          rec.anchor_pos >= holder->slots[rec.anchor_slot].size()) {
        return Status::InvalidArgument(
            "snapshot: live pseudo anchor outside its parent's entries");
      }
      const EventInstancePtr& anchor =
          table[holder->slots[rec.anchor_slot][rec.anchor_pos]];
      pe.anchor_seq = anchor->sequence_number();
      pe.anchor_key = KeyFor(parent->second, anchor->bindings()).hash;
    }
  }
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
  std::vector<uint64_t> produced(states_.size(), 0);
  std::vector<std::pair<int, Run>> runs;
  for (size_t id = 0; id < record_at.size(); ++id) {
    const snapshot::NodeStateRecord* rec = record_at[id];
    if (rec == nullptr) continue;
    produced[id] = rec->produced;
    const auto hold = [&](int slot, const std::vector<uint32_t>& indexes) {
      for (uint32_t index : indexes) {
        const EventInstancePtr& e = table[index];
        held.push_back(Held{states_[id].family, slot, e->sequence_number(),
                            reinterpret_cast<uintptr_t>(e.get()),
                            static_cast<int>(id), &e});
      }
    };
    // The shape check leaves each node only the lists its op keeps.
    hold(0, rec->slots[0]);
    hold(1, rec->slots[1]);
    hold(0, rec->not_log);
    for (const snapshot::RunRecord& rr : rec->runs) {
      Run& run = runs.emplace_back(static_cast<int>(id), Run()).second;
      for (uint32_t index : rr.elements) {
        run.elements.push_back(table[index]);
        // Multi-valued bindings always unify, so the merge cannot fail.
        run.bindings.Merge(table[index]->bindings().ToMulti());
      }
      run.t_begin = rr.t_begin;
      run.t_end = rr.t_end;
    }
  }
  std::sort(held.begin(), held.end(), [](const Held& x, const Held& y) {
    return std::tie(x.family, x.slot, x.seq, x.instance, x.node_id) <
           std::tie(y.family, y.slot, y.seq, y.instance, y.node_id);
  });

  // Install.
  for (NodeState& st : states_) st.open_run.reset();
  for (Family& family : families_) {
    family.buffers[0] = JoinBuffer();
    family.buffers[1] = JoinBuffer();
  }
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
  for (auto& [id, run] : runs) states_[id].open_run = std::move(run);
  produced_per_node_ = std::move(produced);
  pseudo_queue_ = {};
  for (const PseudoEvent& pe : pseudos) pseudo_queue_.push(pe);
  pseudo_counter_ = pseudos.size();
  clock_ = clock;
  sequence_counter_ = snap.sequence_counter;
  stats_ = stats;
  return Status::Ok();
}

// --- Helpers ------------------------------------------------------------------------

size_t Detector::TotalBufferedEntries() const {
  size_t total = 0;
  for (const Family& family : families_) {
    total += family.buffers[0].size() + family.buffers[1].size();
  }
  for (const NodeState& st : states_) {
    if (st.open_run.has_value()) total += st.open_run->elements.size();
  }
  return total;
}

size_t Detector::BufferedAt(int node_id) const {
  const NodeState& st = states_[node_id];
  size_t total = st.open_run.has_value() ? st.open_run->elements.size() : 0;
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
