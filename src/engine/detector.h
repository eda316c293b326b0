// The RCEDA runtime (paper §4.4–§4.6).
//
// The detector walks an EventGraph with per-node runtime state:
//
//   * binary nodes (AND, SEQ/TSEQ) keep slot buffers of unconsumed
//     constituent instances, pruned by deadlines derived from the node's
//     propagated WITHIN bound and distance constraints. Each slot is a
//     flat JoinBuffer (engine/join_buffer.h): one open-addressing table
//     maps the hashed tuple of the node's equality-join variables (graph
//     join_vars) to a FIFO chain in a pooled entry array, so a rule like
//     the duplicate filter — which joins on the same (reader, object) —
//     pairs in O(1) expected time instead of scanning the whole window;
//   * NOT nodes keep a time-ordered log of their child's occurrences
//     (a JoinBuffer keyed the same way) and answer window queries ("was
//     there an occurrence unifying with these bindings in [a, b]?");
//   * SEQ+/TSEQ+ nodes keep the open run of adjacent occurrences, closing
//     it on a distance-constraint violation, at expiry (via a pseudo
//     event), or when a sequence terminator forces closure;
//   * non-spontaneous completions are driven by *pseudo events* held in a
//     queue sorted by execution time and interleaved with the observation
//     stream, exactly as in §4.5.
//
// Window families. Rules are often written once per window (Fig. 9's
// generator writes each shape at five), and every such node would hash,
// buffer and expire the same instances. Nodes that differ only by their
// windows therefore share buffers (paper §4.3's common-subgraph merge,
// carried into the runtime):
//
//   * AND/SEQ nodes with the same op, the same children and the same join
//     variables form one family; a NOT child counts by its own family;
//   * NOT nodes with the same child and the same join variables form one.
//
// A family has one JoinBuffer per slot (one log for NOT) and at most 64
// members; a larger group splits. Every entry carries the mask of members
// holding it. Each member keeps its own graph node — windows, distance
// bounds, rule indexes and pseudo events — and its own consumption: it
// scans only entries carrying its bit, checks its own deadline and
// admissibility, and consumption, the recent context's slot clear and an
// anchored pseudo's removal clear only its bit. Expiry frees entries at
// the family's widest deadline. A node with no siblings is a family of
// one. Sharing is invisible to every rule: each rule's matches equal
// those of the rule run alone.
//
// Instances pair under a configurable parameter context (chronicle by
// default, §4.2); shared variables across constituents must unify
// (equality joins).

#ifndef RFIDCEP_ENGINE_DETECTOR_H_
#define RFIDCEP_ENGINE_DETECTOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/strings.h"
#include "engine/context.h"
#include "engine/graph.h"
#include "engine/join_buffer.h"
#include "engine/rule_index.h"
#include "events/binding.h"
#include "events/event_instance.h"
#include "events/event_type.h"

namespace rfidcep::engine {

class TraceSink;

namespace snapshot {
struct DetectorSnapshot;
struct RestorePlan;
}  // namespace snapshot

// Registry instrument handles for one detector. The engine resolves
// these from its MetricsRegistry at compile time; a null
// DetectorOptions::instruments disables every update site with a single
// branch. Individual fields may also be null (the engine-global
// acceptance counters are the owner's to wire).
struct DetectorInstruments {
  common::Counter* observations = nullptr;
  common::Counter* out_of_order_dropped = nullptr;
  common::Counter* primitive_matches = nullptr;
  common::Counter* instances_produced = nullptr;
  common::Counter* rule_matches = nullptr;
  common::Counter* pseudo_scheduled = nullptr;
  common::Counter* pseudo_fired = nullptr;
  common::Gauge* pseudo_queue_depth = nullptr;
  common::Gauge* pseudo_queue_peak = nullptr;
  // Event-time lag between a pseudo event's scheduled execution time and
  // the clock when it actually fired (0 when fired exactly on time by the
  // stream; positive when a later observation or AdvanceTo drove it).
  common::Histogram* pseudo_lag_us = nullptr;
  // Observations dispatched through the full-scan fallback (the rule
  // set's leaves constrain neither reader, group, nor pushed type, so
  // indexed dispatch degenerates to visiting every leaf).
  common::Counter* dispatch_fullscan = nullptr;
  // Instances emitted per graph node, indexed by node id (all non-null
  // when the vector is sized; empty disables per-node counting).
  std::vector<common::Counter*> node_firings;
};

struct DetectorOptions {
  ParameterContext context = ParameterContext::kChronicle;
  // If true, observations older than the clock are counted and dropped;
  // if false they fail with kInvalidArgument.
  bool tolerate_out_of_order = false;
  // Test hook: map every complete join key onto one constant chain so
  // distinct join-value tuples always "collide". Detection results must
  // be identical (chain scans re-check unification); only performance
  // degrades. Never enable outside tests.
  bool debug_force_join_collisions = false;
  // Observability wiring, set by the engine. Both may be null (the
  // default): the disabled path is a branch on a null pointer at each
  // update site. `instruments` must outlive the detector.
  const DetectorInstruments* instruments = nullptr;
  TraceSink* trace = nullptr;
};

struct DetectorStats {
  uint64_t observations = 0;           // Observations accepted.
  uint64_t out_of_order_dropped = 0;
  uint64_t primitive_matches = 0;      // (observation, leaf-node) matches.
  uint64_t instances_produced = 0;     // Complex instances emitted.
  uint64_t pseudo_scheduled = 0;
  uint64_t pseudo_fired = 0;
  uint64_t rule_matches = 0;           // Root completions reported.
};

// Resolves the detector's instrument set (label `shard="0"`, kept so
// exported series names stay stable; one per-node firing counter per
// graph node) from `registry`. The global acceptance counters
// (observations / out_of_order_dropped) are left null for the owner to
// wire.
DetectorInstruments MakeDetectorInstruments(common::MetricsRegistry* registry,
                                            const EventGraph& graph);

// Called when rule `rule_index`'s event completes with `instance`.
using RuleMatchCallback =
    std::function<void(size_t rule_index,
                       const events::EventInstancePtr& instance)>;

class Detector {
 public:
  // `graph` and `env` must outlive the detector.
  Detector(const EventGraph* graph, const events::Environment* env,
           DetectorOptions options, RuleMatchCallback on_match);

  Detector(const Detector&) = delete;
  Detector& operator=(const Detector&) = delete;

  // Feeds one observation. Timestamps must be non-decreasing (see
  // DetectorOptions::tolerate_out_of_order). Pseudo events scheduled
  // strictly before the observation's timestamp fire first.
  Status Process(const events::Observation& obs);

  // Fires all pseudo events with execution time strictly before `t` and
  // advances the clock to `t` (no-op if `t` is in the past). Pseudos at
  // exactly `t` stay pending — identical to Process(obs@t), so
  // AdvanceTo(t); Process(obs@t) is equivalent to Process(obs@t): an
  // observation at the boundary instant is handled before the expiry it
  // coincides with (closed NOT windows, closed SEQ+ distance bounds).
  void AdvanceTo(TimePoint t);

  // Fires every remaining pseudo event (end of stream).
  void Flush();

  TimePoint clock() const { return clock_; }
  const DetectorStats& stats() const { return stats_; }

  // Buffered entries in memory: every physical slot, NOT-log and open run
  // entry counted once, however many family members hold it (the memory
  // figure; tests and benchmarks: bounded memory under expiry GC).
  size_t TotalBufferedEntries() const;

  // Instances produced by graph node `node_id` so far.
  uint64_t ProducedAt(int node_id) const {
    return produced_per_node_[node_id];
  }
  // Entries graph node `node_id` holds: its view of its family's slot
  // buffers or NOT log (the entries carrying its bit), plus its open run's
  // elements. Entries shared by several members count at each of them.
  size_t BufferedAt(int node_id) const;
  // The lowest node id of `node_id`'s window family when the family has
  // other members (DebugReport's `family=#<rep>`), else -1.
  int FamilyRep(int node_id) const;
  // Pseudo events currently pending in the queue.
  size_t PendingPseudoEvents() const { return pseudo_queue_.size(); }

  // Observations dispatched through the full-scan fallback (see
  // DetectorInstruments::dispatch_fullscan); 0 when the rule set has
  // subscribable vocabulary.
  uint64_t FullscanObservations() const { return fullscan_observations_; }

  // Reader dispatch records kept (see ReaderRecord); never more than the
  // reader registry holds.
  size_t ReaderRecords() const { return reader_records_.size(); }

  // --- Checkpoint/restore (engine/snapshot.h) -----------------------------
  // Captures this detector's runtime state into `out`. `state_keys` is
  // EventGraph::NodeStateKeys for this detector's graph (one key per
  // node). The caller must have advanced the detector to the capture
  // clock first (see snapshot.h): entries already past their deadline are
  // skipped, pending pseudo events all execute at or after the clock.
  void SaveState(const std::vector<std::string>& state_keys,
                 snapshot::DetectorSnapshot* out) const;
  // Replaces this detector's runtime state with `plan` (built by
  // snapshot::BuildRestorePlan against this detector's graph) and
  // installs `stats`. Join keys, expiry records, and SEQ+ run bindings
  // are recomputed; anchors re-key via their restored instances.
  Status RestoreState(const snapshot::RestorePlan& plan,
                      const DetectorStats& stats);

 private:
  // A precomputed 64-bit equality-join key (see binding.h's
  // ComputeJoinKey). Computed once per (node, instance) at emit/arrival
  // time and carried alongside the instance — never rebuilt per probe,
  // and never materialized as a string.
  struct JoinKey {
    uint64_t hash = events::kWildcardJoinKey;
    bool complete = false;  // False: some join variable was unbound.
  };

  struct Run {
    std::vector<events::EventInstancePtr> elements;
    events::Bindings bindings;  // Multi-valued union of element bindings.
    TimePoint t_begin = 0;
    TimePoint t_end = 0;
  };

  // Slot buffers and NOT logs chain instances by their hashed join key.
  // Entries missing a join variable go on the wildcard chain
  // (kWildcardJoinKey), which every complete-key lookup also scans; an
  // incomplete lookup scans every chain. Distinct join tuples may share a
  // chain (hash collision); scans re-check unification, so collisions
  // cost time, not correctness. A member's deadline for a slot entry is
  // SlotDeadline under its own bounds, for a NOT-log entry t_end plus its
  // retention; NOT scans filter by window only.
  struct Family {
    JoinBuffer buffers[2];  // AND: both slots; SEQ: slot 0; NOT: the log.
    int rep = -1;           // Lowest member node id.
    int size = 0;           // Members, at most 64.
    // Widest member bounds: the buffers expire entries at the latest
    // deadline any member gives them.
    Duration within = 0;
    Duration dist_hi = 0;
    Duration retention = 0;
    // Join key of the last instance routed to a member (by sequence
    // number), so each instance is hashed once per family.
    uint64_t keyed_seq = 0;
    JoinKey key;
  };
  struct NodeState {
    int family = -1;                 // AND / SEQ / NOT only.
    JoinBuffer::Members member = 0;  // This node's bit in its family.
    std::vector<Run> open_runs;      // SEQ+ only (<=1 open).
  };

  struct PseudoEvent {
    TimePoint execute_at;  // te
    TimePoint created_at;  // tc
    int target_node;       // Node queried (NOT node or the SEQ+ itself).
    int parent_node;       // Node acting on the result.
    uint64_t anchor_seq;   // Buffered anchor instance (0 = none).
    uint64_t anchor_key;   // Join key of the anchor's chain.
    uint64_t order;        // FIFO tie-break.
  };
  struct PseudoLater {
    bool operator()(const PseudoEvent& a, const PseudoEvent& b) const {
      if (a.execute_at != b.execute_at) return a.execute_at > b.execute_at;
      return a.order > b.order;
    }
  };

  // What dispatch needs of one reader, resolved once. A registered
  // reader's record is built when the reader is first seen and kept until
  // the registry's generation moves; an unregistered reader's is built for
  // its one observation and dropped, so records are bounded by the
  // registry, not by the stream.
  struct ReaderRecord {
    // The reader EPC every binding and primitive instance shares. An
    // unregistered reader's is made when its first leaf matches.
    events::SharedText reader;
    // `<reader_var>_location`: the registered location, else empty.
    events::SharedText location;
    // group(r): aliases the registry, or the observation's reader text
    // when unregistered (the paper's default).
    std::string_view group;
    // index_'s buckets for the reader literal and, when the group differs
    // from the reader, for the group; null when absent.
    const PrimitiveIndex::Bucket* reader_bucket = nullptr;
    const PrimitiveIndex::Bucket* group_bucket = nullptr;
  };

  // The record for `reader`: the kept one, a newly kept one when the
  // reader is registered, else `scratch` filled in for this observation.
  ReaderRecord& RecordFor(std::string_view reader, ReaderRecord* scratch);
  // Sets `record`'s group to `group` and looks up its buckets.
  void ResolveBuckets(std::string_view reader, std::string_view group,
                      ReaderRecord* record) const;

  // --- Routing ------------------------------------------------------------
  void Emit(int node_id, events::EventInstancePtr instance);
  void RouteToParent(int parent_id, int child_id,
                     const events::EventInstancePtr& instance);
  // Binary arrivals take the instance's join key under the target node,
  // computed once by RouteToParent.
  void AndArrival(int node_id, int slot, const events::EventInstancePtr& e,
                  JoinKey key);
  void SeqTerminatorArrival(int node_id, const events::EventInstancePtr& e2,
                            JoinKey key);
  void SeqInitiatorArrival(int node_id, const events::EventInstancePtr& e1,
                           JoinKey key);
  void SeqPlusArrival(int node_id, const events::EventInstancePtr& e);

  // Closes expired/forced SEQ+ runs and emits them. `force` closes the
  // open run regardless of expiry (terminator-driven closure).
  // Closes the open run if forced or expired. include_now controls whether
  // a run expiring exactly at clock_ counts as expired: true only on the
  // pseudo-event path, which fires strictly after the expiry has passed.
  void MaterializeSeqPlus(int node_id, bool force, bool include_now);
  void CloseRun(int node_id, Run run);

  // --- Slot buffers --------------------------------------------------------
  // Groups the graph's AND/SEQ/NOT nodes into window families.
  void BuildFamilies();
  // Hashed join key of `bindings` under the node's join variables;
  // wildcard (incomplete) when a variable is unbound.
  JoinKey KeyFor(int node_id, const events::Bindings& bindings) const;
  // KeyFor(node_id, e.bindings()), computed once per (instance, family).
  JoinKey FamilyKey(int node_id, const events::EventInstance& e);
  // Buffers `e` in `slot` of the node's family for this node.
  void BufferInsert(int node_id, int slot, events::EventInstancePtr e,
                    JoinKey key);

  // --- Pairing ------------------------------------------------------------
  // Pairs `incoming` (whose join key under this node is `key`) against the
  // opposite slot buffer per the parameter context. Returns true if at
  // least one pair was produced.
  bool PairBinary(int node_id, int incoming_slot,
                  const events::EventInstancePtr& incoming, JoinKey key);
  void ProducePair(int node_id, const events::EventInstancePtr& initiator,
                   const events::EventInstancePtr& terminator);

  // --- NOT queries ------------------------------------------------------------
  bool NotHasOccurrence(int not_node_id, const events::Bindings& probe,
                        TimePoint from, TimePoint to, bool include_from,
                        bool include_to);
  void NotLogInsert(int not_node_id, const events::EventInstancePtr& e);

  // --- Pseudo events ------------------------------------------------------------
  void SchedulePseudo(TimePoint execute_at, TimePoint created_at,
                      int target_node, int parent_node, uint64_t anchor_seq,
                      uint64_t anchor_key);
  void FirePseudo(const PseudoEvent& pe);
  void FirePseudosBefore(TimePoint t);  // execute_at < t.

  // --- Helpers -------------------------------------------------------------------
  uint64_t NextSeq() { return ++sequence_counter_; }

  const EventGraph* graph_;
  const events::Environment* env_;
  DetectorOptions options_;
  RuleMatchCallback on_match_;

  std::vector<NodeState> states_;
  std::vector<Family> families_;
  std::vector<uint64_t> produced_per_node_;
  std::vector<bool> seqplus_self_;  // Precomputed self-closure flags.
  PrimitiveIndex index_;  // Primitive dispatch (engine/rule_index.h).
  uint64_t fullscan_observations_ = 0;
  // Registered readers seen so far, as of registry generation
  // `records_generation_`.
  StringViewMap<ReaderRecord> reader_records_;
  uint64_t records_generation_ = 0;

  std::priority_queue<PseudoEvent, std::vector<PseudoEvent>, PseudoLater>
      pseudo_queue_;
  TimePoint clock_ = 0;
  uint64_t sequence_counter_ = 0;
  uint64_t pseudo_counter_ = 0;
  DetectorStats stats_;
};

}  // namespace rfidcep::engine

#endif  // RFIDCEP_ENGINE_DETECTOR_H_
