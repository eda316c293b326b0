// Checkpoint/restore for detector state (versioned binary format).
//
// A snapshot captures everything the RCEDA runtime accumulates on a
// stream: slot buffers with expiry deadlines, NOT logs, SEQ+ open runs,
// the pending pseudo-event queue, chronicle pairing state (the buffered
// initiator/terminator instances and their consumption status ARE that
// state), synth/inst sequence counters, engine statistics, fired counts,
// and the metric counter values. Since version 2 it also anchors action
// *effects*: the firing sequence counter, the store-WAL LSN at capture,
// and a pending-action list (always empty from today's engine, which
// executes actions before the call that fired them returns) — together
// with the WAL itself this makes SQL effects exactly-once across a crash
// (see docs/recovery.md "Exactly-once effects"). Store rows are still not in
// the snapshot; they are reconstructed by replaying the WAL.
//
// Snapshots are taken at a single logical instant: the engine advances
// every detector to the engine clock before capturing (firing — and
// delivering — any expirations scheduled strictly before it), so all
// captured detectors agree on the clock and every pending pseudo event
// executes at or after it. Per-node state is identified by a
// graph-independent state key (EventGraph::NodeStateKeys), so a snapshot
// restores onto any graph compiled from the same rule set. Engines write
// one source. Older sharded builds wrote checkpoints this build still
// restores: a data-partitioned capture was merged to one source at
// capture time (`source_shards` > 1), and an older rule-sharded layout
// wrote one source per shard. Several sources merge onto the one
// detector: per-source pseudo queues merge by a greedy topological pass
// that preserves every source's relative order (sources hosting the same
// node pend identical pseudo subsequences, so duplicates collapse
// exactly).
//
// Portability: symbol ids and join-key hashes are process-local, so
// records carry variable NAMES and anchor positions; join keys and
// pseudo anchors are recomputed against the restoring process's symbol
// table. A snapshot is validated against a rule-set fingerprint (rule
// ids + propagated rule-event keys + parameter context) before it is
// loaded.

#ifndef RFIDCEP_ENGINE_SNAPSHOT_H_
#define RFIDCEP_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "engine/context.h"
#include "engine/detector.h"
#include "engine/engine.h"
#include "engine/graph.h"
#include "events/binding.h"
#include "events/event_instance.h"
#include "events/observation.h"
#include "rules/rule.h"
#include "store/sql_executor.h"

namespace rfidcep::engine::snapshot {

// Version 2 appends the durable-action section (durable_lsn,
// pending_actions) after the sources. Version 1 snapshots still decode:
// the section defaults to empty.
inline constexpr uint32_t kSnapshotVersion = 2;
inline constexpr uint32_t kMinSnapshotVersion = 1;
inline constexpr std::string_view kSnapshotMagic = "RCEDSNAP";

// One buffered event instance. Children precede parents in the instance
// table, so decoding is a single forward pass. Bindings are stored by
// variable name (symbol ids do not survive the process boundary).
struct InstanceRecord {
  bool is_primitive = false;
  events::Observation observation;   // Primitive only.
  TimePoint t_begin = 0;             // Complex only (primitives derive
  TimePoint t_end = 0;               // their span from the observation).
  uint64_t sequence_number = 0;      // Source-local synth/inst sequence.
  std::vector<std::pair<std::string, events::BindingValue>> scalars;
  std::vector<std::pair<std::string, std::vector<events::BindingValue>>>
      multis;
  std::vector<uint32_t> children;    // Indexes into the instance table.
};

struct SlotEntryRecord {
  uint32_t instance = 0;  // Index into the instance table.
  TimePoint deadline = 0;
};

struct RunRecord {
  std::vector<uint32_t> elements;  // Instance table indexes, run order.
  TimePoint t_begin = 0;
  TimePoint t_end = 0;
};

// Runtime state of one graph node, identified by its graph-independent
// state key. Slot/NOT entries are serialized live-only (deadline at or
// after the capture clock) and in sequence-number order — that order is
// the arrival order, so restoring it verbatim reproduces the original
// bucket and expiry-deque ordering.
struct NodeStateRecord {
  std::string state_key;
  Duration retention = 0;  // Source-graph retention (NOT-log source choice).
  uint64_t produced = 0;
  std::vector<SlotEntryRecord> slots[2];
  std::vector<uint32_t> not_log;
  std::vector<RunRecord> runs;
};

// How a pseudo event's buffered anchor instance is recorded. Positions
// index the parent's serialized slot entries — stable across sources
// because capture happens at one clock, so every source hosting the node
// serializes the same live entries in the same order.
enum class AnchorKind : uint8_t {
  kNone = 0,   // No anchor (SEQ+ self-expiry pseudos).
  kLive = 1,   // Anchor found buffered at capture: (slot, position).
  kStale = 2,  // Anchor already consumed/pruned; fires as a no-op.
};

struct PseudoRecord {
  TimePoint execute_at = 0;
  TimePoint created_at = 0;
  std::string target_key;  // State key of the queried node.
  std::string parent_key;  // State key of the node acting on the result.
  AnchorKind anchor_kind = AnchorKind::kNone;
  uint8_t anchor_slot = 0;
  uint32_t anchor_pos = 0;
};

// One source detector (the engine's detector, or one shard of an older
// rule-sharded layout).
struct DetectorSnapshot {
  int source_id = 0;
  TimePoint clock = 0;  // Equals the engine clock (capture invariant).
  uint64_t sequence_counter = 0;
  uint64_t pseudo_counter = 0;
  DetectorStats stats;
  std::vector<InstanceRecord> instances;
  std::vector<NodeStateRecord> nodes;
  std::vector<PseudoRecord> pseudos;  // Queue order: (execute_at, order).
};

struct EngineSnapshot {
  uint32_t version = kSnapshotVersion;
  uint64_t fingerprint = 0;
  uint8_t context = 0;  // ParameterContext, fingerprinted too.
  bool flushed = false;
  TimePoint clock = 0;  // Engine clock at capture (out-of-order gate).
  uint64_t trace_obs_seq = 0;
  EngineStats stats;
  // Fired count per rule id (rule-id keyed: survives re-indexing).
  std::vector<std::pair<std::string, uint64_t>> fired;
  // Counter dump from the metrics registry (restored after Reset();
  // verbatim from a serial capture, see RcedaEngine::RestoreState).
  std::vector<std::pair<std::string, uint64_t>> counters;
  // Detection workers of the capturing engine: 1 from this build, more
  // from a checkpoint an older sharded build wrote.
  int source_shards = 1;
  std::vector<DetectorSnapshot> sources;

  // --- Version 2: durable actions -------------------------------------------
  // A firing whose actions had not been confirmed (executed + WAL-flushed)
  // at capture; only older builds, which ran actions on a worker thread,
  // wrote any. Restore replays these inline, deduplicated against the
  // recovered WAL, before reprocessing the stream suffix.
  struct PendingActionRecord {
    std::string rule_id;
    uint64_t seq = 0;        // The firing's per-rule sequence number.
    TimePoint fire_time = 0;
    std::vector<std::pair<std::string, store::ParamValue>> params;
  };
  uint64_t durable_lsn = 0;  // WAL LSN at capture (0 = no WAL).
  std::vector<PendingActionRecord> pending_actions;
};

// FNV-1a over the parameter context, rule count, and each rule's (id,
// interval-propagated event key) in rule-index order: two engines with
// equal fingerprints compile graphs with identical node state-key
// vocabularies. The key comes from the rule, not from the graph, so how
// the compiler shares nodes never changes a fingerprint: a rule rooted at
// WITHIN(observation(...), w) keeps the key of the window-stamped leaf
// that older builds compiled it to.
uint64_t ComputeFingerprint(ParameterContext context,
                            const std::vector<rules::Rule>& rules);

// Binary little-endian encoding. Encoding is deterministic: re-encoding
// a decoded snapshot, or re-capturing a freshly restored engine of the
// same layout, is byte-identical.
std::string EncodeEngineSnapshot(const EngineSnapshot& snap);
// Bounds-checked decode. Fails with kFailedPrecondition on a bad magic
// or unsupported version (the explicit format gate), kInvalidArgument on
// truncation or malformed records.
Status DecodeEngineSnapshot(std::string_view bytes, EngineSnapshot* out);

// --- Restore planning -------------------------------------------------------
// A fully resolved restore plan for ONE target detector: node ids are
// target-graph ids, instances are live objects (decoded per target, so
// detectors never share them), anchors are resolved to instances. The
// detector recomputes join keys, expiry records, and run bindings.
struct RestoredRun {
  std::vector<events::EventInstancePtr> elements;
  TimePoint t_begin = 0;
  TimePoint t_end = 0;
};

struct RestoredNode {
  int node_id = -1;
  uint64_t produced = 0;
  std::vector<std::pair<events::EventInstancePtr, TimePoint>> slots[2];
  std::vector<events::EventInstancePtr> not_log;
  std::vector<RestoredRun> runs;
};

struct RestoredPseudo {
  TimePoint execute_at = 0;
  TimePoint created_at = 0;
  int target_node = -1;
  int parent_node = -1;
  events::EventInstancePtr anchor;  // Null: no anchor / stale (no-op).
  uint64_t order = 0;               // Merged queue order (dense, global).
};

struct RestorePlan {
  TimePoint clock = 0;
  uint64_t sequence_counter = 0;  // Max over sources: new instances sort
                                  // after every restored one.
  uint64_t pseudo_counter = 0;    // Merged queue length.
  std::vector<RestoredNode> nodes;
  std::vector<RestoredPseudo> pseudos;
};

// Builds the plan for a target detector whose graph has per-node state
// keys `target_keys` (EventGraph::NodeStateKeys order). Nodes hosted by
// several sources restore from the max-retention source (ties: lowest
// source id) — retention is the only parent-dependent state dimension,
// and the max-retention log is a superset whose extra entries no live
// window query can see. Pseudo orders are assigned by the merge of
// every source's queue.
//
// `target_aliases` (EventGraph::NodeStateAliases, may be empty) lets
// snapshots written before SEQ+ prefix sharing restore: a target key
// with no exact match in the snapshot but a non-empty alias <K> restores
// from the smallest source key ending in "|<K>" that itself matches no
// target exactly, collapsing the per-rule private copies of a
// share-eligible SEQ+ node (identical trajectories) onto the one shared
// node. Exact matches always win, so same-layout restores are
// unaffected.
Result<RestorePlan> BuildRestorePlan(
    const EngineSnapshot& snap, const std::vector<std::string>& target_keys,
    const std::vector<std::string>& target_aliases = {});

}  // namespace rfidcep::engine::snapshot

#endif  // RFIDCEP_ENGINE_SNAPSHOT_H_
