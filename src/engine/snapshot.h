// Checkpoint/restore for detector state (versioned binary format).
//
// A snapshot captures what the RCEDA runtime accumulates on a stream:
// the one event graph's slot buffers, NOT logs and SEQ+ open runs, the
// pending pseudo-event queue and the instance sequence counter (the
// buffered initiator/terminator instances and their consumption status
// ARE the chronicle pairing state). Beside that state it carries every
// count the engine keeps as a fixed field (EngineStats, and each rule's
// matches and fired counts) and the store-WAL LSN at capture, which
// together with the WAL makes SQL effects exactly-once across a crash
// (see docs/recovery.md "Exactly-once effects"). Store rows are not in
// the snapshot; they are reconstructed by replaying the WAL.
//
// Snapshots are taken at a single logical instant: the engine advances
// the detector to the engine clock before capturing (firing — and
// delivering — any expirations scheduled strictly before it), so every
// pending pseudo event executes at or after the capture clock. Per-node
// state is identified by a graph-independent state key
// (EventGraph::NodeStateKeys), so a snapshot restores onto any graph
// compiled from the same rule set.
//
// Layouts: this build writes version 3 and reads versions 2 and 3. A
// version-2 file is read in the shape one-detector builds wrote it (one
// detector source, no pending action firings) and converted to the
// structures below. Other layouts are refused with kFailedPrecondition,
// naming the layout, before any engine state changes: version 1; a
// rule-sharded capture (one source per shard); a capture holding pending
// firings (actions then ran on a worker thread); and, at restore,
// detection state or a pseudo event under a state key the compiled graph
// lacks (as a capture from before SEQ+ prefix sharing holds).
//
// This file holds the byte format and the fingerprint only. The
// detector converts between its live state and DetectorSnapshot in both
// directions (Detector::SaveState / Detector::RestoreState), and a
// restore checks the decoded records against the compiled graph before
// it changes anything.
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
#include "engine/engine.h"
#include "events/binding.h"
#include "events/observation.h"
#include "rules/rule.h"

namespace rfidcep::engine::snapshot {

inline constexpr uint32_t kSnapshotVersion = 3;
inline constexpr uint32_t kMinSnapshotVersion = 2;
inline constexpr std::string_view kSnapshotMagic = "RCEDSNAP";

// One buffered event instance. Children precede parents in the instance
// table, so decoding is a single forward pass. Bindings are stored by
// variable name (symbol ids do not survive the process boundary).
struct InstanceRecord {
  bool is_primitive = false;
  events::Observation observation;   // Primitive only.
  TimePoint t_begin = 0;             // Complex only (primitives derive
  TimePoint t_end = 0;               // their span from the observation).
  uint64_t sequence_number = 0;      // The detector's synth/inst sequence.
  std::vector<std::pair<std::string, events::BindingValue>> scalars;
  std::vector<std::pair<std::string, std::vector<events::BindingValue>>>
      multis;
  std::vector<uint32_t> children;    // Indexes into the instance table.
};

struct RunRecord {
  std::vector<uint32_t> elements;  // Instance table indexes, run order.
  TimePoint t_begin = 0;
  TimePoint t_end = 0;
};

// Runtime state of one graph node, identified by its graph-independent
// state key. Slot/NOT entries (instance table indexes) are serialized
// live-only (deadline at or after the capture clock) and in
// sequence-number order — that order is the arrival order, so restoring
// it verbatim reproduces the original bucket and expiry-deque ordering;
// restore recomputes each deadline from the compiled graph.
struct NodeStateRecord {
  std::string state_key;
  uint64_t produced = 0;
  std::vector<uint32_t> slots[2];
  std::vector<uint32_t> not_log;
  std::vector<RunRecord> runs;
};

// How a pseudo event's buffered anchor instance is recorded. Positions
// index the parent's serialized slot entries.
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

// The detector's runtime state.
struct DetectorSnapshot {
  uint64_t sequence_counter = 0;
  std::vector<InstanceRecord> instances;
  std::vector<NodeStateRecord> nodes;
  std::vector<PseudoRecord> pseudos;  // Queue order: (execute_at, order).
};

// A rule's counts, keyed by rule id (survives re-indexing).
struct RuleCountRecord {
  std::string rule_id;
  uint64_t matches = 0;  // Matches delivered, before the condition.
  uint64_t fired = 0;    // Matches whose condition held.
};

struct EngineSnapshot {
  uint64_t fingerprint = 0;
  bool flushed = false;
  TimePoint clock = 0;  // Engine clock at capture (out-of-order gate).
  uint64_t trace_obs_seq = 0;
  uint64_t durable_lsn = 0;  // WAL LSN at capture (0 = no WAL).
  EngineStats stats;
  std::vector<RuleCountRecord> rules;
  DetectorSnapshot detector;
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

// Binary little-endian encoding of version 3 (docs/recovery.md "Binary
// format"). Encoding is deterministic: re-encoding a decoded snapshot, or
// re-capturing a freshly restored engine, is byte-identical.
std::string EncodeEngineSnapshot(const EngineSnapshot& snap);
// Bounds-checked decode (common/byte_codec.h) of version 3, or of a
// version-2 file in its one-source shape. Fails with kFailedPrecondition
// on a bad magic, a version this build does not read, and a retired
// version-2 layout (several detector sources, or pending action firings,
// refused on their counts); kInvalidArgument on truncation, malformed
// records, or a count that the remaining bytes could not hold at its
// element's minimum encoded size.
Status DecodeEngineSnapshot(std::string_view bytes, EngineSnapshot* out);

}  // namespace rfidcep::engine::snapshot

#endif  // RFIDCEP_ENGINE_SNAPSHOT_H_
