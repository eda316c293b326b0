// Sharded parallel detection by data partitioning (key partitioning in
// the style of SASE). Rules whose joins all correlate on one tag EPC (or
// one reader site) — the paper's common case — are compiled into one
// merged graph REPLICATED across N keyed workers, and each observation is
// routed to exactly ONE replica by hash(partition key). Rules that
// correlate across objects share one residual worker, which receives
// every observation its subscription vocabulary can consume. Each worker
// owns its own EventGraph, Detector, and pseudo-event queue.
//
// Data flow per batch (coordinator = the thread calling ProcessBatch):
//
//   1. *Route.* Each observation is stamped with a global command
//      sequence number and staged (by pointer — the batch outlives the
//      barrier) for its keyed replica and, if its vocabulary matches, the
//      residual worker. Each worker's whole share then rides in ONE
//      kObsBatch slot of its bounded SPSC inbox ring, so ring traffic is
//      per batch, not per event. A full inbox applies backpressure: the
//      coordinator drains match outboxes and yields until space frees up.
//   2. *Detect.* Each worker runs its share through its Detector exactly
//      as the serial engine would, then advances to the coordinator clock
//      — so pseudo events fire on time even on workers the batch never
//      touched. Rule completions are pushed to the worker's outbox ring
//      with a replay key (see MatchRecord).
//   3. *Merge + replay.* After a barrier (every worker acknowledged every
//      command of the batch), the coordinator K-way merges the presorted
//      per-worker runs by replay key and replays them through the match
//      sink. Condition evaluation, SQL and procedure actions against the
//      single store::Database, and fired counts therefore run on one
//      thread, and per rule in exactly the serial order.
//
// Correctness of the partition: a keyed rule's every join, NOT-window
// probe, and chronicle pairing unifies on the partition variable, so the
// state an observation touches is a function of its key alone
// (EventGraph::ClassifyRulePartition); SEQ+ rules, whose open runs span
// keys, are never keyed, and neither are rules whose recent-context slot
// clear spans keys (a binary node with no negated side). Duplicated subgraphs across workers mean
// aggregate counters like primitive_matches and instances_produced may
// exceed the serial counts.

#ifndef RFIDCEP_ENGINE_SHARDED_ENGINE_H_
#define RFIDCEP_ENGINE_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/spsc_ring.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/worker.h"
#include "engine/detector.h"
#include "engine/graph.h"
#include "events/event_instance.h"
#include "events/event_type.h"
#include "events/observation.h"
#include "rules/rule.h"

namespace rfidcep::engine {

namespace snapshot {
struct EngineSnapshot;
}  // namespace snapshot

// Matches are replayed on the coordinator thread in canonical order.
// `fire_time` is the shard detector's clock at completion time (equal to
// the serial detector's clock at the same completion).
using ShardedMatchSink =
    std::function<void(size_t rule_index,
                       const events::EventInstancePtr& instance,
                       TimePoint fire_time)>;

struct ShardedOptions {
  // Keyed replicas, clamped to [1, kMaxDetectionShards].
  int shards = 2;
  DetectorOptions detector;
  // Observability wiring (both may be null). With a registry, every
  // shard gets its own labeled instrument set plus coordinator-side
  // routing counters and ring high watermarks; the registry must outlive
  // the detector. The trace sink is shared by all workers (internally
  // synchronized).
  common::MetricsRegistry* metrics = nullptr;
  TraceSink* trace = nullptr;
};

inline constexpr int kMaxDetectionShards = 32;
// Per-shard inbox/outbox ring capacity.
inline constexpr size_t kShardQueueCapacity = 1024;

class ShardedDetector {
 public:
  // Builds the partition, per-shard graphs, and worker threads.
  // `union_graph` is the merged graph over all rules (used to classify
  // them); `rules` and `env` must outlive the detector. Returns null when
  // no rule is key-partitionable: the caller then runs serial.
  static Result<std::unique_ptr<ShardedDetector>> Create(
      const std::vector<rules::Rule>& rules, const EventGraph& union_graph,
      const events::Environment* env, ShardedOptions options,
      ShardedMatchSink sink);

  ~ShardedDetector();

  ShardedDetector(const ShardedDetector&) = delete;
  ShardedDetector& operator=(const ShardedDetector&) = delete;

  // Routes `count` observations, waits for every shard to finish them,
  // and replays the resulting matches in canonical order. Timestamps
  // must be non-decreasing across calls (DetectorOptions semantics).
  Status ProcessBatch(const events::Observation* batch, size_t count);

  // Fires pseudo events with execute time <= t on every shard.
  void AdvanceTo(TimePoint t);
  // Fires every remaining pseudo event on every shard.
  void Flush();
  // Rebuilds every shard's detector in place: buffered partial matches,
  // pseudo queues, statistics, and the clock are cleared; workers stay up.
  void Reset();

  // Aggregated statistics. `observations` / `out_of_order_dropped` are
  // counted once at the routing stage; `rule_matches` sums to exactly
  // the serial count (each key's matches come from one replica); the
  // remaining counters sum over shards and may exceed serial counts
  // where subgraphs are duplicated. Callers must be quiescent (any public
  // method has returned), which every entry point guarantees by
  // barriering before it returns.
  DetectorStats stats() const;

  TimePoint clock() const;
  size_t TotalBufferedEntries() const;
  size_t PendingPseudoEvents() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  // Per-shard sections: shard id, hosted rules, clock, ring depths,
  // buffered entries, and one line per graph node.
  std::string DebugReport(const std::vector<rules::Rule>& rules) const;

  // --- Checkpoint/restore (engine/snapshot.h) -----------------------------
  // Captures every shard detector and merges them into ONE
  // serial-equivalent source in `out` (snapshot::MergeShardSnapshots).
  // The caller must have advanced the pipeline to one clock
  // (AdvanceTo(clock())) first; every public entry point barriers before
  // returning, so the workers are quiescent here.
  void CaptureState(const std::vector<rules::Rule>& rules,
                    snapshot::EngineSnapshot* out) const;
  // Restores shard detectors from `snap`, re-partitioning node state and
  // merging pseudo queues onto this pipeline's shard layout (the snapshot
  // may come from a serial engine or any shard count). The coordinator
  // clock and acceptance counters are restored; the snapshot's aggregate
  // detector stats become a baseline added into stats(), since per-shard
  // stats cannot be re-partitioned.
  Status RestoreState(const std::vector<rules::Rule>& rules,
                      const snapshot::EngineSnapshot& snap);

 private:
  struct Command {
    enum class Kind : uint8_t {
      kObsBatch,   // A batch of routed observations in one ring slot.
      kAdvanceTo,
      kFlush,
      kReset,
      kBarrier,
      kStop,
    };
    Kind kind = Kind::kBarrier;
    // Global command sequence: kAdvanceTo / kFlush, and a kObsBatch's
    // closing advance.
    uint64_t seq = 0;
    TimePoint t = 0;  // kAdvanceTo / batch advance.
    // kObsBatch: (command seq, observation) pairs, routed per shard by
    // the coordinator; pointers are valid until the barrier. One ring
    // slot carries the shard's whole share of a ProcessBatch call, so
    // ring traffic is per batch, not per event.
    std::vector<std::pair<uint64_t, const events::Observation*>> batch;
    // kObsBatch: after the batch, advance the detector to `t` under
    // command `seq`. This is the per-batch clock sync that makes every
    // barrier deliver exactly the serial match prefix (all pseudo events
    // scheduled strictly before the coordinator clock have fired on
    // their owning worker).
    bool advance_after = false;
  };

  struct MatchRecord {
    uint32_t local_rule = 0;
    TimePoint fire_time = 0;
    // Replay key: (sort_time, kind, stamp), ties to the lower shard id.
    //  * kind 0 = emitted during observation dispatch; sort_time is the
    //    observation timestamp and stamp is [command seq].
    //  * kind 1 = emitted during a pseudo-event firing; sort_time is the
    //    firing pseudo's execute_at and stamp its scheduling stamp
    //    (Detector::PseudoEvent::stamp).
    // For equal times, dispatch emissions sort before firings at that
    // instant — exactly the serial rule that an observation at `t` is
    // handled before expiries at `t`.
    uint8_t kind = 0;
    TimePoint sort_time = 0;
    std::vector<uint64_t> stamp;
    events::EventInstancePtr instance;
  };

  struct Shard {
    int id = 0;
    std::vector<size_t> rule_map;  // Local rule index -> global index.
    // A keyed replica owning partition bucket `id` (observations with
    // hash(key) % replicas == id); false for the residual worker.
    bool keyed = false;
    // Coordinator-side staging for the current ProcessBatch call; moved
    // into a kObsBatch command, one ring slot per shard per batch.
    std::vector<std::pair<uint64_t, const events::Observation*>> staged;
    // Drained match records, one presorted run per shard (each worker
    // emits in replay-key order), merged K-way at the barrier.
    std::vector<MatchRecord> pending;
    std::optional<EventGraph> graph;
    std::unique_ptr<Detector> detector;
    RuleMatchCallback on_local_match;  // Reused when kReset rebuilds.
    // Options the shard's detector is (re)built with: the base detector
    // options plus this shard's instruments / trace / shard id.
    DetectorOptions detector_options;
    DetectorInstruments instruments;  // Referenced by detector_options.
    // Coordinator-side instruments (null when metrics are disabled).
    common::Counter* routed = nullptr;          // Observations enqueued.
    common::Counter* enqueue_stalls = nullptr;  // Full-inbox backpressure.
    common::Counter* matches_drained = nullptr;
    common::Gauge* inbox_peak = nullptr;   // Ring depth high watermarks.
    common::Gauge* outbox_peak = nullptr;
    std::unique_ptr<common::SpscRing<Command>> inbox;
    std::unique_ptr<common::SpscRing<MatchRecord>> outbox;
    common::Doorbell work_bell;  // Coordinator -> worker.
    std::thread thread;
    // Worker-local bookkeeping (written only on the worker thread; the
    // coordinator reads it after a barrier acknowledgment).
    Status first_error;
  };

  ShardedDetector(const events::Environment* env, ShardedOptions options,
                  ShardedMatchSink sink);

  void WorkerMain(Shard* shard);
  void EmitLocalMatch(Shard* shard, size_t local_rule,
                      const events::EventInstancePtr& instance);

  // The subscription vocabulary of a graph (EventGraph::Subscription) as
  // a probe set: reader literals and group-constraint values.
  struct Vocabulary {
    StringViewMap<bool> reader_keys;
    bool any_reader = false;
    bool Consumes(std::string_view reader, std::string_view group) const;
  };

  // Blocking enqueue: drains outboxes and yields while `shard`'s inbox
  // is full, so workers can always make progress.
  void EnqueueBlocking(Shard* shard, Command command);
  // Enqueues a barrier on every shard, waits for all acknowledgments
  // while draining outboxes, then replays pending matches in canonical
  // order through the sink.
  void BarrierAndDeliver();
  void DrainOutboxes();

  const events::Environment* env_;
  ShardedOptions options_;
  ShardedMatchSink sink_;

  std::vector<std::unique_ptr<Shard>> shards_;
  bool object_dim_ = true;  // Partition by object (EPC) vs reader (site).
  int num_replicas_ = 0;    // Keyed replica shards are ids [0, num_replicas_).
  bool has_residual_ = false;  // Residual worker is shard id num_replicas_.
  // Subscription gates: an observation reaches its replica (the residual)
  // only if the replicated (residual) graph could consume it.
  Vocabulary keyed_vocab_;
  Vocabulary residual_vocab_;
  // Per-node partition variable symbols of the replica graph (identical
  // across replicas — same rule subset, deterministic build), used to
  // re-bucket restored state.
  std::vector<events::SymbolId> replica_partition_syms_;

  uint64_t command_seq_ = 0;
  TimePoint clock_ = 0;  // Last routed/advanced time (out-of-order gate).
  uint64_t observations_ = 0;
  uint64_t out_of_order_dropped_ = 0;
  uint64_t unrouted_ = 0;  // Observations no subscription consumed.
  // Pre-restore aggregate detector stats (observations fields zeroed —
  // the coordinator counts those itself). Added into stats(); cleared by
  // Reset().
  DetectorStats baseline_;

  // Engine-global acceptance counters, shared by name with the serial
  // path (null when metrics are disabled). Incremented once at routing.
  common::Counter* observations_counter_ = nullptr;
  common::Counter* out_of_order_counter_ = nullptr;
  common::Counter* unrouted_counter_ = nullptr;

  std::atomic<uint64_t> barrier_acks_{0};
  uint64_t barrier_target_ = 0;
  common::Doorbell ack_bell_;  // Workers -> coordinator.
};

}  // namespace rfidcep::engine

#endif  // RFIDCEP_ENGINE_SHARDED_ENGINE_H_
