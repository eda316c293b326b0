#include "engine/sharded_engine.h"

#include <algorithm>
#include <string_view>
#include <variant>
#include <vector>

#include "engine/snapshot.h"
#include "engine/trace.h"
#include "events/binding.h"
#include "events/symbol.h"

namespace rfidcep::engine {

using events::EventInstancePtr;
using events::Observation;

namespace {

// FNV-1a over the partition key (object or reader EPC). The same hash
// routes live observations and re-buckets restored state, so a restore
// followed by more stream lands every key on the shard that already
// holds its partial matches.
uint64_t PartitionHash(std::string_view key) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Whether a restored instance belongs on keyed replica `bucket`. An
// instance without the partition binding (defensive: keyed graphs bind
// the key variable on every node) stays on replica 0 so it is restored
// exactly once.
bool KeepInBucket(const EventInstancePtr& instance, events::SymbolId sym,
                  uint32_t bucket, int replicas) {
  if (sym == events::kInvalidSymbol || instance == nullptr) return bucket == 0;
  const events::BindingValue* value = instance->bindings().FindScalar(sym);
  const events::SharedText* text =
      value != nullptr ? std::get_if<events::SharedText>(value) : nullptr;
  if (text == nullptr) return bucket == 0;
  return PartitionHash(text->view()) %
             static_cast<uint64_t>(replicas) ==
         bucket;
}

// Restricts a full restore plan (built for the replicated keyed graph)
// to the slice a single replica owns: slot entries, NOT-log entries, and
// pseudo anchors whose partition binding hashes to `bucket`. Anchorless
// pseudo events (stale no-ops) and per-node produced counts stay on
// replica 0 only, so aggregates are restored exactly once. Keyed graphs
// host no SEQ+ nodes (the classifier rejects them), so runs never need
// splitting.
void FilterPlanToBucket(snapshot::RestorePlan* plan,
                        const std::vector<events::SymbolId>& node_syms,
                        uint32_t bucket, int replicas) {
  auto sym_of = [&](int node_id) {
    return node_id >= 0 && static_cast<size_t>(node_id) < node_syms.size()
               ? node_syms[static_cast<size_t>(node_id)]
               : events::kInvalidSymbol;
  };
  for (snapshot::RestoredNode& node : plan->nodes) {
    events::SymbolId sym = sym_of(node.node_id);
    for (auto& slot : node.slots) {
      slot.erase(std::remove_if(
                     slot.begin(), slot.end(),
                     [&](const auto& entry) {
                       return !KeepInBucket(entry.first, sym, bucket, replicas);
                     }),
                 slot.end());
    }
    node.not_log.erase(
        std::remove_if(node.not_log.begin(), node.not_log.end(),
                       [&](const EventInstancePtr& instance) {
                         return !KeepInBucket(instance, sym, bucket, replicas);
                       }),
        node.not_log.end());
    if (bucket != 0) node.produced = 0;
  }
  plan->pseudos.erase(
      std::remove_if(plan->pseudos.begin(), plan->pseudos.end(),
                     [&](const snapshot::RestoredPseudo& pseudo) {
                       if (pseudo.anchor == nullptr) return bucket != 0;
                       return !KeepInBucket(pseudo.anchor,
                                            sym_of(pseudo.parent_node), bucket,
                                            replicas);
                     }),
      plan->pseudos.end());
}

// Whether rule `rule_index` has a binary node with no negated child.
// Under the recent context such a node keeps only the newest instance of
// a slot across every join key, so a keyed replica — which sees only its
// own partition — would keep a different newest instance than the serial
// detector.
bool ClearsSlotAcrossKeys(const EventGraph& graph, size_t rule_index) {
  std::vector<int> stack{graph.RuleRoot(rule_index)};
  std::vector<bool> seen(graph.num_nodes(), false);
  while (!stack.empty()) {
    int id = stack.back();
    stack.pop_back();
    if (seen[id]) continue;
    seen[id] = true;
    const GraphNode& node = graph.node(id);
    if (node.op == events::ExprOp::kAnd || node.op == events::ExprOp::kSeq) {
      bool negated = false;
      for (int child : node.children) {
        if (graph.node(child).op == events::ExprOp::kNot) negated = true;
      }
      if (!negated) return true;
    }
    for (int child : node.children) stack.push_back(child);
  }
  return false;
}

}  // namespace

ShardedDetector::ShardedDetector(const events::Environment* env,
                                 ShardedOptions options, ShardedMatchSink sink)
    : env_(env), options_(options), sink_(std::move(sink)) {}

Result<std::unique_ptr<ShardedDetector>> ShardedDetector::Create(
    const std::vector<rules::Rule>& rules, const EventGraph& union_graph,
    const events::Environment* env, ShardedOptions options,
    ShardedMatchSink sink) {
  // --- Partition --------------------------------------------------------
  // Key-partitionable rules are replicated across every keyed worker and
  // the stream is split by hash(partition key); everything else shares
  // one residual worker. Under the recent context, a rule whose slot
  // clear spans join keys is not partitionable (ClearsSlotAcrossKeys).
  std::vector<size_t> epc;
  std::vector<size_t> site;
  std::vector<size_t> residual;
  const bool recent = options.detector.context == ParameterContext::kRecent;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (recent && ClearsSlotAcrossKeys(union_graph, i)) {
      residual.push_back(i);
      continue;
    }
    switch (union_graph.ClassifyRulePartition(i).cls) {
      case EventGraph::RulePartitionClass::kEpcKeyed:
        epc.push_back(i);
        break;
      case EventGraph::RulePartitionClass::kSiteKeyed:
        site.push_back(i);
        break;
      case EventGraph::RulePartitionClass::kCrossObject:
        residual.push_back(i);
        break;
    }
  }
  // One partition dimension per pipeline: object wins when both appear
  // (the paper's joins predominantly correlate on the tag EPC); rules
  // keyed on the losing dimension run with the cross-object residual.
  const bool object_dim = !epc.empty();
  std::vector<size_t>& keyed = object_dim ? epc : site;
  if (keyed.empty()) return std::unique_ptr<ShardedDetector>();
  std::vector<size_t>& off_dim = object_dim ? site : epc;
  residual.insert(residual.end(), off_dim.begin(), off_dim.end());
  std::sort(residual.begin(), residual.end());

  int replicas = std::clamp(options.shards, 1, kMaxDetectionShards);
  auto sharded = std::unique_ptr<ShardedDetector>(
      new ShardedDetector(env, options, std::move(sink)));
  sharded->object_dim_ = object_dim;
  sharded->num_replicas_ = replicas;
  sharded->has_residual_ = !residual.empty();
  // assignment[s] is shard s's (sorted) global rule set; keyed replicas
  // come first, the residual (if any) last.
  std::vector<std::vector<size_t>> assignment(static_cast<size_t>(replicas),
                                              keyed);
  if (!residual.empty()) assignment.push_back(std::move(residual));

  for (size_t s = 0; s < assignment.size(); ++s) {
    auto shard = std::make_unique<Shard>();
    shard->id = static_cast<int>(s);
    shard->rule_map = assignment[s];
    shard->keyed = static_cast<int>(s) < replicas;
    std::vector<const rules::Rule*> local_rules;
    local_rules.reserve(shard->rule_map.size());
    for (size_t rule_index : shard->rule_map) {
      local_rules.push_back(&rules[rule_index]);
    }
    RFIDCEP_ASSIGN_OR_RETURN(EventGraph graph, EventGraph::Build(local_rules));
    shard->graph.emplace(std::move(graph));
    shard->inbox =
        std::make_unique<common::SpscRing<Command>>(kShardQueueCapacity);
    shard->outbox =
        std::make_unique<common::SpscRing<MatchRecord>>(kShardQueueCapacity);
    Shard* raw = shard.get();
    ShardedDetector* owner = sharded.get();
    shard->on_local_match = [owner, raw](size_t local_rule,
                                         const EventInstancePtr& instance) {
      owner->EmitLocalMatch(raw, local_rule, instance);
    };
    shard->detector_options = options.detector;
    shard->detector_options.shard_id = shard->id;
    shard->detector_options.trace = options.trace;
    if (options.metrics != nullptr) {
      const std::string label =
          "{shard=\"" + std::to_string(shard->id) + "\"}";
      shard->instruments =
          MakeDetectorInstruments(options.metrics, shard->id, *shard->graph);
      shard->detector_options.instruments = &shard->instruments;
      shard->routed =
          options.metrics->GetCounter("shard_routed_total" + label);
      shard->enqueue_stalls =
          options.metrics->GetCounter("shard_enqueue_stalls_total" + label);
      shard->matches_drained =
          options.metrics->GetCounter("shard_matches_total" + label);
      shard->inbox_peak = options.metrics->GetGauge("shard_inbox_peak" + label);
      shard->outbox_peak =
          options.metrics->GetGauge("shard_outbox_peak" + label);
    }
    shard->detector = std::make_unique<Detector>(
        &*shard->graph, env, shard->detector_options, shard->on_local_match);

    // Routing gates: the replicas share one vocabulary (and one set of
    // per-node partition variables), recorded once from replica 0; the
    // residual consumes observations hitting any of its leaves' reader
    // keys (probed by reader and by reader group, exactly like the
    // detector's primitive dispatch).
    if (s == 0 || !shard->keyed) {
      EventGraph::Subscription sub = shard->graph->ComputeSubscription();
      Vocabulary& vocab =
          shard->keyed ? sharded->keyed_vocab_ : sharded->residual_vocab_;
      for (const std::string& key : sub.reader_keys) {
        vocab.reader_keys[key] = true;
      }
      vocab.any_reader = sub.any_reader;
    }
    if (s == 0) {
      for (const std::string& var :
           shard->graph->NodePartitionVars(object_dim)) {
        sharded->replica_partition_syms_.push_back(
            var.empty() ? events::kInvalidSymbol
                        : events::SymbolTable::Global().Intern(var));
      }
    }
    sharded->shards_.push_back(std::move(shard));
  }
  if (options.metrics != nullptr) {
    // Same names the serial path registers: totals are comparable (and
    // reconcile with EngineStats) at any shard count.
    sharded->observations_counter_ =
        options.metrics->GetCounter("rfidcep_observations_total");
    sharded->out_of_order_counter_ =
        options.metrics->GetCounter("rfidcep_out_of_order_dropped_total");
    sharded->unrouted_counter_ =
        options.metrics->GetCounter("rfidcep_unrouted_observations_total");
  }
  for (std::unique_ptr<Shard>& shard : sharded->shards_) {
    Shard* raw = shard.get();
    shard->thread =
        std::thread([owner = sharded.get(), raw] { owner->WorkerMain(raw); });
  }
  return sharded;
}

ShardedDetector::~ShardedDetector() {
  for (std::unique_ptr<Shard>& shard : shards_) {
    if (!shard->thread.joinable()) continue;
    Command stop;
    stop.kind = Command::Kind::kStop;
    EnqueueBlocking(shard.get(), std::move(stop));
    shard->work_bell.Ring();
    shard->thread.join();
  }
}

// --- Worker side ------------------------------------------------------------

void ShardedDetector::WorkerMain(Shard* shard) {
  Command command;
  for (;;) {
    if (!shard->inbox->TryPop(&command)) {
      uint64_t seen = shard->work_bell.generation();
      if (!shard->inbox->TryPop(&command)) {
        shard->work_bell.WaitBeyondForever(seen);
        continue;
      }
    }
    switch (command.kind) {
      case Command::Kind::kObsBatch: {
        for (const auto& [seq, obs] : command.batch) {
          shard->detector->SetCommandSeq(seq);
          Status status = shard->detector->Process(*obs);
          if (!status.ok() && shard->first_error.ok()) {
            shard->first_error = status;
          }
        }
        if (command.advance_after) {
          // Per-batch clock sync: fire every pseudo event scheduled
          // strictly before the coordinator clock, so each barrier
          // delivers exactly the serial match prefix.
          shard->detector->SetCommandSeq(command.seq);
          shard->detector->AdvanceTo(command.t);
        }
        break;
      }
      case Command::Kind::kAdvanceTo:
        shard->detector->SetCommandSeq(command.seq);
        shard->detector->AdvanceTo(command.t);
        break;
      case Command::Kind::kFlush:
        shard->detector->SetCommandSeq(command.seq);
        shard->detector->Flush();
        break;
      case Command::Kind::kReset:
        shard->detector = std::make_unique<Detector>(
            &*shard->graph, env_, shard->detector_options,
            shard->on_local_match);
        shard->first_error = Status::Ok();
        break;
      case Command::Kind::kBarrier:
        barrier_acks_.fetch_add(1, std::memory_order_release);
        ack_bell_.Ring();
        break;
      case Command::Kind::kStop:
        return;
    }
  }
}

void ShardedDetector::EmitLocalMatch(Shard* shard, size_t local_rule,
                                     const EventInstancePtr& instance) {
  const Detector& detector = *shard->detector;
  MatchRecord record;
  record.local_rule = static_cast<uint32_t>(local_rule);
  record.fire_time = detector.clock();
  // Replay key (see MatchRecord): each shard emits these in nondecreasing
  // key order, so the barrier merge is a K-way merge of presorted runs.
  if (detector.in_pseudo_firing()) {
    record.kind = 1;
    record.sort_time = detector.firing_execute_at();
    record.stamp = detector.firing_stamp();
  } else {
    record.kind = 0;
    record.sort_time = detector.clock();
    record.stamp.assign(1, detector.command_seq());
  }
  record.instance = instance;
  while (!shard->outbox->TryPush(std::move(record))) {
    // Full outbox: the coordinator is either draining already or asleep
    // waiting for barrier acks — ring its bell so it drains.
    ack_bell_.Ring();
    std::this_thread::yield();
  }
  if (shard->outbox_peak != nullptr) {
    shard->outbox_peak->UpdateMax(static_cast<int64_t>(shard->outbox->size()));
  }
}

// --- Coordinator side -------------------------------------------------------

bool ShardedDetector::Vocabulary::Consumes(std::string_view reader,
                                           std::string_view group) const {
  return any_reader || reader_keys.find(reader) != reader_keys.end() ||
         (group != reader && reader_keys.find(group) != reader_keys.end());
}

void ShardedDetector::EnqueueBlocking(Shard* shard, Command command) {
  bool stalled = false;
  while (!shard->inbox->TryPush(std::move(command))) {
    if (!stalled && shard->enqueue_stalls != nullptr) {
      shard->enqueue_stalls->Increment();
      stalled = true;
    }
    shard->work_bell.Ring();  // Full inbox: make sure the worker is awake.
    DrainOutboxes();
    std::this_thread::yield();
  }
  if (shard->inbox_peak != nullptr) {
    shard->inbox_peak->UpdateMax(static_cast<int64_t>(shard->inbox->size()));
  }
}

void ShardedDetector::DrainOutboxes() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    size_t popped = shard->outbox->TryPopAll(&shard->pending);
    if (popped > 0 && shard->matches_drained != nullptr) {
      shard->matches_drained->Increment(popped);
    }
  }
}

void ShardedDetector::BarrierAndDeliver() {
  for (std::unique_ptr<Shard>& shard : shards_) {
    Command barrier;
    barrier.kind = Command::Kind::kBarrier;
    EnqueueBlocking(shard.get(), std::move(barrier));
    shard->work_bell.Ring();
  }
  barrier_target_ += shards_.size();
  for (;;) {
    DrainOutboxes();
    if (barrier_acks_.load(std::memory_order_acquire) >= barrier_target_) {
      break;
    }
    uint64_t seen = ack_bell_.generation();
    DrainOutboxes();
    if (barrier_acks_.load(std::memory_order_acquire) >= barrier_target_) {
      break;
    }
    ack_bell_.WaitBeyond(seen);
  }
  DrainOutboxes();

  // Reorder stage. Every shard's pending run is already sorted in replay
  // order (workers emit monotonically — detection walks the stream and
  // the pseudo queue in exactly this order), so the canonical order is a
  // K-way merge of presorted runs, not a global sort. The
  // serial-reconstructing (sort_time, kind, stamp) key (see MatchRecord)
  // is independent of worker scheduling and for each rule identical to
  // its serial firing order; the scan below breaks ties between runs
  // toward the lower shard id.
  auto before = [](const MatchRecord& a, const MatchRecord& b) {
    if (a.sort_time != b.sort_time) return a.sort_time < b.sort_time;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.stamp < b.stamp;
  };
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->pending.size();
  }
  std::vector<size_t> cursor(shards_.size(), 0);
  for (size_t delivered = 0; delivered < total; ++delivered) {
    size_t best = shards_.size();
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (cursor[s] >= shards_[s]->pending.size()) continue;
      if (best == shards_.size() ||
          before(shards_[s]->pending[cursor[s]],
                 shards_[best]->pending[cursor[best]])) {
        best = s;
      }
    }
    MatchRecord& record = shards_[best]->pending[cursor[best]++];
    sink_(shards_[best]->rule_map[record.local_rule], record.instance,
          record.fire_time);
  }
  for (std::unique_ptr<Shard>& shard : shards_) shard->pending.clear();
}

Status ShardedDetector::ProcessBatch(const Observation* batch, size_t count) {
  Status result = Status::Ok();
  for (std::unique_ptr<Shard>& shard : shards_) shard->staged.clear();
  bool accepted = false;
  for (size_t i = 0; i < count; ++i) {
    const Observation& obs = batch[i];
    if (obs.timestamp < clock_) {
      if (options_.detector.tolerate_out_of_order) {
        ++out_of_order_dropped_;
        if (out_of_order_counter_ != nullptr) {
          out_of_order_counter_->Increment();
        }
        continue;
      }
      result = Status::InvalidArgument(
          "out-of-order observation at " + FormatTimePoint(obs.timestamp) +
          " (clock is " + FormatTimePoint(clock_) + ")");
      break;
    }
    clock_ = obs.timestamp;
    ++observations_;
    accepted = true;
    if (observations_counter_ != nullptr) observations_counter_->Increment();
    // Route to the key's ONE replica and/or the residual worker, each
    // only if its graph's vocabulary can consume the observation.
    std::string_view group = env_->GroupViewOf(obs.reader);
    Shard* targets[2] = {nullptr, nullptr};
    if (keyed_vocab_.Consumes(obs.reader, group)) {
      const std::string& key = object_dim_ ? obs.object : obs.reader;
      targets[0] =
          shards_[PartitionHash(key) % static_cast<uint64_t>(num_replicas_)]
              .get();
    }
    if (has_residual_ && residual_vocab_.Consumes(obs.reader, group)) {
      targets[1] = shards_.back().get();
    }
    uint64_t seq = ++command_seq_;
    if (options_.trace != nullptr) {
      options_.trace->RecordObservation(seq, obs);
    }
    if (targets[0] == nullptr && targets[1] == nullptr) {
      ++unrouted_;
      if (unrouted_counter_ != nullptr) unrouted_counter_->Increment();
      if (options_.trace != nullptr) {
        options_.trace->RecordUnrouted(seq, obs);
      }
      continue;
    }
    for (Shard* shard : targets) {
      if (shard == nullptr) continue;
      if (shard->routed != nullptr) shard->routed->Increment();
      shard->staged.emplace_back(seq, &obs);
    }
  }
  // Handoff: each shard's whole share of the batch rides in ONE ring
  // slot, and every shard then advances to the coordinator clock under
  // one shared command sequence — the per-batch sync that fires pending
  // expirations on shards the batch never touched, keeping the
  // concatenation of per-barrier merges identical to the serial emission
  // order.
  const bool advance = accepted;
  const uint64_t advance_seq = advance ? ++command_seq_ : 0;
  for (std::unique_ptr<Shard>& shard : shards_) {
    if (shard->staged.empty() && !advance) continue;
    Command command;
    command.kind = Command::Kind::kObsBatch;
    command.batch = std::move(shard->staged);
    shard->staged.clear();
    command.advance_after = advance;
    command.t = clock_;
    command.seq = advance_seq;
    EnqueueBlocking(shard.get(), std::move(command));
    shard->work_bell.Ring();
  }
  BarrierAndDeliver();
  return result;
}

void ShardedDetector::AdvanceTo(TimePoint t) {
  uint64_t seq = ++command_seq_;
  for (std::unique_ptr<Shard>& shard : shards_) {
    Command command;
    command.kind = Command::Kind::kAdvanceTo;
    command.seq = seq;
    command.t = t;
    EnqueueBlocking(shard.get(), std::move(command));
    shard->work_bell.Ring();
  }
  clock_ = std::max(clock_, t);
  BarrierAndDeliver();
}

void ShardedDetector::Flush() {
  uint64_t seq = ++command_seq_;
  for (std::unique_ptr<Shard>& shard : shards_) {
    Command command;
    command.kind = Command::Kind::kFlush;
    command.seq = seq;
    EnqueueBlocking(shard.get(), std::move(command));
    shard->work_bell.Ring();
  }
  BarrierAndDeliver();
  // Pseudo events may have advanced shard clocks past the last
  // observation; keep the out-of-order gate aligned with serial.
  clock_ = clock();
}

void ShardedDetector::Reset() {
  for (std::unique_ptr<Shard>& shard : shards_) {
    Command command;
    command.kind = Command::Kind::kReset;
    EnqueueBlocking(shard.get(), std::move(command));
    shard->work_bell.Ring();
  }
  BarrierAndDeliver();
  for (std::unique_ptr<Shard>& shard : shards_) {
    shard->staged.clear();
    shard->pending.clear();
  }
  command_seq_ = 0;
  clock_ = 0;
  observations_ = 0;
  out_of_order_dropped_ = 0;
  unrouted_ = 0;
  baseline_ = DetectorStats{};
}

// --- Checkpoint/restore ------------------------------------------------------

namespace {

std::vector<std::string> ShardStateKeys(const std::vector<rules::Rule>& rules,
                                        const std::vector<size_t>& rule_map,
                                        const EventGraph& graph) {
  std::vector<std::string> local_ids;
  local_ids.reserve(rule_map.size());
  for (size_t rule_index : rule_map) local_ids.push_back(rules[rule_index].id);
  return graph.NodeStateKeys(local_ids);
}

}  // namespace

void ShardedDetector::CaptureState(const std::vector<rules::Rule>& rules,
                                   snapshot::EngineSnapshot* out) const {
  // Keyed replicas hold complementary per-key slices of one logical
  // detector: merge them (plus the residual) into a single
  // serial-equivalent source, so the snapshot restores onto ANY layout
  // through the ordinary re-partitioning path.
  std::vector<snapshot::DetectorSnapshot> sources(shards_.size());
  std::vector<bool> keyed(shards_.size(), false);
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    shard.detector->SaveState(
        ShardStateKeys(rules, shard.rule_map, *shard.graph), &sources[s]);
    sources[s].source_id = shard.id;
    keyed[s] = shard.keyed;
  }
  out->source_shards = num_shards();
  out->sources.clear();
  out->sources.push_back(snapshot::MergeShardSnapshots(sources, keyed));
}

Status ShardedDetector::RestoreState(const std::vector<rules::Rule>& rules,
                                     const snapshot::EngineSnapshot& snap) {
  // Workers are quiescent (every public entry point barriers), so shard
  // detectors can be rebuilt from this thread; the next inbox push
  // publishes the new state to the worker.
  BarrierAndDeliver();
  for (std::unique_ptr<Shard>& shard : shards_) {
    RFIDCEP_ASSIGN_OR_RETURN(
        snapshot::RestorePlan plan,
        snapshot::BuildRestorePlan(
            snap, ShardStateKeys(rules, shard->rule_map, *shard->graph),
            shard->graph->NodeStateAliases()));
    if (shard->keyed) {
      // Replicas share one graph: restrict the full plan to the key
      // slice this replica owns (the same hash the router uses).
      FilterPlanToBucket(&plan, replica_partition_syms_,
                         static_cast<uint32_t>(shard->id), num_replicas_);
    }
    RFIDCEP_RETURN_IF_ERROR(
        shard->detector->RestoreState(plan, DetectorStats{}));
    shard->first_error = Status::Ok();
    shard->staged.clear();
    shard->pending.clear();
  }
  command_seq_ = 0;
  clock_ = snap.clock;
  observations_ = snap.stats.detector.observations;
  out_of_order_dropped_ = snap.stats.detector.out_of_order_dropped;
  unrouted_ = 0;  // Not serialized (an acceptance-stage diagnostic).
  baseline_ = snap.stats.detector;
  baseline_.observations = 0;
  baseline_.out_of_order_dropped = 0;
  return Status::Ok();
}

// --- Introspection (quiescent callers only) ---------------------------------

DetectorStats ShardedDetector::stats() const {
  DetectorStats total = baseline_;  // Pre-restore totals (zero otherwise).
  total.observations = observations_;
  total.out_of_order_dropped = out_of_order_dropped_;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const DetectorStats& s = shard->detector->stats();
    total.primitive_matches += s.primitive_matches;
    total.instances_produced += s.instances_produced;
    total.pseudo_scheduled += s.pseudo_scheduled;
    total.pseudo_fired += s.pseudo_fired;
    total.rule_matches += s.rule_matches;
  }
  return total;
}

TimePoint ShardedDetector::clock() const {
  TimePoint t = clock_;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    t = std::max(t, shard->detector->clock());
  }
  return t;
}

size_t ShardedDetector::TotalBufferedEntries() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->detector->TotalBufferedEntries();
  }
  return total;
}

size_t ShardedDetector::PendingPseudoEvents() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->detector->PendingPseudoEvents();
  }
  return total;
}

std::string ShardedDetector::DebugReport(
    const std::vector<rules::Rule>& rules) const {
  std::string out = "sharded engine: " + std::to_string(shards_.size()) +
                    " shards key=" + (object_dim_ ? "object" : "reader") +
                    " replicas=" + std::to_string(num_replicas_);
  out += " clock=" + FormatTimePoint(clock()) +
         " pending_pseudo=" + std::to_string(PendingPseudoEvents()) +
         " buffered=" + std::to_string(TotalBufferedEntries()) +
         " unrouted=" + std::to_string(unrouted_) + "\n";
  for (const std::unique_ptr<Shard>& shard : shards_) {
    out += "shard " + std::to_string(shard->id);
    if (shard->keyed) {
      out += " [replica bucket=" + std::to_string(shard->id) + "]";
    } else {
      out += " [residual]";
    }
    out += ": rules=[";
    for (size_t i = 0; i < shard->rule_map.size(); ++i) {
      if (i > 0) out += " ";
      out += rules[shard->rule_map[i]].id;
    }
    out += "] clock=" + FormatTimePoint(shard->detector->clock()) +
           " pending_pseudo=" +
           std::to_string(shard->detector->PendingPseudoEvents()) +
           " reader_records=" +
           std::to_string(shard->detector->ReaderRecords()) + " buffered=" +
           std::to_string(shard->detector->TotalBufferedEntries()) +
           " inbox_depth=" + std::to_string(shard->inbox->size()) + "/" +
           std::to_string(shard->inbox->capacity()) +
           " outbox_depth=" + std::to_string(shard->outbox->size()) + "/" +
           std::to_string(shard->outbox->capacity());
    if (shard->detector->FullscanObservations() > 0) {
      out += " dispatch_fullscan=" +
             std::to_string(shard->detector->FullscanObservations());
    }
    if (shard->routed != nullptr) {
      out += " routed=" + std::to_string(shard->routed->value()) +
             " matches=" + std::to_string(shard->matches_drained->value()) +
             " stalls=" + std::to_string(shard->enqueue_stalls->value()) +
             " inbox_peak=" + std::to_string(shard->inbox_peak->value()) +
             " outbox_peak=" + std::to_string(shard->outbox_peak->value()) +
             " pseudo_peak=" +
             std::to_string(shard->instruments.pseudo_queue_peak->value());
    }
    out += "\n";
    for (const GraphNode& node : shard->graph->nodes()) {
      out += "  #" + std::to_string(node.id) + " " +
             std::string(DetectionModeName(node.mode)) + " produced=" +
             std::to_string(shard->detector->ProducedAt(node.id)) +
             " buffered=" +
             std::to_string(shard->detector->BufferedAt(node.id));
      if (int rep = shard->detector->FamilyRep(node.id); rep >= 0) {
        out += " family=#" + std::to_string(rep);
      }
      out += " " + node.canonical_key + "\n";
    }
  }
  return out;
}

}  // namespace rfidcep::engine
