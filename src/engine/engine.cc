#include "engine/engine.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "engine/snapshot.h"
#include "engine/trace.h"
#include "store/sql_executor.h"

namespace rfidcep::engine {

// Instrument handles resolved from the engine's registry at Compile()
// time. Only pointers live here — the instruments (and their values)
// belong to the registry, so re-compiling or toggling metrics never
// loses counts.
struct EngineInstruments {
  common::Counter* observations = nullptr;  // Shared with the detector.
  common::Counter* out_of_order = nullptr;
  common::Counter* process_calls = nullptr;
  common::Counter* matches = nullptr;
  common::Counter* rules_fired = nullptr;
  common::Counter* condition_rejects = nullptr;
  common::Counter* condition_errors = nullptr;
  common::Counter* action_errors = nullptr;
  common::Histogram* process_us = nullptr;  // Per Process/ProcessAll call.
  struct PerRule {
    common::Counter* matches = nullptr;
    common::Counter* fired = nullptr;
    common::Histogram* condition_us = nullptr;
    common::Histogram* action_us = nullptr;
    common::Histogram* handle_us = nullptr;  // Match delivery -> done.
  };
  std::vector<PerRule> per_rule;  // By rule index.
  ActionInstruments actions;
  DetectorInstruments detector;
};

namespace {

using SteadyTime = std::chrono::steady_clock::time_point;

SteadyTime Now() { return std::chrono::steady_clock::now(); }

uint64_t ElapsedUs(SteadyTime start) {
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  return static_cast<uint64_t>(us.count());
}

int64_t ElapsedNs(SteadyTime start) {
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);
  return static_cast<int64_t>(ns.count());
}

Status NotCompiled() {
  return Status::FailedPrecondition(
      "engine is not compiled (call Compile() first)");
}

Status AlreadyFlushed() {
  return Status::FailedPrecondition(
      "stream already flushed (Reset() starts a new stream)");
}

// The serial engine's series for counter `name` of a checkpoint written
// by an older sharded build, or "" when it has none. The detectors'
// `shard="N"` series all map onto the one detector's `shard="0"`. Per-
// node firing counters are dropped (node ids are relative to each
// layout's graphs), as are the routing families only sharding
// registered.
std::string SerialCounterName(const std::string& name) {
  if (name.starts_with("shard_") ||
      name == "rfidcep_unrouted_observations_total" ||
      name.find("node=") != std::string::npos) {
    return "";
  }
  const size_t label = name.find("shard=\"");
  if (label == std::string::npos) return name;
  const size_t value = label + 7;
  return name.substr(0, value) + "0" + name.substr(name.find('"', value));
}

}  // namespace

RcedaEngine::RcedaEngine(store::Database* db, events::Environment env,
                         EngineOptions options)
    : db_(db), env_(env), options_(options), dispatcher_(db) {}

RcedaEngine::~RcedaEngine() = default;

Status RcedaEngine::AddRule(rules::Rule rule) {
  if (compiled()) {
    return Status::FailedPrecondition(
        "cannot add rules after the engine has been compiled");
  }
  if (!rule_index_.emplace(rule.id, rules_.size()).second) {
    return Status::AlreadyExists("duplicate rule id '" + rule.id + "'");
  }
  rules_.push_back(std::move(rule));
  return Status::Ok();
}

Status RcedaEngine::AddRules(rules::RuleSet set) {
  for (rules::Rule& rule : set.rules) {
    RFIDCEP_RETURN_IF_ERROR(AddRule(std::move(rule)));
  }
  return Status::Ok();
}

Status RcedaEngine::AddRulesFromText(std::string_view program) {
  RFIDCEP_ASSIGN_OR_RETURN(rules::RuleSet set,
                           rules::ParseRuleProgram(program));
  return AddRules(std::move(set));
}

Status RcedaEngine::RemoveRule(std::string_view rule_id) {
  auto it = rule_index_.find(rule_id);
  if (it == rule_index_.end()) {
    return Status::NotFound("no rule '" + std::string(rule_id) + "'");
  }
  const size_t removed = it->second;
  Decompile();
  rule_index_.erase(it);
  rules_.erase(rules_.begin() + static_cast<long>(removed));
  for (auto& [id, index] : rule_index_) {
    if (index > removed) --index;
  }
  return Status::Ok();
}

Status RcedaEngine::AttachWal(store::Wal* wal) {
  if (compiled()) {
    return Status::FailedPrecondition(
        "cannot attach a WAL while compiled (Decompile() first)");
  }
  if (wal != nullptr && db_ == nullptr) {
    return Status::FailedPrecondition(
        "a store WAL requires an engine with a database");
  }
  dispatcher_.AttachWal(wal);
  return Status::Ok();
}

Status RcedaEngine::Compile() {
  if (compiled()) return Status::Ok();
  if (rules_.empty()) {
    return Status::FailedPrecondition("no rules registered");
  }
  RFIDCEP_ASSIGN_OR_RETURN(EventGraph graph, EventGraph::Build(rules_));
  graph_.emplace(std::move(graph));
  fired_counts_.assign(rules_.size(), 0);
  flushed_ = false;  // The fresh detector starts a new stream.
  if (options_.enable_metrics) {
    metrics_ = std::make_unique<EngineInstruments>();
    EngineInstruments& m = *metrics_;
    m.observations = registry_.GetCounter("rfidcep_observations_total");
    m.out_of_order =
        registry_.GetCounter("rfidcep_out_of_order_dropped_total");
    m.process_calls = registry_.GetCounter("rfidcep_process_calls_total");
    m.matches = registry_.GetCounter("rfidcep_matches_total");
    m.rules_fired = registry_.GetCounter("rfidcep_rules_fired_total");
    m.condition_rejects =
        registry_.GetCounter("rfidcep_condition_rejects_total");
    m.condition_errors =
        registry_.GetCounter("rfidcep_condition_errors_total");
    m.action_errors = registry_.GetCounter("rfidcep_action_errors_total");
    m.process_us = registry_.GetHistogram("rfidcep_process_us");
    m.per_rule.reserve(rules_.size());
    for (const rules::Rule& rule : rules_) {
      const std::string label = "{rule=\"" + rule.id + "\"}";
      EngineInstruments::PerRule r;
      r.matches = registry_.GetCounter("rule_matches_total" + label);
      r.fired = registry_.GetCounter("rule_fired_total" + label);
      r.condition_us = registry_.GetHistogram("rule_condition_us" + label);
      r.action_us = registry_.GetHistogram("rule_action_us" + label);
      r.handle_us = registry_.GetHistogram("rule_match_handle_us" + label);
      m.per_rule.push_back(r);
    }
    m.actions.sql_actions = registry_.GetCounter("actions_sql_total");
    m.actions.rows_written = registry_.GetCounter("store_rows_written_total");
    m.actions.procedures = registry_.GetCounter("actions_procedures_total");
    m.actions.unknown_procedures =
        registry_.GetCounter("actions_unknown_procedures_total");
    m.actions.deduped = registry_.GetCounter("actions_deduped_total");
    dispatcher_.SetObservability(&m.actions, trace_);
  } else {
    dispatcher_.SetObservability(nullptr, trace_);
  }
  if (metrics_ != nullptr) {
    metrics_->detector = MakeDetectorInstruments(&registry_, *graph_);
    // The detector is the acceptance gate, so it also feeds the
    // engine-global counters.
    metrics_->detector.observations = metrics_->observations;
    metrics_->detector.out_of_order_dropped = metrics_->out_of_order;
  }
  BuildDetector();
  return Status::Ok();
}

void RcedaEngine::BuildDetector() {
  DetectorOptions detector_options = options_.detector;
  detector_options.trace = trace_;
  if (metrics_ != nullptr) {
    detector_options.instruments = &metrics_->detector;
  }
  detector_ = std::make_unique<Detector>(
      &*graph_, &env_, detector_options,
      [this](size_t rule_index, const events::EventInstancePtr& instance) {
        OnMatch(rule_index, instance);
      });
}

uint64_t RcedaEngine::Fingerprint() {
  if (!fingerprint_.has_value()) {
    fingerprint_ =
        snapshot::ComputeFingerprint(options_.detector.context, rules_);
  }
  return *fingerprint_;
}

void RcedaEngine::Decompile() {
  detector_.reset();
  graph_.reset();
  fingerprint_.reset();
  // Instrument handles are re-resolved by the next Compile(); the
  // registry (and every accumulated value) survives.
  dispatcher_.SetObservability(nullptr, nullptr);
  metrics_.reset();
}

Status RcedaEngine::SetMetricsEnabled(bool enabled) {
  if (compiled()) {
    return Status::FailedPrecondition(
        "cannot toggle metrics while compiled (Decompile() first)");
  }
  options_.enable_metrics = enabled;
  return Status::Ok();
}

Status RcedaEngine::SetTraceSink(TraceSink* sink) {
  if (compiled()) {
    return Status::FailedPrecondition(
        "cannot attach a trace sink while compiled (Decompile() first)");
  }
  trace_ = sink;
  return Status::Ok();
}

std::string RcedaEngine::ExportMetrics() const {
  if (!options_.enable_metrics) return "# metrics disabled\n";
  return registry_.ExportText();
}

Status RcedaEngine::Reset() {
  if (!compiled()) {
    return Status::FailedPrecondition("engine is not compiled");
  }
  BuildDetector();
  fired_counts_.assign(rules_.size(), 0);
  stats_ = EngineStats{};
  deferred_error_ = Status::Ok();
  registry_.Reset();  // Zero instruments; registration is preserved.
  trace_obs_seq_ = 0;
  flushed_ = false;
  dispatcher_.SetCounters(0, 0, 0);
  return Status::Ok();
}

Status RcedaEngine::Process(const events::Observation& obs) {
  if (!compiled()) return NotCompiled();
  if (flushed_) return AlreadyFlushed();
  EngineInstruments* m = metrics_.get();
  SteadyTime start;
  if (m != nullptr) {
    m->process_calls->Increment();
    start = Now();
  }
  if (trace_ != nullptr) trace_->RecordObservation(++trace_obs_seq_, obs);
  Status status = detector_->Process(obs);
  stats_.detector = detector_->stats();
  if (m != nullptr) m->process_us->Record(ElapsedUs(start));
  return status;
}

Status RcedaEngine::ProcessAll(const std::vector<events::Observation>& batch) {
  if (!compiled()) return NotCompiled();
  if (flushed_) return AlreadyFlushed();
  EngineInstruments* m = metrics_.get();
  SteadyTime start;
  if (m != nullptr) {
    m->process_calls->Increment();
    start = Now();
  }
  Status status;
  for (const events::Observation& obs : batch) {
    if (trace_ != nullptr) trace_->RecordObservation(++trace_obs_seq_, obs);
    status = detector_->Process(obs);
    if (!status.ok()) break;
  }
  stats_.detector = detector_->stats();
  if (m != nullptr) m->process_us->Record(ElapsedUs(start));
  return status;
}

Status RcedaEngine::AdvanceTo(TimePoint t) {
  if (!compiled()) return NotCompiled();
  if (flushed_) return AlreadyFlushed();
  detector_->AdvanceTo(t);
  stats_.detector = detector_->stats();
  return Status::Ok();
}

Status RcedaEngine::Flush() {
  if (!compiled()) return NotCompiled();
  if (flushed_) return Status::Ok();  // Idempotent: nothing left to fire.
  detector_->Flush();
  stats_.detector = detector_->stats();
  // Stream end is a durability point: every action the flush executed
  // is logged and fsynced before Flush() returns.
  if (store::Wal* wal = dispatcher_.wal(); wal != nullptr) {
    RFIDCEP_RETURN_IF_ERROR(wal->Sync());
  }
  flushed_ = true;
  return Status::Ok();
}

// --- Durability ------------------------------------------------------------

Status RcedaEngine::SerializeState(std::string* out) {
  if (!compiled()) return NotCompiled();
  SteadyTime start = Now();
  // Capture at one logical instant: advance detection to the engine
  // clock, firing (and delivering) expirations scheduled strictly before
  // it, so every pending pseudo event executes at or after the capture
  // clock (see snapshot.h). Bypasses the public AdvanceTo so a flushed
  // engine can still be captured.
  detector_->AdvanceTo(detector_->clock());
  stats_.detector = detector_->stats();

  snapshot::EngineSnapshot snap;
  snap.fingerprint = Fingerprint();
  snap.context = static_cast<uint8_t>(options_.detector.context);
  snap.flushed = flushed_;
  snap.clock = clock();
  snap.trace_obs_seq = trace_obs_seq_;
  snap.stats = stats_;
  snap.fired.reserve(rules_.size());
  for (size_t i = 0; i < rules_.size(); ++i) {
    snap.fired.emplace_back(rules_[i].id, fired_counts_[i]);
  }
  if (options_.enable_metrics) snap.counters = registry_.CounterValues();
  std::vector<std::string> rule_ids;
  rule_ids.reserve(rules_.size());
  for (const rules::Rule& rule : rules_) rule_ids.push_back(rule.id);
  snap.source_shards = 1;
  snap.sources.resize(1);
  detector_->SaveState(graph_->NodeStateKeys(rule_ids), &snap.sources[0]);
  // Every action executed so far is already appended, so the pending
  // section stays empty. The durable LSN is read BEFORE this sync, so the
  // sync is guaranteed to cover it: a checkpoint never claims an LSN the
  // disk doesn't have.
  if (store::Wal* wal = dispatcher_.wal(); wal != nullptr) {
    snap.durable_lsn = wal->last_lsn();
    RFIDCEP_RETURN_IF_ERROR(wal->Sync());
  }
  *out = snapshot::EncodeEngineSnapshot(snap);
  if (options_.enable_metrics) {
    registry_.GetGauge("snapshot_bytes")->Set(
        static_cast<int64_t>(out->size()));
    registry_.GetGauge("snapshot_ns")->Set(ElapsedNs(start));
  }
  if (trace_ != nullptr) {
    trace_->RecordSnapshot("checkpoint", out->size(), snap.clock,
                           snap.source_shards);
  }
  return Status::Ok();
}

Status RcedaEngine::RestoreState(std::string_view bytes) {
  if (!compiled()) return NotCompiled();
  SteadyTime start = Now();
  snapshot::EngineSnapshot snap;
  RFIDCEP_RETURN_IF_ERROR(snapshot::DecodeEngineSnapshot(bytes, &snap));
  if (snap.fingerprint != Fingerprint()) {
    return Status::FailedPrecondition(
        "snapshot rule-set fingerprint mismatch: the snapshot was taken "
        "under a different rule set or parameter context");
  }
  store::Wal* wal = dispatcher_.wal();
  if (wal != nullptr && snap.version < 2) {
    return Status::FailedPrecondition(
        "snapshot: a version-1 snapshot carries no durable-action section "
        "and cannot restore into an engine with a WAL attached");
  }
  if (wal != nullptr && wal->last_lsn() < snap.durable_lsn) {
    return Status::FailedPrecondition(
        "snapshot: WAL ends at LSN " + std::to_string(wal->last_lsn()) +
        " but the checkpoint was taken at durable LSN " +
        std::to_string(snap.durable_lsn) +
        " — WAL and snapshot are from different runs, or the WAL lost "
        "records the checkpoint had synced");
  }

  // Per-rule fired counts are keyed by rule id; the fingerprint
  // guarantees the id sets agree.
  std::vector<uint64_t> fired(rules_.size(), 0);
  for (const auto& [rule_id, count] : snap.fired) {
    auto it = rule_index_.find(rule_id);
    if (it == rule_index_.end()) {
      return Status::Internal("snapshot: fired count for unknown rule '" +
                              rule_id + "'");
    }
    fired[it->second] = count;
  }

  std::vector<std::string> rule_ids;
  rule_ids.reserve(rules_.size());
  for (const rules::Rule& rule : rules_) rule_ids.push_back(rule.id);
  RFIDCEP_ASSIGN_OR_RETURN(
      snapshot::RestorePlan plan,
      snapshot::BuildRestorePlan(snap, graph_->NodeStateKeys(rule_ids),
                                 graph_->NodeStateAliases()));
  RFIDCEP_RETURN_IF_ERROR(detector_->RestoreState(plan, snap.stats.detector));
  fired_counts_ = std::move(fired);
  stats_ = snap.stats;
  flushed_ = snap.flushed;
  trace_obs_seq_ = snap.trace_obs_seq;
  deferred_error_ = Status::Ok();

  if (options_.enable_metrics) {
    // Counter continuity: zero everything, then re-apply the snapshot's
    // totals — verbatim from a serial capture, mapped onto this engine's
    // series from a sharded one (SerialCounterName).
    registry_.Reset();
    for (const auto& [name, value] : snap.counters) {
      const std::string target =
          snap.source_shards == 1 ? name : SerialCounterName(name);
      if (target.empty()) continue;
      if (common::Counter* counter = registry_.GetCounter(target)) {
        counter->Increment(value);
      }
    }
    registry_.GetGauge("restore_ns")->Set(ElapsedNs(start));
  }

  // Logical action totals continue from the snapshot's.
  dispatcher_.SetCounters(snap.stats.sql_actions_executed,
                          snap.stats.procedures_invoked,
                          snap.stats.unknown_procedures);

  // Replay the checkpoint's pending firings (written only by older
  // builds, whose actions ran on a worker thread) with their original
  // sequence numbers. Firings whose actions made it into the recovered
  // WAL dedup (effects and counters credited, not re-executed); firings
  // the crash lost re-execute. Together with reprocessing the stream
  // suffix after the checkpoint this makes store effects exactly-once —
  // see docs/recovery.md "Exactly-once effects".
  if (options_.execute_actions) {
    for (const snapshot::EngineSnapshot::PendingActionRecord& rec :
         snap.pending_actions) {
      auto it = rule_index_.find(rec.rule_id);
      if (it == rule_index_.end()) {
        // Unreachable past the fingerprint gate; corruption if it is.
        return Status::Internal("snapshot: pending action for unknown rule '" +
                                rec.rule_id + "'");
      }
      RuleFiring firing;
      firing.rule = &rules_[it->second];
      firing.params = rec.params;
      firing.fire_time = rec.fire_time;
      firing.seq = rec.seq;
      firing.replayed = true;
      ExecuteActions(firing);
    }
  }

  if (trace_ != nullptr) {
    trace_->RecordSnapshot("restore", bytes.size(), snap.clock,
                           snap.source_shards);
  }
  return Status::Ok();
}

Status RcedaEngine::Checkpoint(const std::string& path) {
  std::string bytes;
  // SerializeState syncs the WAL before reading its LSN, so everything
  // the snapshot claims durable is on disk first.
  RFIDCEP_RETURN_IF_ERROR(SerializeState(&bytes));
  // Written beside the live file and renamed over it: a write that fails
  // midway leaves the previous checkpoint in place.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.write(bytes.data(), static_cast<std::streamsize>(bytes.size())) ||
        !out.flush()) {
      return Status::Internal("cannot write checkpoint file '" + tmp + "'");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal("cannot replace checkpoint file '" + path +
                            "': " + ec.message());
  }
  return Status::Ok();
}

Status RcedaEngine::Restore(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open checkpoint file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::Internal("failed reading checkpoint file '" + path + "'");
  }
  return RestoreState(buffer.str());
}

std::string RcedaEngine::DebugReport() const {
  if (!compiled()) return "engine is not compiled\n";
  std::string out =
      "clock=" + FormatTimePoint(detector_->clock()) + " pending_pseudo=" +
      std::to_string(detector_->PendingPseudoEvents()) +
      " reader_records=" + std::to_string(detector_->ReaderRecords()) +
      " buffered=" + std::to_string(detector_->TotalBufferedEntries()) + "\n";
  if (detector_->FullscanObservations() > 0) {
    out += "dispatch_fullscan=" +
           std::to_string(detector_->FullscanObservations()) +
           " (no subscribable vocabulary: every observation scans every "
           "leaf)\n";
  }
  for (const GraphNode& node : graph_->nodes()) {
    out += "#";
    out += std::to_string(node.id);
    out += " ";
    out += DetectionModeName(node.mode);
    out += " produced=";
    out += std::to_string(detector_->ProducedAt(node.id));
    out += " buffered=";
    out += std::to_string(detector_->BufferedAt(node.id));
    if (int rep = detector_->FamilyRep(node.id); rep >= 0) {
      out += " family=#";
      out += std::to_string(rep);
    }
    out += " ";
    out += node.canonical_key;
    out += "\n";
  }
  for (size_t i = 0; i < rules_.size(); ++i) {
    out += "rule " + rules_[i].id + " fired=" +
           std::to_string(fired_counts_[i]) + "\n";
  }
  return out;
}

uint64_t RcedaEngine::FiredCount(std::string_view rule_id) const {
  auto it = rule_index_.find(rule_id);
  if (it == rule_index_.end() || it->second >= fired_counts_.size()) return 0;
  return fired_counts_[it->second];
}

void RcedaEngine::OnMatch(size_t rule_index,
                          const events::EventInstancePtr& instance) {
  const rules::Rule& rule = rules_[rule_index];
  const TimePoint fire_time = detector_->clock();
  EngineInstruments* m = metrics_.get();
  EngineInstruments::PerRule* r =
      m != nullptr ? &m->per_rule[rule_index] : nullptr;
  SteadyTime handle_start;
  if (m != nullptr) {
    handle_start = Now();
    m->matches->Increment();
    r->matches->Increment();
  }
  if (trace_ != nullptr) trace_->RecordMatch(rule.id, *instance, fire_time);
  if (match_callback_) match_callback_(rule, instance);

  RuleFiring firing;
  firing.rule = &rule;
  firing.instance = instance;
  // Only the condition and the actions read params; the match callback
  // and the trace take the instance.
  if (rule.condition != nullptr || options_.execute_actions) {
    firing.params = BuildParams(instance->bindings());
  }
  firing.fire_time = fire_time;

  if (rule.condition != nullptr) {
    SteadyTime cond_start;
    if (r != nullptr) cond_start = Now();
    Result<bool> holds =
        store::EvaluateCondition(*rule.condition, firing.params);
    if (r != nullptr) r->condition_us->Record(ElapsedUs(cond_start));
    if (!holds.ok()) {
      ++stats_.condition_errors;
      if (m != nullptr) m->condition_errors->Increment();
      if (trace_ != nullptr) trace_->RecordCondition(rule.id, false);
      if (deferred_error_.ok()) deferred_error_ = holds.status();
      if (r != nullptr) r->handle_us->Record(ElapsedUs(handle_start));
      return;
    }
    if (trace_ != nullptr) trace_->RecordCondition(rule.id, *holds);
    if (!*holds) {
      ++stats_.condition_rejects;
      if (m != nullptr) {
        m->condition_rejects->Increment();
        r->handle_us->Record(ElapsedUs(handle_start));
      }
      return;
    }
  }
  ++fired_counts_[rule_index];
  ++stats_.rules_fired;
  if (m != nullptr) {
    m->rules_fired->Increment();
    r->fired->Increment();
  }
  // The firing's sequence number is its per-rule fired ordinal:
  // fired_counts_ travels in every snapshot, so the numbering is
  // identical across a run and its restored continuation (the WAL dedup
  // keyspace, with the rule id).
  firing.seq = fired_counts_[rule_index];

  if (!options_.execute_actions) {
    if (r != nullptr) r->handle_us->Record(ElapsedUs(handle_start));
    return;
  }
  SteadyTime action_start;
  if (r != nullptr) action_start = Now();
  ExecuteActions(firing);
  if (r != nullptr) {
    r->action_us->Record(ElapsedUs(action_start));
    r->handle_us->Record(ElapsedUs(handle_start));
  }
}

void RcedaEngine::ExecuteActions(const RuleFiring& firing) {
  Status status = dispatcher_.Dispatch(firing);
  if (!status.ok()) {
    ++stats_.action_errors;
    if (metrics_ != nullptr) metrics_->action_errors->Increment();
    if (deferred_error_.ok()) deferred_error_ = status;
  }
  stats_.sql_actions_executed = dispatcher_.sql_actions_executed();
  stats_.procedures_invoked = dispatcher_.procedures_invoked();
  stats_.unknown_procedures = dispatcher_.unknown_procedures();
}

}  // namespace rfidcep::engine
