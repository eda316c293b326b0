#include "engine/engine.h"

#include <algorithm>
#include <chrono>

#include "common/durable_file.h"
#include "engine/snapshot.h"
#include "engine/trace.h"
#include "store/sql_executor.h"

namespace rfidcep::engine {

// Timing histograms resolved from the engine's registry at Compile()
// time. Only pointers live here — the histograms (and their values)
// belong to the registry, so re-compiling or toggling metrics never
// loses them. Counts are not instruments: they are the engine's
// statistics (CounterCatalog).
struct EngineInstruments {
  common::Histogram* process_us = nullptr;  // Per Process/ProcessAll call.
  common::Histogram* pseudo_lag_us = nullptr;  // The detector's.
  // Sampled: one match in RcedaEngine::kMatchTimingPeriod (OnMatch).
  struct PerRule {
    common::Histogram* condition_us = nullptr;
    common::Histogram* action_us = nullptr;
    common::Histogram* handle_us = nullptr;  // Match delivery -> done.
  };
  std::vector<PerRule> per_rule;  // By rule index.
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

// A per-match timer sample: nanoseconds, which a *_us histogram keeps as
// thousandths (Histogram::RecordMilli), so a match handled in under a
// microsecond still adds to _sum.
uint64_t SampleNs(SteadyTime start) {
  return static_cast<uint64_t>(ElapsedNs(start));
}

Status NotCompiled() {
  return Status::FailedPrecondition(
      "engine is not compiled (call Compile() first)");
}

Status AlreadyFlushed() {
  return Status::FailedPrecondition(
      "stream already flushed (Reset() starts a new stream)");
}

std::string RuleLabel(const rules::Rule& rule) {
  return "{rule=\"" + rule.id + "\"}";
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
  rule_counts_.emplace_back();
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
  Decompile();  // Drops every pointer to the rule's histograms.
  for (const char* family :
       {"rule_condition_us", "rule_action_us", "rule_match_handle_us"}) {
    registry_.Erase(family + RuleLabel(rules_[removed]));
  }
  rule_index_.erase(it);
  rules_.erase(rules_.begin() + static_cast<long>(removed));
  rule_counts_.erase(rule_counts_.begin() + static_cast<long>(removed));
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
  flushed_ = false;  // The fresh detector starts a new stream.
  if (options_.enable_metrics) {
    metrics_ = std::make_unique<EngineInstruments>();
    EngineInstruments& m = *metrics_;
    m.process_us = registry_.GetHistogram("rfidcep_process_us");
    m.pseudo_lag_us =
        registry_.GetHistogram("detector_pseudo_lag_us{shard=\"0\"}");
    m.per_rule.reserve(rules_.size());
    for (const rules::Rule& rule : rules_) {
      // RemoveRule erases these three families by name.
      const std::string label = RuleLabel(rule);
      EngineInstruments::PerRule r;
      r.condition_us = registry_.GetHistogram("rule_condition_us" + label);
      r.action_us = registry_.GetHistogram("rule_action_us" + label);
      r.handle_us = registry_.GetHistogram("rule_match_handle_us" + label);
      m.per_rule.push_back(r);
    }
  }
  dispatcher_.SetTraceSink(trace_);
  BuildDetector();
  return Status::Ok();
}

void RcedaEngine::BuildDetector() {
  DetectorOptions detector_options = options_.detector;
  detector_options.trace = trace_;
  if (metrics_ != nullptr) {
    detector_options.pseudo_lag_us = metrics_->pseudo_lag_us;
  }
  detector_ = std::make_unique<Detector>(
      &*graph_, &env_, detector_options,
      [this](size_t rule_index, const events::EventInstancePtr& instance) {
        OnMatch(rule_index, instance);
      });
  detector_->set_stats(stats_.detector);
}

std::vector<std::string> RcedaEngine::StateKeys() const {
  std::vector<std::string> rule_ids;
  rule_ids.reserve(rules_.size());
  for (const rules::Rule& rule : rules_) rule_ids.push_back(rule.id);
  return graph_->NodeStateKeys(rule_ids);
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
  dispatcher_.SetTraceSink(nullptr);
  metrics_.reset();
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
  return SnapshotMetrics().ExportText();
}

common::MetricsSnapshot RcedaEngine::SnapshotMetrics() const {
  if (!options_.enable_metrics) return {};
  return registry_.Snapshot(CounterCatalog());
}

std::vector<std::pair<std::string, uint64_t>> RcedaEngine::CounterCatalog()
    const {
  const EngineStats& s = stats_;
  const DetectorStats& d = s.detector;
  std::vector<std::pair<std::string, uint64_t>> out = {
      {"actions_deduped_total", s.actions_deduped},
      {"actions_procedures_total", s.procedures_invoked},
      {"actions_sql_total", s.sql_actions_executed},
      {"actions_unknown_procedures_total", s.unknown_procedures},
      {"detector_instances_produced_total{shard=\"0\"}", d.instances_produced},
      {"detector_primitive_matches_total{shard=\"0\"}", d.primitive_matches},
      {"detector_pseudo_fired_total{shard=\"0\"}", d.pseudo_fired},
      {"detector_pseudo_scheduled_total{shard=\"0\"}", d.pseudo_scheduled},
      {"detector_rule_matches_total{shard=\"0\"}", d.rule_matches},
      {"rfidcep_action_errors_total", s.action_errors},
      {"rfidcep_condition_errors_total", s.condition_errors},
      {"rfidcep_condition_rejects_total", s.condition_rejects},
      {"rfidcep_dispatch_fullscan_total{shard=\"0\"}", d.fullscan_dispatches},
      {"rfidcep_matches_total", d.rule_matches},
      {"rfidcep_observations_total", d.observations},
      {"rfidcep_out_of_order_dropped_total", d.out_of_order_dropped},
      {"rfidcep_process_calls_total", s.process_calls},
      {"rfidcep_rules_fired_total", s.rules_fired},
      {"store_rows_written_total", s.rows_written},
      {"detector_pseudo_queue_depth{shard=\"0\"}", PendingPseudoEvents()},
      {"detector_pseudo_queue_peak{shard=\"0\"}", d.pseudo_queue_peak},
  };
  for (size_t i = 0; i < rules_.size(); ++i) {
    const std::string label = RuleLabel(rules_[i]);
    out.emplace_back("rule_fired_total" + label, rule_counts_[i].fired);
    out.emplace_back("rule_matches_total" + label, rule_counts_[i].matches);
  }
  if (compiled()) {
    for (const GraphNode& node : graph_->nodes()) {
      out.emplace_back("graph_node_firings_total{shard=\"0\",node=\"" +
                           std::to_string(node.id) + "\",op=\"" +
                           std::string(events::ExprOpName(node.op)) + "\"}",
                       detector_->ProducedAt(node.id));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status RcedaEngine::Reset() {
  if (!compiled()) {
    return Status::FailedPrecondition("engine is not compiled");
  }
  stats_ = EngineStats{};
  BuildDetector();
  rule_counts_.assign(rules_.size(), RuleCounts{});
  deferred_error_ = Status::Ok();
  registry_.Reset();  // Zero instruments; registration is preserved.
  trace_obs_seq_ = 0;
  flushed_ = false;
  return Status::Ok();
}

Status RcedaEngine::Process(const events::Observation& obs) {
  if (!compiled()) return NotCompiled();
  if (flushed_) return AlreadyFlushed();
  EngineInstruments* m = metrics_.get();
  ++stats_.process_calls;
  SteadyTime start;
  if (m != nullptr) start = Now();
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
  ++stats_.process_calls;
  SteadyTime start;
  if (m != nullptr) start = Now();
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
  snap.flushed = flushed_;
  snap.clock = clock();
  snap.trace_obs_seq = trace_obs_seq_;
  snap.stats = stats_;
  snap.rules.reserve(rules_.size());
  for (size_t i = 0; i < rules_.size(); ++i) {
    snap.rules.push_back(
        {rules_[i].id, rule_counts_[i].matches, rule_counts_[i].fired});
  }
  detector_->SaveState(StateKeys(), &snap.detector);
  // Every action executed so far is already appended. The durable LSN is
  // read BEFORE this sync, so the sync is guaranteed to cover it: a
  // checkpoint never claims an LSN the disk doesn't have.
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
    trace_->RecordSnapshot("checkpoint", out->size(), snap.clock);
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
  if (wal != nullptr && wal->last_lsn() < snap.durable_lsn) {
    return Status::FailedPrecondition(
        "snapshot: WAL ends at LSN " + std::to_string(wal->last_lsn()) +
        " but the checkpoint was taken at durable LSN " +
        std::to_string(snap.durable_lsn) +
        " — WAL and snapshot are from different runs, or the WAL lost "
        "records the checkpoint had synced");
  }
  // The dedup set must hold every record past the checkpoint: the
  // restored engine re-derives those firings and skips what they logged.
  if (wal != nullptr && wal->first_lsn() > snap.durable_lsn + 1) {
    return Status::FailedPrecondition(
        "snapshot: WAL starts at LSN " + std::to_string(wal->first_lsn()) +
        " but the checkpoint was taken at durable LSN " +
        std::to_string(snap.durable_lsn) +
        " — the log was trimmed past the checkpoint, so records after it "
        "are gone");
  }

  // Per-rule counts are keyed by rule id. The fingerprint covers the
  // ids, but the counts section is outside input all the same.
  std::vector<RuleCounts> rule_counts(rules_.size());
  for (const snapshot::RuleCountRecord& rec : snap.rules) {
    auto it = rule_index_.find(rec.rule_id);
    if (it == rule_index_.end()) {
      return Status::InvalidArgument("snapshot: counts for unknown rule '" +
                                     rec.rule_id + "'");
    }
    rule_counts[it->second] = RuleCounts{rec.matches, rec.fired};
  }
  // The detector checks everything before it installs anything, and the
  // engine commits its own fields only after it: a refused restore leaves
  // the whole engine as it was.
  RFIDCEP_RETURN_IF_ERROR(detector_->RestoreState(
      StateKeys(), snap.detector, snap.clock, snap.stats.detector));
  rule_counts_ = std::move(rule_counts);
  stats_ = snap.stats;
  flushed_ = snap.flushed;
  trace_obs_seq_ = snap.trace_obs_seq;
  deferred_error_ = Status::Ok();

  if (options_.enable_metrics) {
    // Timings restart with the restored engine.
    registry_.Reset();
    registry_.GetGauge("restore_ns")->Set(ElapsedNs(start));
  }
  if (trace_ != nullptr) {
    trace_->RecordSnapshot("restore", bytes.size(), snap.clock);
  }
  return Status::Ok();
}

Status RcedaEngine::Checkpoint(const std::string& path) {
  std::string bytes;
  // SerializeState syncs the WAL before reading its LSN, so everything
  // the snapshot claims durable is on disk first.
  RFIDCEP_RETURN_IF_ERROR(SerializeState(&bytes));
  // Written beside the live file, synced and renamed over it: a crash at
  // any point leaves the previous checkpoint or this one, never a torn
  // or empty file.
  Status status = common::ReplaceFile(path, bytes);
  if (!status.ok()) {
    return Status(status.code(),
                  "cannot write checkpoint: " + status.message());
  }
  return Status::Ok();
}

Status RcedaEngine::Restore(const std::string& path) {
  std::string bytes;
  if (Status read = common::ReadFile(path, &bytes); !read.ok()) {
    return Status(read.code(), "checkpoint: " + read.message());
  }
  return RestoreState(bytes);
}

std::string RcedaEngine::DebugReport() const {
  if (!compiled()) return "engine is not compiled\n";
  std::string out =
      "clock=" + FormatTimePoint(detector_->clock()) + " pending_pseudo=" +
      std::to_string(detector_->PendingPseudoEvents()) +
      " reader_records=" + std::to_string(detector_->ReaderRecords()) +
      " buffered=" + std::to_string(detector_->TotalBufferedEntries()) + "\n";
  if (const uint64_t fullscan = stats_.detector.fullscan_dispatches;
      fullscan > 0) {
    out += "dispatch_fullscan=" + std::to_string(fullscan) +
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
           std::to_string(rule_counts_[i].fired) + "\n";
  }
  return out;
}

uint64_t RcedaEngine::FiredCount(std::string_view rule_id) const {
  auto it = rule_index_.find(rule_id);
  return it != rule_index_.end() ? rule_counts_[it->second].fired : 0;
}

void RcedaEngine::OnMatch(size_t rule_index,
                          const events::EventInstancePtr& instance) {
  const rules::Rule& rule = rules_[rule_index];
  const TimePoint fire_time = detector_->clock();
  const uint64_t ordinal = ++rule_counts_[rule_index].matches;
  // The per-match timers run on a rule's 1st, (N+1)th, (2N+1)th... match
  // (N = kMatchTimingPeriod), numbered by its match count, so the phase
  // follows the restored count across a checkpoint. The first sample
  // counts once and each later one for the N matches it stands for.
  EngineInstruments* m = metrics_.get();
  EngineInstruments::PerRule* r = nullptr;
  uint64_t weight = 0;
  if (m != nullptr && (ordinal - 1) % kMatchTimingPeriod == 0) {
    r = &m->per_rule[rule_index];
    weight = ordinal == 1 ? 1 : kMatchTimingPeriod;
  }
  SteadyTime handle_start;
  if (r != nullptr) handle_start = Now();
  // Records the match-handling sample, if this match is sampled.
  auto handled = [&] {
    if (r != nullptr) r->handle_us->RecordMilli(SampleNs(handle_start), weight);
  };
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
    if (r != nullptr) {
      r->condition_us->RecordMilli(SampleNs(cond_start), weight);
    }
    if (!holds.ok()) {
      ++stats_.condition_errors;
      if (trace_ != nullptr) trace_->RecordCondition(rule.id, false);
      if (deferred_error_.ok()) deferred_error_ = holds.status();
      handled();
      return;
    }
    if (trace_ != nullptr) trace_->RecordCondition(rule.id, *holds);
    if (!*holds) {
      ++stats_.condition_rejects;
      handled();
      return;
    }
  }
  ++stats_.rules_fired;
  // The firing's sequence number is its per-rule fired ordinal: the
  // fired counts travel in every snapshot, so the numbering is identical
  // across a run and its restored continuation (the WAL dedup keyspace,
  // with the rule id).
  firing.seq = ++rule_counts_[rule_index].fired;

  if (!options_.execute_actions) {
    handled();
    return;
  }
  SteadyTime action_start;
  if (r != nullptr) action_start = Now();
  ExecuteActions(firing);
  if (r != nullptr) r->action_us->RecordMilli(SampleNs(action_start), weight);
  handled();
}

void RcedaEngine::ExecuteActions(const RuleFiring& firing) {
  Status status = dispatcher_.Dispatch(firing, &stats_);
  if (!status.ok()) {
    ++stats_.action_errors;
    if (deferred_error_.ok()) deferred_error_ = status;
  }
}

}  // namespace rfidcep::engine
