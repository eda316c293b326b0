// RcedaEngine: the public facade of the RFID complex event detection
// system (paper Fig. 2).
//
// Typical use:
//
//   store::Database db;
//   db.InstallRfidSchema();
//   RcedaEngine engine(&db, events::Environment{&catalog, &readers});
//   engine.AddRulesFromText(R"(
//     CREATE RULE r1, duplicate detection rule
//     ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
//     IF true
//     DO send duplicate msg(observation(r, o, t1))
//   )");
//   engine.RegisterProcedure("send duplicate msg", ...);
//   engine.Compile();
//   for (const Observation& obs : stream) engine.Process(obs);
//   engine.Flush();

#ifndef RFIDCEP_ENGINE_ENGINE_H_
#define RFIDCEP_ENGINE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/strings.h"
#include "engine/actions.h"
#include "engine/detector.h"
#include "engine/graph.h"
#include "events/event_type.h"
#include "rules/parser.h"
#include "rules/rule.h"
#include "store/database.h"

namespace rfidcep::engine {

struct EngineOptions {
  DetectorOptions detector;
  // When false, rule matches are counted (and reported to the match
  // callback) but actions are not executed — the paper's Fig. 9
  // measurement excludes action cost the same way.
  bool execute_actions = true;
  // Read by nothing: detection always runs on one detector on the
  // calling thread, and Compile() accepts any value. The field stays only
  // because perfbench/library.cc (ProbeSharded) still sets it; it goes
  // with that probe.
  int shards = 1;
  // Whether Compile() resolves registry instruments and times rule
  // evaluation. Defaults on at compile time (cmake -DRFIDCEP_METRICS=OFF
  // flips the default); when off, every instrumentation site in the
  // engine, detector and action dispatcher is a branch on a null
  // pointer (<2% overhead, see docs/observability.md).
  bool enable_metrics = common::kMetricsDefaultEnabled;
};

struct EngineStats {
  DetectorStats detector;
  uint64_t rules_fired = 0;        // Matches whose condition held.
  uint64_t condition_rejects = 0;  // Matches whose condition was false.
  uint64_t condition_errors = 0;
  uint64_t action_errors = 0;
  uint64_t sql_actions_executed = 0;
  uint64_t procedures_invoked = 0;
  uint64_t unknown_procedures = 0;
};

struct EngineInstruments;

// The daemon-facing slice of the engine: what a long-running server
// front-end (src/server/) needs to drive a compiled, rule-loaded engine
// — stream observations, mark durability points, and report — without
// seeing rule registration, compilation, or wiring. Narrow on purpose:
// the server (and its tests) program against this, so a fake engine can
// stand in for the real one, and the daemon cannot reach into lifecycle
// calls that only make sense at setup time.
class EngineFrontend {
 public:
  virtual ~EngineFrontend() = default;

  // Streaming (see RcedaEngine for the lifecycle contract).
  virtual Status ProcessAll(const std::vector<events::Observation>& batch) = 0;
  virtual Status AdvanceTo(TimePoint t) = 0;
  virtual Status Flush() = 0;

  // Durability: snapshot bytes out / in (docs/recovery.md).
  virtual Status SerializeState(std::string* out) = 0;
  virtual Status RestoreState(std::string_view bytes) = 0;

  // Introspection and observability.
  virtual const EngineStats& stats() const = 0;
  virtual uint64_t FiredCount(std::string_view rule_id) const = 0;
  virtual size_t num_rules() const = 0;
  virtual const rules::Rule& rule(size_t index) const = 0;
  virtual std::string ExportMetrics() const = 0;
};

class RcedaEngine : public EngineFrontend {
 public:
  // `db` may be null when no rule uses SQL actions. `env` supplies the
  // type()/group() mapping functions; copied.
  RcedaEngine(store::Database* db, events::Environment env,
              EngineOptions options = {});
  ~RcedaEngine();

  RcedaEngine(const RcedaEngine&) = delete;
  RcedaEngine& operator=(const RcedaEngine&) = delete;

  // --- Rule registration (before Compile) ---------------------------------
  Status AddRule(rules::Rule rule);
  Status AddRules(rules::RuleSet set);
  Status AddRulesFromText(std::string_view program);

  // Removes a rule by id. Implies Decompile() when already compiled.
  Status RemoveRule(std::string_view rule_id);

  // Builds the event graph and detector. Idempotent until rules change.
  Status Compile();
  bool compiled() const { return detector_ != nullptr; }

  // Drops the compiled graph and all runtime state so rules can be added
  // or removed again. Statistics and fired counts are preserved.
  void Decompile();

  // Rebuilds the detector: clears buffered partial matches, pending
  // pseudo events, and the clock (a new stream may start at t=0).
  // Statistics and fired counts are reset. Requires compiled().
  Status Reset();

  // --- Streaming -----------------------------------------------------------
  // Lifecycle: every streaming call requires compiled() — Process /
  // ProcessAll / AdvanceTo before Compile() (or after Decompile()) fail
  // with kFailedPrecondition, as do all three after Flush() has ended the
  // stream. Flush() itself is idempotent; Reset() starts a new stream.
  Status Process(const events::Observation& obs);
  Status ProcessAll(const std::vector<events::Observation>& batch) override;
  // Fires pending pseudo events strictly before `t` / all of them. A
  // pseudo at exactly `t` stays pending so an observation at `t` can still
  // falsify or extend it first (same rule Process applies).
  Status AdvanceTo(TimePoint t) override;
  Status Flush() override;

  // --- Durability (docs/recovery.md) ---------------------------------------
  // Serializes the engine's detection state (engine/snapshot.h format).
  // Requires compiled(). Capture happens at one logical instant: the
  // engine first advances detection to the current clock, so expirations
  // scheduled strictly before it fire — and their matches are delivered —
  // as part of the checkpoint. Action side effects already in the store
  // are NOT captured.
  Status SerializeState(std::string* out) override;
  // Replaces detection state from serialized `bytes`. Requires
  // compiled() with the same rule set and parameter context — validated
  // by the snapshot's rule-set fingerprint (kFailedPrecondition on
  // mismatch, and on a format version this build does not read).
  // Checkpoints written by older sharded builds restore too: their
  // per-source state merges onto the one detector.
  Status RestoreState(std::string_view bytes) override;
  // SerializeState / RestoreState against the file at `path`.
  Status Checkpoint(const std::string& path);
  Status Restore(const std::string& path);
  // Attaches a store write-ahead log (store/wal.h): every executed SQL
  // action is logged with its firing sequence, making store effects
  // exactly-once across a crash when paired with checkpoints (see
  // docs/recovery.md "Exactly-once effects"). Call before Compile() with
  // a WAL already Open()ed — its recovered action set seeds the
  // dispatcher's dedup map. Requires a database; null detaches.
  // The caller keeps ownership; the WAL must outlive the engine (or the
  // next AttachWal).
  Status AttachWal(store::Wal* wal);
  store::Wal* wal() const { return dispatcher_.wal(); }

  // --- Integration -----------------------------------------------------------
  void RegisterProcedure(std::string_view name, Procedure procedure) {
    dispatcher_.RegisterProcedure(name, std::move(procedure));
  }
  // Observes every rule match (before condition evaluation); test hook.
  using MatchCallback = std::function<void(const rules::Rule& rule,
                                           const events::EventInstancePtr&)>;
  void SetMatchCallback(MatchCallback callback) {
    match_callback_ = std::move(callback);
  }

  // --- Observability -----------------------------------------------------------
  // Toggles metric collection for the next Compile(). Requires
  // !compiled() (Decompile() first); registered instruments and their
  // values are preserved across toggles.
  Status SetMetricsEnabled(bool enabled);
  bool metrics_enabled() const { return options_.enable_metrics; }
  // Attaches a JSONL lifecycle trace sink (see engine/trace.h) for the
  // next Compile(); null detaches. Requires !compiled(). The sink must
  // outlive the engine (or the next Decompile()).
  Status SetTraceSink(TraceSink* sink);
  // The engine's registry: every instrument the engine, its detector
  // and action dispatcher registered. Live — counters update as
  // the stream is processed.
  common::MetricsRegistry& metrics_registry() { return registry_; }
  // Prometheus text exposition of every registered metric (see
  // docs/observability.md for the catalog). "# metrics disabled" when
  // collection is off.
  std::string ExportMetrics() const override;

  // --- Introspection -----------------------------------------------------------
  const EngineStats& stats() const override { return stats_; }
  uint64_t FiredCount(std::string_view rule_id) const override;
  size_t num_rules() const override { return rules_.size(); }
  const rules::Rule& rule(size_t index) const override { return rules_[index]; }
  // Requires compiled().
  const EventGraph& graph() const { return *graph_; }
  TimePoint clock() const {
    return detector_ != nullptr ? detector_->clock() : 0;
  }
  size_t TotalBufferedEntries() const {
    return detector_ != nullptr ? detector_->TotalBufferedEntries() : 0;
  }
  size_t PendingPseudoEvents() const {
    return detector_ != nullptr ? detector_->PendingPseudoEvents() : 0;
  }
  // First error encountered while evaluating conditions/actions on the
  // stream (streaming never aborts on action failures).
  const Status& first_deferred_error() const { return deferred_error_; }

  // One line per graph node: mode, canonical key, instances produced,
  // entries the node holds (its view of a shared buffer; Detector::
  // BufferedAt) and, for a window-family member, `family=#<rep>` — plus
  // queue/clock totals, whose `buffered=` counts each physical entry once
  // (Detector::TotalBufferedEntries). For operators and debugging;
  // requires compiled().
  std::string DebugReport() const;

 private:
  // Handles one rule match at the detector's current clock.
  void OnMatch(size_t rule_index, const events::EventInstancePtr& instance);
  // (Re)creates the detector over the compiled graph, with the
  // observability wiring (instruments/trace) applied; requires Compile()
  // to have resolved `metrics_` when metrics are enabled.
  void BuildDetector();
  // The snapshot rule-set fingerprint of the compiled rule set, computed
  // on the first checkpoint or restore (not in Compile(), which would
  // slow every set-up) and dropped by Decompile().
  uint64_t Fingerprint();
  // Runs `firing`'s actions on the calling thread, folding errors into
  // the stats and the deferred error and copying the dispatcher's
  // logical counters into the stats.
  void ExecuteActions(const RuleFiring& firing);

  store::Database* db_;
  events::Environment env_;
  EngineOptions options_;
  ActionDispatcher dispatcher_;
  std::vector<rules::Rule> rules_;
  StringViewMap<size_t> rule_index_;  // Rule id -> index in rules_.
  std::vector<uint64_t> fired_counts_;
  std::optional<EventGraph> graph_;
  std::optional<uint64_t> fingerprint_;  // See Fingerprint().
  // Declared before the detector, which holds instrument pointers into
  // the registry, so the registry is destroyed after it.
  common::MetricsRegistry registry_;
  std::unique_ptr<EngineInstruments> metrics_;  // Null when disabled.
  std::unique_ptr<Detector> detector_;
  MatchCallback match_callback_;
  EngineStats stats_;
  Status deferred_error_;
  TraceSink* trace_ = nullptr;                  // Not owned.
  uint64_t trace_obs_seq_ = 0;                  // Observation records.
  bool flushed_ = false;  // Stream ended by Flush(); cleared by
                          // Compile()/Reset(), restored from snapshots.
};

}  // namespace rfidcep::engine

#endif  // RFIDCEP_ENGINE_ENGINE_H_
