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
  // Whether ExportMetrics() reports and Compile() registers the timing
  // histograms. When off, every timing site in the engine and detector
  // is a branch on a null pointer; counts are kept either way (they are
  // the statistics).
  bool enable_metrics = true;
};

// The engine's statistics. With the per-rule counts and per-node
// firings they are every count the engine exports: ExportMetrics() reads
// them, under their metric names, through RcedaEngine::CounterCatalog,
// and a snapshot carries each of them as a field (engine/snapshot.h).
// The action counts are the ActionStats base (engine/actions.h).
struct EngineStats : ActionStats {
  DetectorStats detector;
  uint64_t rules_fired = 0;        // Matches whose condition held.
  uint64_t condition_rejects = 0;  // Matches whose condition was false.
  uint64_t condition_errors = 0;
  uint64_t action_errors = 0;
  uint64_t process_calls = 0;      // Process / ProcessAll calls.
};

struct EngineInstruments;

class RcedaEngine {
 public:
  // Each rule's per-match timers (rule_match_handle_us, rule_condition_us,
  // rule_action_us) time its 1st, (N+1)th, (2N+1)th... match, N being
  // this period: the first sample is recorded with weight 1 and each
  // later one with weight N. A timer's _count therefore never exceeds
  // rule_matches_total and trails it by less than N, while _sum and the
  // buckets estimate every match (docs/observability.md).
  static constexpr uint64_t kMatchTimingPeriod = 64;

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
  // or removed again. Statistics and per-rule counts are preserved and
  // keep counting after the next Compile(); per-node firings belong to
  // the graph and restart with it. A removed rule's counts leave with it.
  void Decompile();

  // Rebuilds the detector: clears buffered partial matches, pending
  // pseudo events, and the clock (a new stream may start at t=0).
  // Statistics, per-rule counts and timing histograms are reset.
  // Requires compiled().
  Status Reset();

  // --- Streaming -----------------------------------------------------------
  // Lifecycle: every streaming call requires compiled() — Process /
  // ProcessAll / AdvanceTo before Compile() (or after Decompile()) fail
  // with kFailedPrecondition, as do all three after Flush() has ended the
  // stream. Flush() itself is idempotent; Reset() starts a new stream.
  Status Process(const events::Observation& obs);
  Status ProcessAll(const std::vector<events::Observation>& batch);
  // Fires pending pseudo events strictly before `t` / all of them. A
  // pseudo at exactly `t` stays pending so an observation at `t` can still
  // falsify or extend it first (same rule Process applies).
  Status AdvanceTo(TimePoint t);
  Status Flush();

  // --- Durability (docs/recovery.md) ---------------------------------------
  // Serializes the engine's detection state (engine/snapshot.h format).
  // Requires compiled(). Capture happens at one logical instant: the
  // engine first advances detection to the current clock, so expirations
  // scheduled strictly before it fire — and their matches are delivered —
  // as part of the checkpoint. Action side effects already in the store
  // are NOT captured.
  Status SerializeState(std::string* out);
  // Replaces detection state and counts from serialized `bytes`.
  // Requires compiled() with the same rule set and parameter context —
  // validated by the snapshot's rule-set fingerprint. All or nothing:
  // every failure leaves the engine as it was. Fails with
  // kFailedPrecondition on a fingerprint mismatch, on an attached WAL
  // that ends before the snapshot's durable LSN or starts past the record
  // after it, and on a layout this build does not restore (a format
  // version it does not read, a rule-sharded capture, pending action
  // firings, or state under a key the compiled graph lacks;
  // engine/snapshot.h), and with
  // kInvalidArgument on damaged or forged bytes: malformed records,
  // counts for a rule the engine lacks, and state shaped as capture
  // never writes it (Detector::RestoreState).
  Status RestoreState(std::string_view bytes);
  // SerializeState / RestoreState against the file at `path`. Checkpoint
  // writes `<path>.tmp`, fsyncs it, renames it over `path` and fsyncs the
  // directory (common::ReplaceFile), so a failed checkpoint or a crash
  // leaves the previous file or the new one restorable.
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
  // The store actions write to; null when the engine has none.
  store::Database* db() const { return db_; }

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
  // Attaches a JSONL lifecycle trace sink (see engine/trace.h) for the
  // next Compile(); null detaches. Requires !compiled(). The sink must
  // outlive the engine (or the next Decompile()).
  Status SetTraceSink(TraceSink* sink);
  // Prometheus text exposition (docs/observability.md has the catalog):
  // the counts of CounterCatalog() merged in name order with the
  // registry's histograms and gauges. "# metrics disabled" when
  // collection is off.
  std::string ExportMetrics() const;
  // What ExportMetrics() formats, copied at one instant; its
  // ExportText() is the exposition and reads nothing of the engine, so a
  // caller that guards the engine with a lock holds it for the copy
  // only (rfidcepd's /metrics). Empty when collection is off.
  common::MetricsSnapshot SnapshotMetrics() const;

  // --- Introspection -----------------------------------------------------------
  const EngineStats& stats() const { return stats_; }
  uint64_t FiredCount(std::string_view rule_id) const;
  size_t num_rules() const { return rules_.size(); }
  const rules::Rule& rule(size_t index) const { return rules_[index]; }
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
  // The compiled graph's node state keys (EventGraph::NodeStateKeys).
  std::vector<std::string> StateKeys() const;
  // Runs `firing`'s actions on the calling thread, counting them and
  // their errors in the stats and keeping the first error.
  void ExecuteActions(const RuleFiring& firing);
  // Every count under its metric name, sorted by name: the statistics,
  // the per-rule counts, the per-node firings and the pseudo-queue depth
  // and peak. ExportMetrics() merges it with the registry's instruments.
  std::vector<std::pair<std::string, uint64_t>> CounterCatalog() const;

  store::Database* db_;
  events::Environment env_;
  EngineOptions options_;
  ActionDispatcher dispatcher_;
  std::vector<rules::Rule> rules_;
  StringViewMap<size_t> rule_index_;  // Rule id -> index in rules_.
  struct RuleCounts {
    uint64_t matches = 0;  // Matches delivered, before the condition.
    uint64_t fired = 0;    // Matches whose condition held.
  };
  std::vector<RuleCounts> rule_counts_;  // By rule index, like rules_.
  std::optional<EventGraph> graph_;
  std::optional<uint64_t> fingerprint_;  // See Fingerprint().
  // Histograms and gauges only; the counts live in stats_ and
  // rule_counts_. Declared before the detector, which holds instrument
  // pointers into the registry, so the registry is destroyed after it.
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
