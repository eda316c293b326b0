// Rule firing and action dispatch.
//
// When a rule's event completes and its IF-condition holds, the engine
// executes the rule's DO-actions in order: SQL statements run against the
// RFID data store with the match's bindings as parameters; named
// procedures call back into the application (e.g. `send alarm`). The
// paper notes RFID rule actions neither inject new primitive events nor
// cascade rule firings — dispatch is therefore a terminal step.

#ifndef RFIDCEP_ENGINE_ACTIONS_H_
#define RFIDCEP_ENGINE_ACTIONS_H_

#include <functional>
#include <string>
#include <unordered_map>

#include "common/metrics.h"
#include "common/status.h"
#include "events/event_instance.h"
#include "rules/rule.h"
#include "store/database.h"
#include "store/sql_executor.h"
#include "store/wal.h"

namespace rfidcep::engine {

class TraceSink;

// Registry instrument handles for action dispatch; resolved by the
// engine at compile time. All fields are non-null when the struct is
// attached (SetObservability).
struct ActionInstruments {
  common::Counter* sql_actions = nullptr;
  common::Counter* rows_written = nullptr;  // Store rows touched by SQL.
  common::Counter* procedures = nullptr;
  common::Counter* unknown_procedures = nullptr;
  common::Counter* deduped = nullptr;  // WAL-deduplicated skips (recovery).
};

struct RuleFiring {
  const rules::Rule* rule = nullptr;
  events::EventInstancePtr instance;
  store::ParamMap params;   // Bindings of the match, as SQL parameters.
  TimePoint fire_time = 0;  // Engine clock at detection.
  // Engine-wide firing sequence number, deterministic across shard
  // layouts (assigned in canonical replay order). Dedup key half for
  // exactly-once effects when a WAL is attached.
  uint64_t seq = 0;
  // True for firings replayed from a restored snapshot's pending-action
  // section: the original event instance is gone, so a procedure whose
  // WAL frame was lost is credited but not re-invoked (see
  // docs/recovery.md "Exactly-once effects").
  bool replayed = false;
};

// A user procedure invoked by a DO-action. `args` is the raw text between
// the action's parentheses (may be empty).
using Procedure =
    std::function<void(const RuleFiring& firing, const std::string& args)>;

// Converts an instance's variable bindings into SQL parameters: scalar
// string/time bindings become scalar params, multi-valued bindings become
// multi params (usable only in BULK INSERT).
store::ParamMap BuildParams(const events::Bindings& bindings);

class ActionDispatcher {
 public:
  // `db` may be null if no rule uses SQL actions.
  explicit ActionDispatcher(store::Database* db) : db_(db) {}

  // Registers (or replaces) the handler for procedure `name` (matched
  // case-insensitively, whitespace-normalized).
  void RegisterProcedure(std::string_view name, Procedure procedure);

  // Attaches a write-ahead log: every successfully executed action —
  // SQL statements and procedure/alarm invocations alike — is appended
  // to it, and actions whose (rule, seq, index) key already appears in
  // the recovered log are skipped with their counters credited
  // (exactly-once across restore). The dedup set is read through the
  // WAL, not copied; the WAL must outlive the dispatcher.
  void AttachWal(store::Wal* wal) { wal_ = wal; }
  store::Wal* wal() const { return wal_; }

  // Runs every action of `firing.rule`. Returns the first error but still
  // attempts the remaining actions. Unregistered procedures are counted,
  // not errors (so examples can omit handlers).
  Status Dispatch(const RuleFiring& firing);

  // Counters are *logical*: a WAL-deduplicated skip counts as executed
  // (its effect is already in the recovered store), so an uninterrupted
  // run and a crash+restore run converge on identical totals.
  uint64_t sql_actions_executed() const { return sql_actions_executed_; }
  uint64_t procedures_invoked() const { return procedures_invoked_; }
  uint64_t unknown_procedures() const { return unknown_procedures_; }
  // Sets the logical counters: zero on an engine Reset, a checkpoint's
  // totals on restore, so counting continues from there.
  void SetCounters(uint64_t sql_actions, uint64_t procedures,
                   uint64_t unknown_procedures) {
    sql_actions_executed_ = sql_actions;
    procedures_invoked_ = procedures;
    unknown_procedures_ = unknown_procedures;
  }

  // Attaches (or detaches, with nulls) metrics and tracing. Both
  // pointers must outlive the dispatcher; the disabled path is a branch
  // on a null pointer.
  void SetObservability(const ActionInstruments* instruments,
                        TraceSink* trace) {
    instruments_ = instruments;
    trace_ = trace;
  }

 private:
  static std::string NormalizeName(std::string_view name);

  store::Database* db_;
  std::unordered_map<std::string, Procedure> procedures_;
  const ActionInstruments* instruments_ = nullptr;
  TraceSink* trace_ = nullptr;
  store::Wal* wal_ = nullptr;
  uint64_t sql_actions_executed_ = 0;
  uint64_t procedures_invoked_ = 0;
  uint64_t unknown_procedures_ = 0;
};

}  // namespace rfidcep::engine

#endif  // RFIDCEP_ENGINE_ACTIONS_H_
