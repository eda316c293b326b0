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

#include "common/status.h"
#include "events/event_instance.h"
#include "rules/rule.h"
#include "store/database.h"
#include "store/sql_executor.h"
#include "store/wal.h"

namespace rfidcep::engine {

class TraceSink;

// What dispatch did, counted logically: a WAL-deduplicated skip counts
// as executed (its effect is already in the recovered store), so an
// uninterrupted run and a crash+restore run converge on identical totals.
struct ActionStats {
  uint64_t sql_actions_executed = 0;
  uint64_t procedures_invoked = 0;
  uint64_t unknown_procedures = 0;
  uint64_t rows_written = 0;     // Store rows SQL actions touched.
  uint64_t actions_deduped = 0;  // Skipped: already in the recovered WAL.
};

struct RuleFiring {
  const rules::Rule* rule = nullptr;
  events::EventInstancePtr instance;
  store::ParamMap params;   // Bindings of the match, as SQL parameters.
  TimePoint fire_time = 0;  // Engine clock at detection.
  // The rule's fired ordinal, which snapshots carry, so a run and its
  // restored continuation number firings alike. Dedup key half for
  // exactly-once effects when a WAL is attached.
  uint64_t seq = 0;
};

// A user procedure invoked by a DO-action. `args` is the raw text between
// the action's parentheses (may be empty).
using Procedure =
    std::function<void(const RuleFiring& firing, const std::string& args)>;

// Converts an instance's variable bindings into SQL parameters: scalar
// string/time bindings become scalar params, multi-valued bindings become
// multi params (usable only in BULK INSERT). One flat vector per firing,
// which every action, the condition and the WAL append then read.
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

  // Runs every action of `firing.rule`, adding what it did to `*stats`.
  // Returns the first error but still attempts the remaining actions.
  // Unregistered procedures are counted, not errors (so examples can omit
  // handlers).
  Status Dispatch(const RuleFiring& firing, ActionStats* stats);

  // Attaches (or detaches, with null) the lifecycle trace. The sink must
  // outlive the dispatcher; the disabled path is a branch on a null
  // pointer.
  void SetTraceSink(TraceSink* trace) { trace_ = trace; }

 private:
  static std::string NormalizeName(std::string_view name);

  store::Database* db_;
  std::unordered_map<std::string, Procedure> procedures_;
  TraceSink* trace_ = nullptr;
  store::Wal* wal_ = nullptr;
};

}  // namespace rfidcep::engine

#endif  // RFIDCEP_ENGINE_ACTIONS_H_
