#include "engine/actions.h"

#include <cctype>
#include <optional>

#include "engine/trace.h"

namespace rfidcep::engine {

namespace {

store::Value ToValue(const events::BindingValue& value) {
  if (const events::SharedText* text =
          std::get_if<events::SharedText>(&value)) {
    return store::Value::String(text->str());
  }
  return store::Value::Time(std::get<TimePoint>(value));
}

}  // namespace

store::ParamMap BuildParams(const events::Bindings& bindings) {
  store::ParamMap params;
  params.reserve(bindings.scalars().size() + bindings.multis().size());
  for (const auto& [var, value] : bindings.scalars()) {
    params.emplace(events::SymbolName(var),
                   store::ParamValue::Scalar(ToValue(value)));
  }
  for (const auto& [var, values] : bindings.multis()) {
    std::vector<store::Value> converted;
    converted.reserve(values.size());
    for (const events::BindingValue& value : values) {
      converted.push_back(ToValue(value));
    }
    params.emplace(events::SymbolName(var),
                   store::ParamValue::Multi(std::move(converted)));
  }
  return params;
}

std::string ActionDispatcher::NormalizeName(std::string_view name) {
  std::string out;
  bool pending_space = false;
  for (char c : name) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out += ' ';
      pending_space = false;
    }
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

void ActionDispatcher::RegisterProcedure(std::string_view name,
                                         Procedure procedure) {
  procedures_[NormalizeName(name)] = std::move(procedure);
}

Status ActionDispatcher::Dispatch(const RuleFiring& firing,
                                  ActionStats* stats) {
  Status first_error;
  // The rule's recovered keys, when this firing may be among them: null
  // without a WAL and once the firing is past the rule's highest
  // recovered sequence, so a live stream skips the lookups.
  const store::WalActionSet::RuleEntries* recovered =
      wal_ != nullptr
          ? wal_->recovered_actions().Candidates(firing.rule->id, firing.seq)
          : nullptr;
  const auto& actions = firing.rule->actions;
  for (uint32_t index = 0; index < actions.size(); ++index) {
    const rules::RuleAction& action = actions[index];
    switch (action.kind) {
      case rules::RuleAction::Kind::kSql: {
        if (db_ == nullptr) {
          if (first_error.ok()) {
            first_error = Status::FailedPrecondition(
                "rule '" + firing.rule->id +
                "' has SQL actions but the engine has no database");
          }
          continue;
        }
        if (recovered != nullptr) {
          if (std::optional<uint32_t> affected =
                  store::WalActionSet::Find(*recovered, firing.seq, index)) {
            // Effect already durable (recovered from the log): credit the
            // logical counters and skip re-execution.
            ++stats->sql_actions_executed;
            stats->rows_written += *affected;
            ++stats->actions_deduped;
            continue;
          }
        }
        Result<store::ExecResult> result =
            store::ExecuteSql(action.sql, db_, firing.params);
        if (trace_ != nullptr) {
          trace_->RecordAction(firing.rule->id, "sql", result.ok());
        }
        if (!result.ok()) {
          if (first_error.ok()) first_error = result.status();
          continue;
        }
        if (wal_ != nullptr) {
          Result<uint64_t> appended = wal_->Append(store::WalAppend(
              store::WalRecordKind::kSql, firing.seq, index,
              static_cast<uint32_t>(result->affected), firing.rule->id,
              action.sql_text, firing.params));
          if (!appended.ok() && first_error.ok()) {
            first_error = appended.status();
          }
        }
        ++stats->sql_actions_executed;
        stats->rows_written += result->affected;
        break;
      }
      case rules::RuleAction::Kind::kProcedure: {
        const std::string name = NormalizeName(action.procedure_name);
        auto it = procedures_.find(name);
        if (it == procedures_.end()) {
          ++stats->unknown_procedures;
          continue;
        }
        if (recovered != nullptr &&
            store::WalActionSet::Find(*recovered, firing.seq, index)) {
          // The callback already ran before the crash and its frame
          // survived in the log: credit the logical counters and skip
          // re-invocation — this is what keeps alarms single-fire
          // across a restore.
          ++stats->procedures_invoked;
          ++stats->actions_deduped;
          if (trace_ != nullptr) {
            trace_->RecordAction(firing.rule->id, "proc", true);
          }
          continue;
        }
        it->second(firing, action.procedure_args);
        if (wal_ != nullptr) {
          // Log after the callback returns. A crash in between loses the
          // frame and recovery re-invokes: external effects are
          // at-least-once in that window (docs/recovery.md), while
          // logging first would let a logged-but-never-run alarm vanish
          // entirely, which is worse.
          Result<uint64_t> appended = wal_->Append(store::WalAppend(
              name.find("alarm") != std::string::npos
                  ? store::WalRecordKind::kAlarm
                  : store::WalRecordKind::kProcedure,
              firing.seq, index, /*affected=*/0, firing.rule->id, name,
              firing.params));
          if (!appended.ok() && first_error.ok()) {
            first_error = appended.status();
          }
        }
        ++stats->procedures_invoked;
        if (trace_ != nullptr) {
          trace_->RecordAction(firing.rule->id, "proc", true);
        }
        break;
      }
    }
  }
  return first_error;
}

}  // namespace rfidcep::engine
