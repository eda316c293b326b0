// Executor for the mini-SQL dialect against a Database.
//
// Rule actions carry parameters bound from the matched event instance
// ("o", "r", "t2", ...). Scalar parameters substitute directly; a
// multi-valued parameter (from an aperiodic-sequence match) may only be
// used inside a BULK INSERT, which expands to one row per element — the
// paper's Rule 4 `BULK INSERT INTO CONTAINMENT VALUES (o2, o1, t2, "UC")`.

#ifndef RFIDCEP_STORE_SQL_EXECUTOR_H_
#define RFIDCEP_STORE_SQL_EXECUTOR_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "store/database.h"
#include "store/sql_ast.h"

namespace rfidcep::store {

struct ParamValue {
  bool is_multi = false;
  Value scalar;                // Valid when !is_multi.
  std::vector<Value> values;   // Valid when is_multi.

  static ParamValue Scalar(Value v) {
    ParamValue p;
    p.scalar = std::move(v);
    return p;
  }
  static ParamValue Multi(std::vector<Value> vs) {
    ParamValue p;
    p.is_multi = true;
    p.values = std::move(vs);
    return p;
  }
};

// A firing's parameters by name: one flat vector sorted by name, built
// once per firing and read by binary search. emplace keeps the first
// value given for a name, as std::map::emplace does.
class ParamMap {
 public:
  using value_type = std::pair<std::string, ParamValue>;
  using const_iterator = std::vector<value_type>::const_iterator;

  ParamMap() = default;
  // Takes `entries` in any order: sorted by name, the first of each
  // repeated name kept, as emplacing them one by one would.
  explicit ParamMap(std::vector<value_type> entries);

  void reserve(size_t n) { entries_.reserve(n); }
  // Inserts unless `name` is present; returns the entry and whether it
  // was inserted.
  std::pair<const_iterator, bool> emplace(std::string name, ParamValue value);
  // The value of `name`, inserted as a scalar NULL when absent.
  ParamValue& operator[](std::string_view name);
  // The value of `name`; throws std::out_of_range when absent.
  const ParamValue& at(std::string_view name) const;
  const_iterator find(std::string_view name) const;

  size_t size() const { return entries_.size(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

 private:
  std::vector<value_type>::iterator LowerBound(std::string_view name);

  std::vector<value_type> entries_;  // Sorted by name, names unique.
};

struct ExecResult {
  size_t affected = 0;                    // Rows inserted/updated/deleted.
  std::vector<std::string> column_names;  // SELECT only.
  std::vector<Row> rows;                  // SELECT only.
};

// Executes a parsed statement. `params` supplies rule-match bindings.
Result<ExecResult> ExecuteSql(const SqlStatement& stmt, Database* db,
                              const ParamMap& params = {});

// Convenience: parse + execute.
Result<ExecResult> ExecuteSql(std::string_view sql, Database* db,
                              const ParamMap& params = {});

// Evaluates a standalone boolean expression (a rule IF-condition) against
// `params` only (no row context). NULL results are false.
Result<bool> EvaluateCondition(const SqlExpr& expr, const ParamMap& params);

// True in the SQL sense: non-null, non-zero number, non-empty string.
bool Truthy(const Value& v);

}  // namespace rfidcep::store

#endif  // RFIDCEP_STORE_SQL_EXECUTOR_H_
