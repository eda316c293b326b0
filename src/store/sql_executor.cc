#include "store/sql_executor.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "store/sql_parser.h"

namespace rfidcep::store {

bool Truthy(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kNull:
      return false;
    case ValueKind::kInt:
      return v.AsInt() != 0;
    case ValueKind::kDouble:
      return v.AsDouble() != 0.0;
    case ValueKind::kString:
      return !v.AsString().empty();
    case ValueKind::kTime:
    case ValueKind::kUc:
      return true;
  }
  return false;
}

// --- ParamMap ---------------------------------------------------------------

ParamMap::ParamMap(std::vector<value_type> entries)
    : entries_(std::move(entries)) {
  const auto out_of_order = [](const value_type& a, const value_type& b) {
    return !(a.first < b.first);
  };
  if (std::adjacent_find(entries_.begin(), entries_.end(), out_of_order) ==
      entries_.end()) {
    return;  // Sorted and unique: what this build writes and builds.
  }
  // Sort positions by (name, position), so the first of a repeated name
  // leads its run, then permute the entries in place along the cycles of
  // that order: sorting costs four bytes per entry, not a copy of each.
  std::vector<uint32_t> order(entries_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    const int c = entries_[a].first.compare(entries_[b].first);
    return c != 0 ? c < 0 : a < b;
  });
  for (uint32_t i = 0; i < order.size(); ++i) {
    if (order[i] == i) continue;
    value_type held = std::move(entries_[i]);
    uint32_t j = i;
    while (order[j] != i) {
      const uint32_t k = order[j];
      entries_[j] = std::move(entries_[k]);
      order[j] = j;
      j = k;
    }
    entries_[j] = std::move(held);
    order[j] = j;
  }
  entries_.erase(std::unique(entries_.begin(), entries_.end(),
                             [](const value_type& a, const value_type& b) {
                               return a.first == b.first;
                             }),
                 entries_.end());
}

namespace {

bool NameBefore(const ParamMap::value_type& entry, std::string_view name) {
  return entry.first < name;
}

}  // namespace

std::vector<ParamMap::value_type>::iterator ParamMap::LowerBound(
    std::string_view name) {
  if (entries_.empty() || entries_.back().first < name) return entries_.end();
  return std::lower_bound(entries_.begin(), entries_.end(), name, NameBefore);
}

std::pair<ParamMap::const_iterator, bool> ParamMap::emplace(std::string name,
                                                            ParamValue value) {
  auto it = LowerBound(name);
  if (it != entries_.end() && it->first == name) return {it, false};
  return {entries_.emplace(it, std::move(name), std::move(value)), true};
}

ParamValue& ParamMap::operator[](std::string_view name) {
  auto it = LowerBound(name);
  if (it == entries_.end() || it->first != name) {
    it = entries_.emplace(it, std::string(name), ParamValue{});
  }
  return it->second;
}

const ParamValue& ParamMap::at(std::string_view name) const {
  const_iterator it = find(name);
  if (it == end()) {
    throw std::out_of_range("no parameter '" + std::string(name) + "'");
  }
  return it->second;
}

ParamMap::const_iterator ParamMap::find(std::string_view name) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), name,
                             NameBefore);
  return it != entries_.end() && it->first == name ? it : entries_.end();
}

namespace {

// Identifier resolution context: an identifier bound to a column reads it
// from `row` when there is one; every other identifier reads a rule
// parameter. `multi_index` selects the element of multi-valued
// parameters during BULK expansion; -1 forbids multi-valued parameters.
struct EvalContext {
  const Row* row = nullptr;
  const ParamMap* params = nullptr;
  int multi_index = -1;
};

// Points *out at the value identifier `expr` names under `ctx`.
Status LookupIdentifier(const SqlExpr& expr, const EvalContext& ctx,
                        const Value** out) {
  if (ctx.row != nullptr && expr.column >= 0) {
    *out = &(*ctx.row)[static_cast<size_t>(expr.column)];
    return Status::Ok();
  }
  const std::string& name = expr.identifier;
  if (ctx.params != nullptr) {
    auto it = ctx.params->find(name);
    if (it != ctx.params->end()) {
      const ParamValue& param = it->second;
      if (!param.is_multi) {
        *out = &param.scalar;
        return Status::Ok();
      }
      if (ctx.multi_index < 0) {
        return Status::FailedPrecondition(
            "multi-valued parameter '" + name +
            "' may only be used in a BULK INSERT");
      }
      if (static_cast<size_t>(ctx.multi_index) >= param.values.size()) {
        return Status::Internal("multi-valued parameter '" + name +
                                "' index out of range");
      }
      *out = &param.values[static_cast<size_t>(ctx.multi_index)];
      return Status::Ok();
    }
  }
  return Status::NotFound("unresolved identifier '" + name +
                          "' (neither a column nor a bound parameter)");
}

Result<Value> Evaluate(const SqlExpr& expr, const EvalContext& ctx);

// Evaluates `expr` for reading: a literal, column or parameter is read
// where it lives, anything else is computed into *scratch. *out points at
// the result.
Status EvaluateInPlace(const SqlExpr& expr, const EvalContext& ctx,
                       Value* scratch, const Value** out) {
  switch (expr.kind) {
    case SqlExpr::Kind::kLiteral:
      *out = &expr.literal;
      return Status::Ok();
    case SqlExpr::Kind::kIdentifier:
      return LookupIdentifier(expr, ctx, out);
    default:
      break;
  }
  Result<Value> v = Evaluate(expr, ctx);
  if (!v.ok()) return v.status();
  *scratch = std::move(*v);
  *out = scratch;
  return Status::Ok();
}

Result<Value> EvaluateArithmetic(SqlBinOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (!l.IsNumeric() || !r.IsNumeric()) {
    return Status::InvalidArgument("arithmetic on non-numeric values");
  }
  bool use_double =
      l.kind() == ValueKind::kDouble || r.kind() == ValueKind::kDouble;
  if (use_double) {
    double a = l.NumericValue();
    double b = r.NumericValue();
    switch (op) {
      case SqlBinOp::kAdd:
        return Value::Double(a + b);
      case SqlBinOp::kSub:
        return Value::Double(a - b);
      case SqlBinOp::kMul:
        return Value::Double(a * b);
      case SqlBinOp::kDiv:
        if (b == 0.0) return Status::InvalidArgument("division by zero");
        return Value::Double(a / b);
      default:
        break;
    }
    return Status::Internal("not an arithmetic op");
  }
  int64_t a = l.kind() == ValueKind::kTime ? l.AsTime() : l.AsInt();
  int64_t b = r.kind() == ValueKind::kTime ? r.AsTime() : r.AsInt();
  bool time_a = l.kind() == ValueKind::kTime;
  bool time_b = r.kind() == ValueKind::kTime;
  // A result past int64 is an error, as division by zero is: wrapping
  // would let a condition on timestamps near the end of time hold.
  int64_t v = 0;
  bool overflow = false;
  switch (op) {
    case SqlBinOp::kAdd:
      overflow = __builtin_add_overflow(a, b, &v);
      break;
    case SqlBinOp::kSub:
      overflow = __builtin_sub_overflow(a, b, &v);
      break;
    case SqlBinOp::kMul:
      overflow = __builtin_mul_overflow(a, b, &v);
      break;
    case SqlBinOp::kDiv:
      if (b == 0) return Status::InvalidArgument("division by zero");
      overflow = a == std::numeric_limits<int64_t>::min() && b == -1;
      if (!overflow) v = a / b;
      break;
    default:
      return Status::Internal("not an arithmetic op");
  }
  if (overflow) return Status::InvalidArgument("integer overflow");
  // A time plus or minus a number is a time; a time minus a time is a
  // duration.
  const bool is_time = (op == SqlBinOp::kAdd && (time_a || time_b)) ||
                       (op == SqlBinOp::kSub && time_a != time_b);
  return is_time ? Value::Time(v) : Value::Int(v);
}

Result<Value> Evaluate(const SqlExpr& expr, const EvalContext& ctx) {
  Value l_scratch;
  const Value* l = nullptr;
  switch (expr.kind) {
    case SqlExpr::Kind::kLiteral:
      return expr.literal;
    case SqlExpr::Kind::kIdentifier:
      RFIDCEP_RETURN_IF_ERROR(LookupIdentifier(expr, ctx, &l));
      return *l;
    case SqlExpr::Kind::kNot:
      RFIDCEP_RETURN_IF_ERROR(EvaluateInPlace(*expr.lhs, ctx, &l_scratch, &l));
      return Value::Int(Truthy(*l) ? 0 : 1);
    case SqlExpr::Kind::kIsNull: {
      RFIDCEP_RETURN_IF_ERROR(EvaluateInPlace(*expr.lhs, ctx, &l_scratch, &l));
      bool is_null = l->is_null();
      return Value::Int((expr.negated ? !is_null : is_null) ? 1 : 0);
    }
    case SqlExpr::Kind::kBinary:
      break;
  }

  RFIDCEP_RETURN_IF_ERROR(EvaluateInPlace(*expr.lhs, ctx, &l_scratch, &l));
  Value r_scratch;
  const Value* r = nullptr;
  // Short-circuit boolean operators.
  if (expr.op == SqlBinOp::kAnd || expr.op == SqlBinOp::kOr) {
    bool lt = Truthy(*l);
    if (expr.op == SqlBinOp::kAnd && !lt) return Value::Int(0);
    if (expr.op == SqlBinOp::kOr && lt) return Value::Int(1);
    RFIDCEP_RETURN_IF_ERROR(EvaluateInPlace(*expr.rhs, ctx, &r_scratch, &r));
    return Value::Int(Truthy(*r) ? 1 : 0);
  }

  RFIDCEP_RETURN_IF_ERROR(EvaluateInPlace(*expr.rhs, ctx, &r_scratch, &r));
  switch (expr.op) {
    case SqlBinOp::kEq:
      return Value::Int(l->EqualsSql(*r) ? 1 : 0);
    case SqlBinOp::kNe:
      if (l->is_null() || r->is_null()) return Value::Int(0);
      return Value::Int(l->EqualsSql(*r) ? 0 : 1);
    case SqlBinOp::kLt:
    case SqlBinOp::kLe:
    case SqlBinOp::kGt:
    case SqlBinOp::kGe: {
      if (l->is_null() || r->is_null()) return Value::Int(0);
      int cmp = l->Compare(*r);
      bool result = false;
      if (expr.op == SqlBinOp::kLt) result = cmp < 0;
      if (expr.op == SqlBinOp::kLe) result = cmp <= 0;
      if (expr.op == SqlBinOp::kGt) result = cmp > 0;
      if (expr.op == SqlBinOp::kGe) result = cmp >= 0;
      return Value::Int(result ? 1 : 0);
    }
    case SqlBinOp::kAdd:
    case SqlBinOp::kSub:
    case SqlBinOp::kMul:
    case SqlBinOp::kDiv:
      return EvaluateArithmetic(expr.op, *l, *r);
    case SqlBinOp::kAnd:
    case SqlBinOp::kOr:
      break;  // Handled above.
  }
  return Status::Internal("unhandled binary operator");
}

// --- Resolution -------------------------------------------------------------

std::vector<const SqlExpr*> Identifiers(const SqlExpr& expr) {
  std::vector<const SqlExpr*> identifiers;
  expr.CollectIdentifiers(&identifiers);
  return identifiers;
}

// Binds each identifier of `expr` to the column of `schema` it names.
void BindColumns(const SqlExpr* expr, const Schema& schema) {
  if (expr == nullptr) return;
  for (const SqlExpr* ident : Identifiers(*expr)) {
    ident->column = schema.FindColumn(ident->identifier);
  }
}

// Appends the WHERE conjuncts `column = value` whose value reads no
// column, in the order an index probe tries them: an AND's left side
// first, and within `a = b`, `a` as the column first.
void CollectProbes(const SqlExpr* where,
                   std::vector<std::pair<size_t, const SqlExpr*>>* probes) {
  if (where == nullptr || where->kind != SqlExpr::Kind::kBinary) return;
  if (where->op == SqlBinOp::kAnd) {
    CollectProbes(where->lhs.get(), probes);
    CollectProbes(where->rhs.get(), probes);
    return;
  }
  if (where->op != SqlBinOp::kEq) return;
  auto add = [probes](const SqlExpr& ident, const SqlExpr& value) {
    if (ident.kind != SqlExpr::Kind::kIdentifier || ident.column < 0) return;
    for (const SqlExpr* read : Identifiers(value)) {
      if (read->column >= 0) return;
    }
    probes->emplace_back(static_cast<size_t>(ident.column), &value);
  };
  add(*where->lhs, *where->rhs);
  add(*where->rhs, *where->lhs);
}

// Resolves a DML statement against `db` unless it is resolved against
// db's current schema already. Fails, and stays unresolved, with the
// error its execution would have met: a missing table or column, or an
// INSERT of the wrong width.
Status Bind(const SqlStatement& stmt, Database* db) {
  SqlBinding& bound = stmt.bound;
  if (bound.schema_version == db->schema_version()) return Status::Ok();
  bound = SqlBinding{};  // Unresolved until the last line.
  Table* table = db->GetTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("no table '" + stmt.table + "'");
  }
  const Schema& schema = table->schema();
  switch (stmt.kind) {
    case SqlStatement::Kind::kInsert:
      if (stmt.insert_columns.empty()) {
        if (stmt.insert_values.size() != schema.num_columns()) {
          return Status::InvalidArgument(
              "INSERT into '" + stmt.table + "' needs " +
              std::to_string(schema.num_columns()) + " values, got " +
              std::to_string(stmt.insert_values.size()));
        }
        for (size_t i = 0; i < schema.num_columns(); ++i) {
          bound.insert_columns.push_back(i);
        }
      } else {
        if (stmt.insert_columns.size() != stmt.insert_values.size()) {
          return Status::InvalidArgument("INSERT column/value count mismatch");
        }
        for (const std::string& name : stmt.insert_columns) {
          int column = schema.FindColumn(name);
          if (column < 0) {
            return Status::NotFound("no column '" + name + "' in table '" +
                                    stmt.table + "'");
          }
          bound.insert_columns.push_back(static_cast<size_t>(column));
        }
      }
      if (stmt.bulk) {
        for (const SqlExprPtr& value : stmt.insert_values) {
          for (const SqlExpr* ident : Identifiers(*value)) {
            const std::string_view name = ident->identifier;
            if (std::find(bound.bulk_params.begin(), bound.bulk_params.end(),
                          name) == bound.bulk_params.end()) {
              bound.bulk_params.push_back(name);
            }
          }
        }
      }
      break;
    case SqlStatement::Kind::kUpdate:
      for (const auto& [name, expr] : stmt.set_clauses) {
        int column = schema.FindColumn(name);
        if (column < 0) {
          return Status::NotFound("no column '" + name + "' in table '" +
                                  stmt.table + "'");
        }
        bound.set_columns.push_back(static_cast<size_t>(column));
        BindColumns(expr.get(), schema);
      }
      break;
    case SqlStatement::Kind::kSelect:
      for (const SqlExprPtr& expr : stmt.select_exprs) {
        BindColumns(expr.get(), schema);
      }
      break;
    default:
      break;
  }
  BindColumns(stmt.where.get(), schema);
  CollectProbes(stmt.where.get(), &bound.probes);
  bound.table = table;
  bound.schema_version = db->schema_version();
  return Status::Ok();
}

// --- Execution --------------------------------------------------------------

// Determines the BULK expansion width: the common length of all
// multi-valued parameters among `names` (1 when none).
Result<size_t> BulkWidth(const std::vector<std::string_view>& names,
                         const ParamMap& params) {
  size_t width = 0;
  bool found = false;
  for (std::string_view name : names) {
    auto it = params.find(name);
    if (it == params.end() || !it->second.is_multi) continue;
    size_t len = it->second.values.size();
    if (found && len != width) {
      return Status::InvalidArgument(
          "multi-valued parameters of different lengths in BULK INSERT");
    }
    width = len;
    found = true;
  }
  return found ? width : size_t{1};
}

Result<ExecResult> ExecuteInsert(const SqlStatement& stmt,
                                 const ParamMap& params) {
  const SqlBinding& bound = stmt.bound;
  size_t width = 1;
  if (stmt.bulk) {
    RFIDCEP_ASSIGN_OR_RETURN(width, BulkWidth(bound.bulk_params, params));
  }
  const size_t num_columns = bound.table->schema().num_columns();
  ExecResult result;
  for (size_t k = 0; k < width; ++k) {
    EvalContext ctx;
    ctx.params = &params;
    ctx.multi_index = stmt.bulk ? static_cast<int>(k) : -1;
    Row row(num_columns);
    for (size_t i = 0; i < stmt.insert_values.size(); ++i) {
      RFIDCEP_ASSIGN_OR_RETURN(row[bound.insert_columns[i]],
                               Evaluate(*stmt.insert_values[i], ctx));
    }
    RFIDCEP_RETURN_IF_ERROR(bound.table->Insert(std::move(row)));
    ++result.affected;
  }
  return result;
}

// Index probe: the first of the statement's probes whose column is
// indexed and whose value evaluates, without row context, to non-NULL.
// When found, UPDATE/DELETE/SELECT visit only that key's rows and apply
// the full WHERE as a residual check — this is what keeps per-event rule
// actions like Rule 3's `UPDATE OBJECTLOCATION ... WHERE object_epc = o`
// constant-time.
struct IndexProbe {
  ColumnKey key;  // Null value: no probe applies, so scan.
  Value scratch;  // Holds a computed key.
};

void FindIndexProbe(const SqlBinding& bound, const ParamMap& params,
                    IndexProbe* probe) {
  EvalContext ctx;
  ctx.params = &params;  // No row: values read parameters only.
  for (const auto& [column, value] : bound.probes) {
    if (!bound.table->HasIndex(column)) continue;
    const Value* key = nullptr;
    if (!EvaluateInPlace(*value, ctx, &probe->scratch, &key).ok() ||
        key->is_null()) {
      continue;
    }
    probe->key = ColumnKey{column, key};
    return;
  }
}

// Wraps Evaluate as a row predicate, capturing the first error.
class RowPredicate {
 public:
  RowPredicate(const SqlExpr* where, const ParamMap* params)
      : where_(where), params_(params) {}

  bool operator()(const Row& row) {
    if (where_ == nullptr) return true;
    EvalContext ctx;
    ctx.row = &row;
    ctx.params = params_;
    Value scratch;
    const Value* v = nullptr;
    Status status = EvaluateInPlace(*where_, ctx, &scratch, &v);
    if (!status.ok()) {
      if (error_.ok()) error_ = std::move(status);
      return false;
    }
    return Truthy(*v);
  }

  const Status& error() const { return error_; }

 private:
  const SqlExpr* where_;
  const ParamMap* params_;
  Status error_;
};

Result<ExecResult> ExecuteUpdate(const SqlStatement& stmt,
                                 const ParamMap& params) {
  const SqlBinding& bound = stmt.bound;
  RowPredicate pred(stmt.where.get(), &params);
  IndexProbe probe;
  FindIndexProbe(bound, params, &probe);
  Status eval_error;
  // Evaluates all new values against the pre-update row, then assigns,
  // so `SET a = b, b = a` behaves like simultaneous assignment.
  std::vector<Value> new_values;
  auto assign = [&](Row* row) {
    EvalContext ctx;
    ctx.row = row;
    ctx.params = &params;
    auto value_of = [&](size_t i) {
      Result<Value> v = Evaluate(*stmt.set_clauses[i].second, ctx);
      if (v.ok()) return std::move(*v);
      if (eval_error.ok()) eval_error = v.status();
      return Value::Null();
    };
    if (stmt.set_clauses.size() == 1) {  // Nothing to hold back.
      (*row)[bound.set_columns[0]] = value_of(0);
      return;
    }
    new_values.clear();
    for (size_t i = 0; i < stmt.set_clauses.size(); ++i) {
      new_values.push_back(value_of(i));
    }
    for (size_t i = 0; i < new_values.size(); ++i) {
      (*row)[bound.set_columns[i]] = std::move(new_values[i]);
    }
  };
  // One-reference closures, which std::function holds without allocating.
  auto row_pred = [&pred](const Row& row) { return pred(row); };
  auto mutate = [&assign](Row* row) { assign(row); };
  Result<size_t> updated =
      bound.table->UpdateWhere(row_pred, mutate, probe.key);
  RFIDCEP_RETURN_IF_ERROR(pred.error());
  RFIDCEP_RETURN_IF_ERROR(eval_error);
  if (!updated.ok()) return updated.status();
  ExecResult result;
  result.affected = *updated;
  return result;
}

Result<ExecResult> ExecuteDelete(const SqlStatement& stmt,
                                 const ParamMap& params) {
  const SqlBinding& bound = stmt.bound;
  RowPredicate pred(stmt.where.get(), &params);
  IndexProbe probe;
  FindIndexProbe(bound, params, &probe);
  auto row_pred = [&pred](const Row& row) { return pred(row); };
  ExecResult result;
  result.affected = bound.table->DeleteWhere(row_pred, probe.key);
  RFIDCEP_RETURN_IF_ERROR(pred.error());
  return result;
}

Result<ExecResult> ExecuteSelect(const SqlStatement& stmt,
                                 const ParamMap& params) {
  const SqlBinding& bound = stmt.bound;
  const Schema& schema = bound.table->schema();
  RowPredicate pred(stmt.where.get(), &params);
  IndexProbe probe;
  FindIndexProbe(bound, params, &probe);
  auto row_pred = [&pred](const Row& row) { return pred(row); };
  std::vector<Row> matched = bound.table->SelectWhere(row_pred, probe.key);
  RFIDCEP_RETURN_IF_ERROR(pred.error());

  // ORDER BY.
  if (!stmt.order_by.empty()) {
    std::vector<std::pair<size_t, bool>> keys;
    for (const SqlOrderBy& order : stmt.order_by) {
      int column = schema.FindColumn(order.column);
      if (column < 0) {
        return Status::NotFound("no column '" + order.column + "' in table '" +
                                stmt.table + "'");
      }
      keys.emplace_back(static_cast<size_t>(column), order.ascending);
    }
    std::stable_sort(matched.begin(), matched.end(),
                     [&keys](const Row& a, const Row& b) {
                       for (const auto& [column, ascending] : keys) {
                         int cmp = a[column].Compare(b[column]);
                         if (cmp != 0) return ascending ? cmp < 0 : cmp > 0;
                       }
                       return false;
                     });
  }
  if (stmt.limit.has_value() &&
      matched.size() > static_cast<size_t>(*stmt.limit)) {
    matched.resize(static_cast<size_t>(*stmt.limit));
  }

  ExecResult result;
  if (stmt.select_count) {
    result.column_names.push_back("COUNT(*)");
    result.rows.push_back(
        Row{Value::Int(static_cast<int64_t>(matched.size()))});
    result.affected = 1;
    return result;
  }
  if (stmt.select_star) {
    for (const Column& column : schema.columns()) {
      result.column_names.push_back(column.name);
    }
    result.rows = std::move(matched);
  } else {
    for (const SqlExprPtr& expr : stmt.select_exprs) {
      result.column_names.push_back(expr->ToString());
    }
    for (const Row& row : matched) {
      EvalContext ctx;
      ctx.row = &row;
      ctx.params = &params;
      Row projected;
      projected.reserve(stmt.select_exprs.size());
      for (const SqlExprPtr& expr : stmt.select_exprs) {
        RFIDCEP_ASSIGN_OR_RETURN(Value v, Evaluate(*expr, ctx));
        projected.push_back(std::move(v));
      }
      result.rows.push_back(std::move(projected));
    }
  }
  result.affected = result.rows.size();
  return result;
}

}  // namespace

Result<ExecResult> ExecuteSql(const SqlStatement& stmt, Database* db,
                              const ParamMap& params) {
  switch (stmt.kind) {
    case SqlStatement::Kind::kCreateTable: {
      RFIDCEP_RETURN_IF_ERROR(
          db->CreateTable(stmt.table, Schema(stmt.columns)));
      return ExecResult{};
    }
    case SqlStatement::Kind::kCreateIndex: {
      Table* table = db->GetTable(stmt.table);
      if (table == nullptr) {
        return Status::NotFound("no table '" + stmt.table + "'");
      }
      RFIDCEP_RETURN_IF_ERROR(table->CreateIndex(stmt.index_column));
      return ExecResult{};
    }
    case SqlStatement::Kind::kInsert:
      RFIDCEP_RETURN_IF_ERROR(Bind(stmt, db));
      return ExecuteInsert(stmt, params);
    case SqlStatement::Kind::kUpdate:
      RFIDCEP_RETURN_IF_ERROR(Bind(stmt, db));
      return ExecuteUpdate(stmt, params);
    case SqlStatement::Kind::kDelete:
      RFIDCEP_RETURN_IF_ERROR(Bind(stmt, db));
      return ExecuteDelete(stmt, params);
    case SqlStatement::Kind::kSelect:
      RFIDCEP_RETURN_IF_ERROR(Bind(stmt, db));
      return ExecuteSelect(stmt, params);
  }
  return Status::Internal("unhandled statement kind");
}

Result<ExecResult> ExecuteSql(std::string_view sql, Database* db,
                              const ParamMap& params) {
  RFIDCEP_ASSIGN_OR_RETURN(SqlStatement stmt, ParseSql(sql));
  return ExecuteSql(stmt, db, params);
}

Result<bool> EvaluateCondition(const SqlExpr& expr, const ParamMap& params) {
  EvalContext ctx;
  ctx.params = &params;
  Value scratch;
  const Value* v = nullptr;
  RFIDCEP_RETURN_IF_ERROR(EvaluateInPlace(expr, ctx, &scratch, &v));
  return Truthy(*v);
}

}  // namespace rfidcep::store
