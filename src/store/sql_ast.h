// AST for the mini-SQL dialect used by RFID rule actions (paper §3).
//
// Supported statements:
//   CREATE TABLE t (col TYPE, ...)
//   CREATE INDEX ON t (col)
//   [BULK] INSERT INTO t [(cols)] VALUES (expr, ...)
//   UPDATE t SET col = expr, ... [WHERE cond]
//   DELETE FROM t [WHERE cond]
//   SELECT * | expr, ... FROM t [WHERE cond] [ORDER BY col [ASC|DESC], ...]
//     [LIMIT n]
//
// Identifiers in expressions resolve to the current table's columns first
// and otherwise to rule-match parameters ("o", "t2", ...) bound at
// execution time — that is how the paper's actions reference event
// attributes, e.g. `UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o`.
// The executor resolves the table and the columns once per database
// schema and keeps the result on the statement (SqlStatement::bound).

#ifndef RFIDCEP_STORE_SQL_AST_H_
#define RFIDCEP_STORE_SQL_AST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "store/schema.h"
#include "store/value.h"

namespace rfidcep::store {

enum class SqlBinOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kAdd,
  kSub,
  kMul,
  kDiv,
};

std::string_view SqlBinOpName(SqlBinOp op);

class Table;

struct SqlExpr;
using SqlExprPtr = std::unique_ptr<SqlExpr>;

struct SqlExpr {
  enum class Kind { kLiteral, kIdentifier, kBinary, kNot, kIsNull };

  Kind kind;
  // kLiteral:
  Value literal;
  // kIdentifier:
  std::string identifier;
  // kBinary / kNot / kIsNull:
  SqlBinOp op = SqlBinOp::kEq;
  SqlExprPtr lhs;
  SqlExprPtr rhs;       // Unused for kNot/kIsNull.
  bool negated = false;  // kIsNull: IS NOT NULL.
  // kIdentifier: the column it names in its statement's table, as of the
  // statement's last resolution; -1 when it names none, so it reads a
  // parameter. Read only with a row in hand: without one (an index probe
  // value, a rule condition) every identifier is a parameter.
  mutable int column = -1;

  static SqlExprPtr Literal(Value v);
  static SqlExprPtr Identifier(std::string name);
  static SqlExprPtr Binary(SqlBinOp op, SqlExprPtr l, SqlExprPtr r);
  static SqlExprPtr Not(SqlExprPtr inner);
  static SqlExprPtr IsNull(SqlExprPtr inner, bool negated);

  // Collects the identifier nodes of this expression into `out`.
  void CollectIdentifiers(std::vector<const SqlExpr*>* out) const;

  std::string ToString() const;
};

struct SqlOrderBy {
  std::string column;
  bool ascending = true;
};

// A DML statement resolved against one database schema: what each
// execution would otherwise look up by name, per statement or per row.
struct SqlBinding {
  uint64_t schema_version = 0;  // Database::schema_version(); 0: unresolved.
  Table* table = nullptr;
  // kInsert: the column each VALUES expression fills.
  std::vector<size_t> insert_columns;
  // BULK INSERT: the parameters its values name, once each, whose common
  // multi-value length is the expansion width.
  std::vector<std::string_view> bulk_params;
  // kUpdate: the column each SET clause assigns.
  std::vector<size_t> set_columns;
  // WHERE conjuncts `column = value` whose value reads no column, in the
  // order an index probe tries them; the first whose column is indexed
  // and whose value is non-NULL picks the rows to visit.
  std::vector<std::pair<size_t, const SqlExpr*>> probes;
};

struct SqlStatement {
  enum class Kind {
    kCreateTable,
    kCreateIndex,
    kInsert,
    kUpdate,
    kDelete,
    kSelect,
  };

  Kind kind;
  std::string table;

  // kCreateTable:
  std::vector<Column> columns;
  // kCreateIndex:
  std::string index_column;
  // kInsert:
  bool bulk = false;                          // BULK INSERT (paper Rule 4).
  std::vector<std::string> insert_columns;    // Empty = positional.
  std::vector<SqlExprPtr> insert_values;
  // kUpdate:
  std::vector<std::pair<std::string, SqlExprPtr>> set_clauses;
  // kSelect:
  bool select_star = false;
  bool select_count = false;  // SELECT COUNT(*) — the only aggregate.
  std::vector<SqlExprPtr> select_exprs;
  std::vector<SqlOrderBy> order_by;
  std::optional<int64_t> limit;
  // kUpdate/kDelete/kSelect:
  SqlExprPtr where;  // Null = no predicate.

  // kInsert/kUpdate/kDelete/kSelect: the executor's resolution, redone
  // when the database it last ran against changes schema or is another.
  // Executing updates it, so one statement runs on one thread at a time,
  // as its database does.
  mutable SqlBinding bound;
};

}  // namespace rfidcep::store

#endif  // RFIDCEP_STORE_SQL_AST_H_
