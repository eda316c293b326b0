#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "store/database.h"
#include "store/sql_executor.h"
#include "store/sql_lexer.h"
#include "store/sql_parser.h"

namespace rfidcep::store {
namespace {

// --- Lexer ------------------------------------------------------------------

TEST(SqlLexerTest, TokenizesStatement) {
  Result<std::vector<SqlToken>> tokens =
      SqlTokenize("SELECT a, b FROM t WHERE x >= 1.5 AND y != 'hi'");
  ASSERT_TRUE(tokens.ok());
  ASSERT_FALSE(tokens->empty());
  EXPECT_EQ(tokens->back().kind, SqlTokenKind::kEnd);
  EXPECT_TRUE((*tokens)[0].Is("select"));
}

TEST(SqlLexerTest, StringQuotingAndEscapes) {
  Result<std::vector<SqlToken>> tokens = SqlTokenize("'a''b' \"UC\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, SqlTokenKind::kString);
  EXPECT_EQ((*tokens)[0].text, "a'b");
  EXPECT_EQ((*tokens)[1].text, "UC");
}

TEST(SqlLexerTest, RejectsUnterminatedString) {
  EXPECT_FALSE(SqlTokenize("'oops").ok());
}

TEST(SqlLexerTest, RejectsStrayCharacters) {
  EXPECT_FALSE(SqlTokenize("SELECT @ FROM t").ok());
}

TEST(SqlLexerTest, NumbersIntAndDouble) {
  Result<std::vector<SqlToken>> tokens = SqlTokenize("12 3.5 0.1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, SqlTokenKind::kInteger);
  EXPECT_EQ((*tokens)[1].kind, SqlTokenKind::kDouble);
  EXPECT_EQ((*tokens)[2].kind, SqlTokenKind::kDouble);
}

// --- Parser ------------------------------------------------------------------

TEST(SqlParserTest, ParsesCreateTable) {
  Result<SqlStatement> stmt = ParseSql(
      "CREATE TABLE OBJECTLOCATION (object_epc STRING, loc_id STRING, "
      "tstart TIME, tend TIME)");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->kind, SqlStatement::Kind::kCreateTable);
  ASSERT_EQ(stmt->columns.size(), 4u);
  EXPECT_EQ(stmt->columns[3].type, ColumnType::kTime);
}

TEST(SqlParserTest, ParsesPaperRule3Actions) {
  // Verbatim from the paper's Rule 3.
  Result<SqlStatement> update = ParseSql(
      "UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND "
      "tend = \"UC\"");
  ASSERT_TRUE(update.ok()) << update.status();
  EXPECT_EQ(update->kind, SqlStatement::Kind::kUpdate);
  ASSERT_EQ(update->set_clauses.size(), 1u);
  EXPECT_EQ(update->set_clauses[0].first, "tend");
  ASSERT_NE(update->where, nullptr);

  Result<SqlStatement> insert = ParseSql(
      "INSERT INTO OBJECTLOCATION VALUES(o, \"loc2\", t, \"UC\")");
  ASSERT_TRUE(insert.ok()) << insert.status();
  EXPECT_EQ(insert->insert_values.size(), 4u);
}

TEST(SqlParserTest, ParsesBulkInsert) {
  Result<SqlStatement> stmt = ParseSql(
      "BULK INSERT INTO OBJECTCONTAINMENT VALUES (o1, o2, t2, \"UC\")");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->kind, SqlStatement::Kind::kInsert);
  EXPECT_TRUE(stmt->bulk);
}

TEST(SqlParserTest, ParsesSelectWithOrderLimit) {
  Result<SqlStatement> stmt = ParseSql(
      "SELECT object_epc, loc_id FROM OBJECTLOCATION WHERE tstart >= 5 "
      "ORDER BY tstart DESC, object_epc LIMIT 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->select_exprs.size(), 2u);
  ASSERT_EQ(stmt->order_by.size(), 2u);
  EXPECT_FALSE(stmt->order_by[0].ascending);
  EXPECT_TRUE(stmt->order_by[1].ascending);
  EXPECT_EQ(stmt->limit, 10);
}

TEST(SqlParserTest, OperatorPrecedence) {
  Result<SqlExprPtr> expr = ParseSqlExpression("a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(expr.ok());
  // OR is the root; AND binds tighter.
  EXPECT_EQ((*expr)->op, SqlBinOp::kOr);
  EXPECT_EQ((*expr)->rhs->op, SqlBinOp::kAnd);
}

TEST(SqlParserTest, ArithmeticPrecedence) {
  Result<SqlExprPtr> expr = ParseSqlExpression("1 + 2 * 3 = 7");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->op, SqlBinOp::kEq);
  EXPECT_EQ((*expr)->lhs->op, SqlBinOp::kAdd);
}

TEST(SqlParserTest, RejectsMalformedStatements) {
  EXPECT_FALSE(ParseSql("INSERT OBJECTLOCATION VALUES (1)").ok());
  EXPECT_FALSE(ParseSql("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSql("UPDATE t tend = 5").ok());
  EXPECT_FALSE(ParseSql("DELETE t").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t extra").ok());
  EXPECT_FALSE(ParseSql("").ok());
}

TEST(SqlParserTest, LooksLikeSql) {
  EXPECT_TRUE(LooksLikeSql("INSERT INTO t VALUES (1)"));
  EXPECT_TRUE(LooksLikeSql("  update t set a = 1"));
  EXPECT_TRUE(LooksLikeSql("BULK INSERT INTO t VALUES (o1)"));
  EXPECT_FALSE(LooksLikeSql("send alarm"));
  EXPECT_FALSE(LooksLikeSql("send duplicate msg(observation(r, o, t1))"));
}

// --- Executor ------------------------------------------------------------------

class SqlExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(db_.InstallRfidSchema().ok()); }
  Database db_;
};

TEST_F(SqlExecutorTest, InsertSelectRoundTrip) {
  ASSERT_TRUE(
      ExecuteSql("INSERT INTO OBSERVATION VALUES ('r1', 'o1', 5)", &db_).ok());
  Result<ExecResult> result = ExecuteSql("SELECT * FROM OBSERVATION", &db_);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsString(), "r1");
  EXPECT_EQ(result->rows[0][2].kind(), ValueKind::kTime);
}

TEST_F(SqlExecutorTest, PaperRule3LocationChange) {
  // Two location changes for o1: the first period must close at t=10.
  ParamMap params1;
  params1.emplace("o", ParamValue::Scalar(Value::String("o1")));
  params1.emplace("t", ParamValue::Scalar(Value::Time(0)));
  ASSERT_TRUE(ExecuteSql("UPDATE OBJECTLOCATION SET tend = t WHERE "
                         "object_epc = o AND tend = \"UC\"",
                         &db_, params1)
                  .ok());
  ASSERT_TRUE(ExecuteSql("INSERT INTO OBJECTLOCATION VALUES (o, 'locA', t, "
                         "\"UC\")",
                         &db_, params1)
                  .ok());

  ParamMap params2;
  params2.emplace("o", ParamValue::Scalar(Value::String("o1")));
  params2.emplace("t", ParamValue::Scalar(Value::Time(10 * kSecond)));
  ASSERT_TRUE(ExecuteSql("UPDATE OBJECTLOCATION SET tend = t WHERE "
                         "object_epc = o AND tend = \"UC\"",
                         &db_, params2)
                  .ok());
  ASSERT_TRUE(ExecuteSql("INSERT INTO OBJECTLOCATION VALUES (o, 'locB', t, "
                         "\"UC\")",
                         &db_, params2)
                  .ok());

  Result<ExecResult> open = ExecuteSql(
      "SELECT loc_id FROM OBJECTLOCATION WHERE tend = \"UC\"", &db_);
  ASSERT_TRUE(open.ok());
  ASSERT_EQ(open->rows.size(), 1u);
  EXPECT_EQ(open->rows[0][0].AsString(), "locB");
  Result<ExecResult> closed = ExecuteSql(
      "SELECT tend FROM OBJECTLOCATION WHERE loc_id = 'locA'", &db_);
  ASSERT_TRUE(closed.ok());
  ASSERT_EQ(closed->rows.size(), 1u);
  EXPECT_EQ(closed->rows[0][0].AsTime(), 10 * kSecond);
}

TEST_F(SqlExecutorTest, BulkInsertExpandsMultiParam) {
  // Paper Rule 4: one containment row per packed item.
  ParamMap params;
  params.emplace("o1", ParamValue::Multi({Value::String("i1"),
                                          Value::String("i2"),
                                          Value::String("i3")}));
  params.emplace("o2", ParamValue::Scalar(Value::String("case9")));
  params.emplace("t2", ParamValue::Scalar(Value::Time(20 * kSecond)));
  Result<ExecResult> result = ExecuteSql(
      "BULK INSERT INTO OBJECTCONTAINMENT VALUES (o1, o2, t2, \"UC\")", &db_,
      params);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->affected, 3u);
  Result<ExecResult> rows = ExecuteSql(
      "SELECT object_epc FROM OBJECTCONTAINMENT WHERE parent_epc = 'case9' "
      "ORDER BY object_epc",
      &db_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 3u);
  EXPECT_EQ(rows->rows[0][0].AsString(), "i1");
  EXPECT_EQ(rows->rows[2][0].AsString(), "i3");
}

TEST_F(SqlExecutorTest, MultiParamOutsideBulkFails) {
  ParamMap params;
  params.emplace("o1", ParamValue::Multi({Value::String("i1")}));
  EXPECT_FALSE(ExecuteSql("INSERT INTO OBSERVATION VALUES ('r', o1, 1)", &db_,
                          params)
                   .ok());
}

TEST_F(SqlExecutorTest, BulkMismatchedMultiLengthsFail) {
  ParamMap params;
  params.emplace("a", ParamValue::Multi({Value::String("x")}));
  params.emplace("b",
                 ParamValue::Multi({Value::String("y"), Value::String("z")}));
  params.emplace("t", ParamValue::Scalar(Value::Time(0)));
  EXPECT_FALSE(
      ExecuteSql("BULK INSERT INTO OBJECTCONTAINMENT VALUES (a, b, t, \"UC\")",
                 &db_, params)
          .ok());
}

TEST_F(SqlExecutorTest, DeleteWithWhere) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ExecuteSql("INSERT INTO OBSERVATION VALUES ('r1', 'o" +
                               std::to_string(i) + "', " + std::to_string(i) +
                               ")",
                           &db_)
                    .ok());
  }
  Result<ExecResult> deleted =
      ExecuteSql("DELETE FROM OBSERVATION WHERE ts < 3", &db_);
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->affected, 3u);
  Result<ExecResult> rest = ExecuteSql("SELECT * FROM OBSERVATION", &db_);
  EXPECT_EQ(rest->rows.size(), 2u);
}

TEST_F(SqlExecutorTest, InsertWithNamedColumns) {
  ASSERT_TRUE(ExecuteSql("INSERT INTO OBJECTLOCATION (object_epc, loc_id) "
                         "VALUES ('o1', 'dock')",
                         &db_)
                  .ok());
  Result<ExecResult> rows =
      ExecuteSql("SELECT tstart FROM OBJECTLOCATION", &db_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_TRUE(rows->rows[0][0].is_null());
}

TEST_F(SqlExecutorTest, SelectProjectionExpressions) {
  ASSERT_TRUE(
      ExecuteSql("INSERT INTO OBSERVATION VALUES ('r1', 'o1', 10)", &db_)
          .ok());
  Result<ExecResult> rows =
      ExecuteSql("SELECT ts + 5, object FROM OBSERVATION", &db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsTime(), 15);
}

TEST_F(SqlExecutorTest, CreateTableAndIndexViaSql) {
  ASSERT_TRUE(ExecuteSql("CREATE TABLE custom (a INT, b STRING)", &db_).ok());
  ASSERT_TRUE(ExecuteSql("CREATE INDEX ON custom (b)", &db_).ok());
  EXPECT_TRUE(db_.HasTable("custom"));
  EXPECT_FALSE(ExecuteSql("CREATE TABLE custom (a INT)", &db_).ok());
  EXPECT_FALSE(ExecuteSql("CREATE INDEX ON custom (ghost)", &db_).ok());
}

TEST_F(SqlExecutorTest, UnresolvedIdentifierFails) {
  ASSERT_TRUE(
      ExecuteSql("INSERT INTO OBSERVATION VALUES ('r', 'o', 1)", &db_).ok());
  Result<ExecResult> result =
      ExecuteSql("SELECT * FROM OBSERVATION WHERE mystery = 1", &db_);
  EXPECT_FALSE(result.ok());
}

TEST_F(SqlExecutorTest, UnknownTableFails) {
  EXPECT_FALSE(ExecuteSql("SELECT * FROM ghost", &db_).ok());
  EXPECT_FALSE(ExecuteSql("DELETE FROM ghost", &db_).ok());
  EXPECT_FALSE(ExecuteSql("UPDATE ghost SET a = 1", &db_).ok());
}

TEST_F(SqlExecutorTest, DivisionByZeroFails) {
  ASSERT_TRUE(
      ExecuteSql("INSERT INTO OBSERVATION VALUES ('r', 'o', 1)", &db_).ok());
  EXPECT_FALSE(ExecuteSql("SELECT 1 / 0 FROM OBSERVATION", &db_).ok());
}

// Integer results past int64 fail like division by zero rather than
// wrap or trap, and an integer literal past int64 does not parse.
TEST_F(SqlExecutorTest, IntegerOverflowIsAnError) {
  for (const char* expr :
       {"(0 - 9223372036854775807 - 1) / (0 - 1) = 1",
        "(0 - 9223372036854775807) - 2 < 0", "4611686018427387904 * 2 > 0"}) {
    Result<SqlExprPtr> cond = ParseSqlExpression(expr);
    ASSERT_TRUE(cond.ok()) << expr << ": " << cond.status();
    Result<bool> result = EvaluateCondition(**cond, ParamMap());
    ASSERT_FALSE(result.ok()) << expr;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << expr;
  }
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  ParamMap params;
  params.emplace("t1", ParamValue::Scalar(Value::Time(kMax - 20)));
  params.emplace("t2", ParamValue::Scalar(Value::Time(kMax - 10)));
  Result<SqlExprPtr> late = ParseSqlExpression("t1 + 5000000 < t2");
  ASSERT_TRUE(late.ok()) << late.status();
  Result<bool> holds = EvaluateCondition(**late, params);
  ASSERT_FALSE(holds.ok());
  EXPECT_EQ(holds.status().code(), StatusCode::kInvalidArgument);
  // The largest values still compute.
  Result<SqlExprPtr> edge = ParseSqlExpression(
      "(0 - 9223372036854775807 - 1) / 1 < 9223372036854775807 - 0");
  ASSERT_TRUE(edge.ok()) << edge.status();
  Result<bool> edge_holds = EvaluateCondition(**edge, ParamMap());
  ASSERT_TRUE(edge_holds.ok()) << edge_holds.status();
  EXPECT_TRUE(*edge_holds);

  Result<SqlExprPtr> big =
      ParseSqlExpression("99999999999999999999 = 9223372036854775807");
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kParseError);
  ASSERT_TRUE(
      ExecuteSql("INSERT INTO OBSERVATION VALUES ('r', 'o', 1)", &db_).ok());
  EXPECT_FALSE(
      ExecuteSql("SELECT * FROM OBSERVATION LIMIT 99999999999999999999", &db_)
          .ok());
}

TEST_F(SqlExecutorTest, EvaluateConditionOverParams) {
  ParamMap params;
  params.emplace("t1", ParamValue::Scalar(Value::Time(5 * kSecond)));
  params.emplace("t2", ParamValue::Scalar(Value::Time(8 * kSecond)));
  Result<SqlExprPtr> cond = ParseSqlExpression("t2 - t1 < 5000000");
  ASSERT_TRUE(cond.ok());
  Result<bool> holds = EvaluateCondition(**cond, params);
  ASSERT_TRUE(holds.ok());
  EXPECT_TRUE(*holds);
  Result<SqlExprPtr> cond2 = ParseSqlExpression("t2 - t1 > 5000000");
  Result<bool> holds2 = EvaluateCondition(**cond2, params);
  ASSERT_TRUE(holds2.ok());
  EXPECT_FALSE(*holds2);
}

TEST_F(SqlExecutorTest, IsNullPredicates) {
  ASSERT_TRUE(ExecuteSql("INSERT INTO OBJECTLOCATION (object_epc, loc_id) "
                         "VALUES ('o1', 'dock')",
                         &db_)
                  .ok());
  ASSERT_TRUE(ExecuteSql(
                  "INSERT INTO OBJECTLOCATION VALUES ('o2', 'dock', 5, 9)",
                  &db_)
                  .ok());
  Result<ExecResult> missing = ExecuteSql(
      "SELECT object_epc FROM OBJECTLOCATION WHERE tstart IS NULL", &db_);
  ASSERT_TRUE(missing.ok()) << missing.status();
  ASSERT_EQ(missing->rows.size(), 1u);
  EXPECT_EQ(missing->rows[0][0].AsString(), "o1");
  Result<ExecResult> present = ExecuteSql(
      "SELECT COUNT(*) FROM OBJECTLOCATION WHERE tstart IS NOT NULL", &db_);
  ASSERT_TRUE(present.ok());
  EXPECT_EQ(present->rows[0][0].AsInt(), 1);
  // UC is not NULL.
  Result<ExecResult> uc = ExecuteSql(
      "SELECT COUNT(*) FROM OBJECTLOCATION WHERE tend IS NULL", &db_);
  ASSERT_TRUE(uc.ok());
  EXPECT_EQ(uc->rows[0][0].AsInt(), 1);  // Only o1's default-NULL tend.
}

TEST_F(SqlExecutorTest, IndexProbeMatchesScanSemantics) {
  // OBJECTLOCATION is indexed on object_epc; OBSERVATION's `reader` is
  // not. Results must be identical either way, including residual
  // predicates and param-valued keys.
  for (int i = 0; i < 50; ++i) {
    ParamMap params;
    params.emplace("o", ParamValue::Scalar(
                            Value::String("obj" + std::to_string(i % 5))));
    params.emplace("t", ParamValue::Scalar(Value::Time(i)));
    ASSERT_TRUE(ExecuteSql(
                    "INSERT INTO OBJECTLOCATION VALUES (o, 'dock', t, \"UC\")",
                    &db_, params)
                    .ok());
  }
  ParamMap probe;
  probe.emplace("target", ParamValue::Scalar(Value::String("obj3")));
  Result<ExecResult> keyed = ExecuteSql(
      "SELECT COUNT(*) FROM OBJECTLOCATION WHERE object_epc = target AND "
      "tstart >= 23",
      &db_, probe);
  ASSERT_TRUE(keyed.ok()) << keyed.status();
  EXPECT_EQ(keyed->rows[0][0].AsInt(), 6);  // obj3 at t=23,28,...,48.

  // Keyed UPDATE touches exactly the probe's rows.
  Result<ExecResult> updated = ExecuteSql(
      "UPDATE OBJECTLOCATION SET tend = 99 WHERE object_epc = target", &db_,
      probe);
  ASSERT_TRUE(updated.ok()) << updated.status();
  EXPECT_EQ(updated->affected, 10u);
  // Keyed DELETE.
  Result<ExecResult> deleted = ExecuteSql(
      "DELETE FROM OBJECTLOCATION WHERE object_epc = target AND tstart < 20",
      &db_, probe);
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->affected, 4u);  // t=3,8,13,18.
  Result<ExecResult> rest = ExecuteSql(
      "SELECT COUNT(*) FROM OBJECTLOCATION WHERE object_epc = 'obj3'", &db_);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->rows[0][0].AsInt(), 6);
}

// A hash index must bucket together every value EqualsSql calls equal,
// or adding one drops rows a scan returns: UC and the string "UC", an Int
// literal and a stored Time, and an ANY column holding 1 and 1.0.
TEST_F(SqlExecutorTest, IndexProbeAgreesWithScanAcrossKinds) {
  ASSERT_TRUE(ExecuteSql("CREATE TABLE T (k ANY, v INT)", &db_).ok());
  ASSERT_TRUE(ExecuteSql("INSERT INTO OBJECTLOCATION VALUES ('a', 'x', 5, "
                         "\"UC\")",
                         &db_)
                  .ok());
  ASSERT_TRUE(ExecuteSql("INSERT INTO T VALUES (1, 1)", &db_).ok());
  ASSERT_TRUE(ExecuteSql("INSERT INTO T VALUES (1.0, 2)", &db_).ok());
  const struct {
    const char* sql;
    int64_t rows;
  } queries[] = {
      {"SELECT COUNT(*) FROM OBJECTLOCATION WHERE tend = \"UC\"", 1},
      {"SELECT COUNT(*) FROM OBJECTLOCATION WHERE tstart = 5", 1},
      {"SELECT COUNT(*) FROM T WHERE k = 1", 2},
  };
  auto count = [this](const char* sql) {
    Result<ExecResult> result = ExecuteSql(sql, &db_);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? result->rows[0][0].AsInt() : int64_t{-1};
  };
  for (const auto& [sql, rows] : queries) EXPECT_EQ(count(sql), rows) << sql;
  ASSERT_TRUE(ExecuteSql("CREATE INDEX ON OBJECTLOCATION (tend)", &db_).ok());
  ASSERT_TRUE(ExecuteSql("CREATE INDEX ON OBJECTLOCATION (tstart)", &db_).ok());
  ASSERT_TRUE(ExecuteSql("CREATE INDEX ON T (k)", &db_).ok());
  for (const auto& [sql, rows] : queries) {
    EXPECT_EQ(count(sql), rows) << "indexed: " << sql;
  }
}

TEST_F(SqlExecutorTest, IndexProbeMissingKeyMatchesNothing) {
  ASSERT_TRUE(ExecuteSql("INSERT INTO OBJECTLOCATION VALUES ('a', 'x', 1, "
                         "\"UC\")",
                         &db_)
                  .ok());
  Result<ExecResult> rows = ExecuteSql(
      "SELECT * FROM OBJECTLOCATION WHERE object_epc = 'ghost'", &db_);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->rows.empty());
}

TEST_F(SqlExecutorTest, CountStar) {
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(ExecuteSql("INSERT INTO OBSERVATION VALUES ('r1', 'o" +
                               std::to_string(i) + "', " + std::to_string(i) +
                               ")",
                           &db_)
                    .ok());
  }
  Result<ExecResult> all = ExecuteSql("SELECT COUNT(*) FROM OBSERVATION",
                                      &db_);
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_EQ(all->rows.size(), 1u);
  EXPECT_EQ(all->rows[0][0].AsInt(), 7);
  EXPECT_EQ(all->column_names[0], "COUNT(*)");
  Result<ExecResult> filtered = ExecuteSql(
      "SELECT COUNT(*) FROM OBSERVATION WHERE ts >= 4", &db_);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->rows[0][0].AsInt(), 3);
  // Empty table counts zero.
  Result<ExecResult> none = ExecuteSql(
      "SELECT COUNT(*) FROM OBJECTLOCATION", &db_);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->rows[0][0].AsInt(), 0);
}

TEST_F(SqlExecutorTest, TruthySemantics) {
  EXPECT_FALSE(Truthy(Value::Null()));
  EXPECT_FALSE(Truthy(Value::Int(0)));
  EXPECT_TRUE(Truthy(Value::Int(1)));
  EXPECT_FALSE(Truthy(Value::String("")));
  EXPECT_TRUE(Truthy(Value::String("x")));
  EXPECT_TRUE(Truthy(Value::Uc()));
}

}  // namespace
}  // namespace rfidcep::store
