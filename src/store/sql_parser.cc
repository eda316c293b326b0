#include "store/sql_parser.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

#include "common/strings.h"
#include "store/sql_lexer.h"

namespace rfidcep::store {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<SqlToken> tokens) : tokens_(std::move(tokens)) {}

  Result<SqlStatement> ParseStatement();

  Result<SqlExprPtr> ParseStandaloneExpression() {
    RFIDCEP_ASSIGN_OR_RETURN(SqlExprPtr expr, ParseExpr());
    RFIDCEP_RETURN_IF_ERROR(ExpectStatementEnd());
    return expr;
  }

 private:
  const SqlToken& Peek() const { return tokens_[pos_]; }
  const SqlToken& Advance() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().kind == SqlTokenKind::kEnd; }

  bool Match(std::string_view word) {
    if (Peek().Is(word)) {
      ++pos_;
      return true;
    }
    return false;
  }

  // Consumes an integer token; past int64 it is a parse error, not a
  // clamped value.
  Result<int64_t> ParseInteger() {
    const SqlToken& token = Advance();
    int64_t v = 0;
    const char* end = token.text.data() + token.text.size();
    auto [ptr, ec] = std::from_chars(token.text.data(), end, v);
    if (ec != std::errc() || ptr != end) {
      return Status::ParseError("integer '" + token.text +
                                "' is out of range at offset " +
                                std::to_string(token.offset));
    }
    return v;
  }

  Status Expect(std::string_view word) {
    if (Match(word)) return Status::Ok();
    return Status::ParseError("expected '" + std::string(word) + "' but got '" +
                              Peek().text + "' at offset " +
                              std::to_string(Peek().offset));
  }

  Result<std::string> ExpectIdentifier(std::string_view what) {
    if (Peek().kind != SqlTokenKind::kIdentifier) {
      return Status::ParseError("expected " + std::string(what) +
                                " but got '" + Peek().text + "' at offset " +
                                std::to_string(Peek().offset));
    }
    return Advance().text;
  }

  Status ExpectStatementEnd() {
    Match(";");
    if (!AtEnd()) {
      return Status::ParseError("unexpected trailing token '" + Peek().text +
                                "' at offset " + std::to_string(Peek().offset));
    }
    return Status::Ok();
  }

  Result<SqlStatement> ParseCreate();
  Result<SqlStatement> ParseInsert(bool bulk);
  Result<SqlStatement> ParseUpdate();
  Result<SqlStatement> ParseDelete();
  Result<SqlStatement> ParseSelect();

  // Expression grammar (lowest to highest precedence):
  //   or    := and (OR and)*
  //   and   := not (AND not)*
  //   not   := NOT not | cmp
  //   cmp   := add ((= | != | <> | < | <= | > | >=) add)?
  //   add   := mul ((+|-) mul)*
  //   mul   := unary ((*|/) unary)*
  //   unary := '(' or ')' | literal | identifier
  Result<SqlExprPtr> ParseExpr() { return ParseOr(); }
  Result<SqlExprPtr> ParseOr();
  Result<SqlExprPtr> ParseAnd();
  Result<SqlExprPtr> ParseNot();
  Result<SqlExprPtr> ParseCmp();
  Result<SqlExprPtr> ParseAdd();
  Result<SqlExprPtr> ParseMul();
  Result<SqlExprPtr> ParseUnary();

  std::vector<SqlToken> tokens_;
  size_t pos_ = 0;
};

Result<ColumnType> ParseColumnType(const std::string& word) {
  if (EqualsIgnoreCase(word, "INT") || EqualsIgnoreCase(word, "INTEGER") ||
      EqualsIgnoreCase(word, "BIGINT")) {
    return ColumnType::kInt;
  }
  if (EqualsIgnoreCase(word, "DOUBLE") || EqualsIgnoreCase(word, "FLOAT") ||
      EqualsIgnoreCase(word, "REAL")) {
    return ColumnType::kDouble;
  }
  if (EqualsIgnoreCase(word, "STRING") || EqualsIgnoreCase(word, "VARCHAR") ||
      EqualsIgnoreCase(word, "TEXT")) {
    return ColumnType::kString;
  }
  if (EqualsIgnoreCase(word, "TIME") || EqualsIgnoreCase(word, "TIMESTAMP")) {
    return ColumnType::kTime;
  }
  if (EqualsIgnoreCase(word, "ANY")) {
    return ColumnType::kAny;
  }
  return Status::ParseError("unknown column type '" + word + "'");
}

Result<SqlStatement> Parser::ParseStatement() {
  if (Match("CREATE")) return ParseCreate();
  if (Match("BULK")) {
    RFIDCEP_RETURN_IF_ERROR(Expect("INSERT"));
    return ParseInsert(/*bulk=*/true);
  }
  if (Match("INSERT")) return ParseInsert(/*bulk=*/false);
  if (Match("UPDATE")) return ParseUpdate();
  if (Match("DELETE")) return ParseDelete();
  if (Match("SELECT")) return ParseSelect();
  return Status::ParseError("expected a SQL statement but got '" +
                            Peek().text + "'");
}

Result<SqlStatement> Parser::ParseCreate() {
  if (Match("INDEX")) {
    SqlStatement stmt;
    stmt.kind = SqlStatement::Kind::kCreateIndex;
    RFIDCEP_RETURN_IF_ERROR(Expect("ON"));
    RFIDCEP_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier("table name"));
    RFIDCEP_RETURN_IF_ERROR(Expect("("));
    RFIDCEP_ASSIGN_OR_RETURN(stmt.index_column,
                             ExpectIdentifier("column name"));
    RFIDCEP_RETURN_IF_ERROR(Expect(")"));
    RFIDCEP_RETURN_IF_ERROR(ExpectStatementEnd());
    return stmt;
  }
  RFIDCEP_RETURN_IF_ERROR(Expect("TABLE"));
  SqlStatement stmt;
  stmt.kind = SqlStatement::Kind::kCreateTable;
  RFIDCEP_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier("table name"));
  RFIDCEP_RETURN_IF_ERROR(Expect("("));
  while (true) {
    Column column;
    RFIDCEP_ASSIGN_OR_RETURN(column.name, ExpectIdentifier("column name"));
    if (Peek().kind == SqlTokenKind::kIdentifier) {
      RFIDCEP_ASSIGN_OR_RETURN(column.type, ParseColumnType(Advance().text));
    }
    stmt.columns.push_back(std::move(column));
    if (Match(")")) break;
    RFIDCEP_RETURN_IF_ERROR(Expect(","));
  }
  RFIDCEP_RETURN_IF_ERROR(ExpectStatementEnd());
  return stmt;
}

Result<SqlStatement> Parser::ParseInsert(bool bulk) {
  SqlStatement stmt;
  stmt.kind = SqlStatement::Kind::kInsert;
  stmt.bulk = bulk;
  RFIDCEP_RETURN_IF_ERROR(Expect("INTO"));
  RFIDCEP_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier("table name"));
  if (Match("(")) {
    while (true) {
      RFIDCEP_ASSIGN_OR_RETURN(std::string col,
                               ExpectIdentifier("column name"));
      stmt.insert_columns.push_back(std::move(col));
      if (Match(")")) break;
      RFIDCEP_RETURN_IF_ERROR(Expect(","));
    }
  }
  RFIDCEP_RETURN_IF_ERROR(Expect("VALUES"));
  RFIDCEP_RETURN_IF_ERROR(Expect("("));
  while (true) {
    RFIDCEP_ASSIGN_OR_RETURN(SqlExprPtr value, ParseExpr());
    stmt.insert_values.push_back(std::move(value));
    if (Match(")")) break;
    RFIDCEP_RETURN_IF_ERROR(Expect(","));
  }
  RFIDCEP_RETURN_IF_ERROR(ExpectStatementEnd());
  return stmt;
}

Result<SqlStatement> Parser::ParseUpdate() {
  SqlStatement stmt;
  stmt.kind = SqlStatement::Kind::kUpdate;
  RFIDCEP_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier("table name"));
  RFIDCEP_RETURN_IF_ERROR(Expect("SET"));
  while (true) {
    RFIDCEP_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
    RFIDCEP_RETURN_IF_ERROR(Expect("="));
    RFIDCEP_ASSIGN_OR_RETURN(SqlExprPtr value, ParseExpr());
    stmt.set_clauses.emplace_back(std::move(col), std::move(value));
    if (!Match(",")) break;
  }
  if (Match("WHERE")) {
    RFIDCEP_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
  }
  RFIDCEP_RETURN_IF_ERROR(ExpectStatementEnd());
  return stmt;
}

Result<SqlStatement> Parser::ParseDelete() {
  SqlStatement stmt;
  stmt.kind = SqlStatement::Kind::kDelete;
  RFIDCEP_RETURN_IF_ERROR(Expect("FROM"));
  RFIDCEP_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier("table name"));
  if (Match("WHERE")) {
    RFIDCEP_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
  }
  RFIDCEP_RETURN_IF_ERROR(ExpectStatementEnd());
  return stmt;
}

Result<SqlStatement> Parser::ParseSelect() {
  SqlStatement stmt;
  stmt.kind = SqlStatement::Kind::kSelect;
  if (Match("*")) {
    stmt.select_star = true;
  } else if (Peek().Is("COUNT") && tokens_[pos_ + 1].Is("(")) {
    Advance();  // COUNT
    Advance();  // (
    RFIDCEP_RETURN_IF_ERROR(Expect("*"));
    RFIDCEP_RETURN_IF_ERROR(Expect(")"));
    stmt.select_count = true;
  } else {
    while (true) {
      RFIDCEP_ASSIGN_OR_RETURN(SqlExprPtr expr, ParseExpr());
      stmt.select_exprs.push_back(std::move(expr));
      if (!Match(",")) break;
    }
  }
  RFIDCEP_RETURN_IF_ERROR(Expect("FROM"));
  RFIDCEP_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier("table name"));
  if (Match("WHERE")) {
    RFIDCEP_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
  }
  if (Match("ORDER")) {
    RFIDCEP_RETURN_IF_ERROR(Expect("BY"));
    while (true) {
      SqlOrderBy order;
      RFIDCEP_ASSIGN_OR_RETURN(order.column, ExpectIdentifier("column name"));
      if (Match("DESC")) {
        order.ascending = false;
      } else {
        Match("ASC");
      }
      stmt.order_by.push_back(std::move(order));
      if (!Match(",")) break;
    }
  }
  if (Match("LIMIT")) {
    if (Peek().kind != SqlTokenKind::kInteger) {
      return Status::ParseError("expected integer after LIMIT, got '" +
                                Peek().text + "'");
    }
    RFIDCEP_ASSIGN_OR_RETURN(stmt.limit, ParseInteger());
  }
  RFIDCEP_RETURN_IF_ERROR(ExpectStatementEnd());
  return stmt;
}

Result<SqlExprPtr> Parser::ParseOr() {
  RFIDCEP_ASSIGN_OR_RETURN(SqlExprPtr lhs, ParseAnd());
  while (Match("OR")) {
    RFIDCEP_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseAnd());
    lhs = SqlExpr::Binary(SqlBinOp::kOr, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<SqlExprPtr> Parser::ParseAnd() {
  RFIDCEP_ASSIGN_OR_RETURN(SqlExprPtr lhs, ParseNot());
  while (Match("AND")) {
    RFIDCEP_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseNot());
    lhs = SqlExpr::Binary(SqlBinOp::kAnd, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<SqlExprPtr> Parser::ParseNot() {
  if (Match("NOT")) {
    RFIDCEP_ASSIGN_OR_RETURN(SqlExprPtr inner, ParseNot());
    return SqlExpr::Not(std::move(inner));
  }
  return ParseCmp();
}

Result<SqlExprPtr> Parser::ParseCmp() {
  RFIDCEP_ASSIGN_OR_RETURN(SqlExprPtr lhs, ParseAdd());
  if (Match("IS")) {
    bool negated = Match("NOT");
    RFIDCEP_RETURN_IF_ERROR(Expect("NULL"));
    return SqlExpr::IsNull(std::move(lhs), negated);
  }
  SqlBinOp op;
  if (Match("=")) {
    op = SqlBinOp::kEq;
  } else if (Match("!=") || Match("<>")) {
    op = SqlBinOp::kNe;
  } else if (Match("<=")) {
    op = SqlBinOp::kLe;
  } else if (Match(">=")) {
    op = SqlBinOp::kGe;
  } else if (Match("<")) {
    op = SqlBinOp::kLt;
  } else if (Match(">")) {
    op = SqlBinOp::kGt;
  } else {
    return lhs;
  }
  RFIDCEP_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseAdd());
  return SqlExpr::Binary(op, std::move(lhs), std::move(rhs));
}

Result<SqlExprPtr> Parser::ParseAdd() {
  RFIDCEP_ASSIGN_OR_RETURN(SqlExprPtr lhs, ParseMul());
  while (true) {
    SqlBinOp op;
    if (Match("+")) {
      op = SqlBinOp::kAdd;
    } else if (Match("-")) {
      op = SqlBinOp::kSub;
    } else {
      return lhs;
    }
    RFIDCEP_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseMul());
    lhs = SqlExpr::Binary(op, std::move(lhs), std::move(rhs));
  }
}

Result<SqlExprPtr> Parser::ParseMul() {
  RFIDCEP_ASSIGN_OR_RETURN(SqlExprPtr lhs, ParseUnary());
  while (true) {
    SqlBinOp op;
    if (Match("*")) {
      op = SqlBinOp::kMul;
    } else if (Match("/")) {
      op = SqlBinOp::kDiv;
    } else {
      return lhs;
    }
    RFIDCEP_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseUnary());
    lhs = SqlExpr::Binary(op, std::move(lhs), std::move(rhs));
  }
}

Result<SqlExprPtr> Parser::ParseUnary() {
  if (Match("(")) {
    RFIDCEP_ASSIGN_OR_RETURN(SqlExprPtr inner, ParseExpr());
    RFIDCEP_RETURN_IF_ERROR(Expect(")"));
    return inner;
  }
  const SqlToken& token = Peek();
  switch (token.kind) {
    case SqlTokenKind::kInteger: {
      RFIDCEP_ASSIGN_OR_RETURN(int64_t v, ParseInteger());
      return SqlExpr::Literal(Value::Int(v));
    }
    case SqlTokenKind::kDouble: {
      double v = std::strtod(token.text.c_str(), nullptr);
      Advance();
      return SqlExpr::Literal(Value::Double(v));
    }
    case SqlTokenKind::kString: {
      std::string text = token.text;
      Advance();
      return SqlExpr::Literal(Value::String(std::move(text)));
    }
    case SqlTokenKind::kIdentifier: {
      if (token.Is("NULL")) {
        Advance();
        return SqlExpr::Literal(Value::Null());
      }
      if (token.Is("UC")) {
        Advance();
        return SqlExpr::Literal(Value::Uc());
      }
      if (token.Is("TRUE")) {
        Advance();
        return SqlExpr::Literal(Value::Int(1));
      }
      if (token.Is("FALSE")) {
        Advance();
        return SqlExpr::Literal(Value::Int(0));
      }
      std::string name = token.text;
      Advance();
      return SqlExpr::Identifier(std::move(name));
    }
    default:
      return Status::ParseError("unexpected token '" + token.text +
                                "' at offset " + std::to_string(token.offset));
  }
}

}  // namespace

Result<SqlStatement> ParseSql(std::string_view sql) {
  RFIDCEP_ASSIGN_OR_RETURN(std::vector<SqlToken> tokens, SqlTokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<SqlExprPtr> ParseSqlExpression(std::string_view text) {
  RFIDCEP_ASSIGN_OR_RETURN(std::vector<SqlToken> tokens, SqlTokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseStandaloneExpression();
}

bool LooksLikeSql(std::string_view sql) {
  std::string_view trimmed = StripWhitespace(sql);
  size_t end = 0;
  while (end < trimmed.size() &&
         std::isalpha(static_cast<unsigned char>(trimmed[end]))) {
    ++end;
  }
  std::string_view word = trimmed.substr(0, end);
  for (std::string_view kw :
       {"CREATE", "INSERT", "BULK", "UPDATE", "DELETE", "SELECT"}) {
    if (EqualsIgnoreCase(word, kw)) return true;
  }
  return false;
}

}  // namespace rfidcep::store
