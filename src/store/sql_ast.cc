#include "store/sql_ast.h"

namespace rfidcep::store {

std::string_view SqlBinOpName(SqlBinOp op) {
  switch (op) {
    case SqlBinOp::kEq:
      return "=";
    case SqlBinOp::kNe:
      return "!=";
    case SqlBinOp::kLt:
      return "<";
    case SqlBinOp::kLe:
      return "<=";
    case SqlBinOp::kGt:
      return ">";
    case SqlBinOp::kGe:
      return ">=";
    case SqlBinOp::kAnd:
      return "AND";
    case SqlBinOp::kOr:
      return "OR";
    case SqlBinOp::kAdd:
      return "+";
    case SqlBinOp::kSub:
      return "-";
    case SqlBinOp::kMul:
      return "*";
    case SqlBinOp::kDiv:
      return "/";
  }
  return "?";
}

SqlExprPtr SqlExpr::Literal(Value v) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = Kind::kLiteral;
  e->literal = std::move(v);
  return e;
}

SqlExprPtr SqlExpr::Identifier(std::string name) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = Kind::kIdentifier;
  e->identifier = std::move(name);
  return e;
}

SqlExprPtr SqlExpr::Binary(SqlBinOp op, SqlExprPtr l, SqlExprPtr r) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = Kind::kBinary;
  e->op = op;
  e->lhs = std::move(l);
  e->rhs = std::move(r);
  return e;
}

SqlExprPtr SqlExpr::Not(SqlExprPtr inner) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = Kind::kNot;
  e->lhs = std::move(inner);
  return e;
}

SqlExprPtr SqlExpr::IsNull(SqlExprPtr inner, bool negated) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = Kind::kIsNull;
  e->lhs = std::move(inner);
  e->negated = negated;
  return e;
}

void SqlExpr::CollectIdentifiers(std::vector<const SqlExpr*>* out) const {
  switch (kind) {
    case Kind::kLiteral:
      return;
    case Kind::kIdentifier:
      out->push_back(this);
      return;
    case Kind::kBinary:
      lhs->CollectIdentifiers(out);
      rhs->CollectIdentifiers(out);
      return;
    case Kind::kNot:
    case Kind::kIsNull:
      lhs->CollectIdentifiers(out);
      return;
  }
}

std::string SqlExpr::ToString() const {
  switch (kind) {
    case Kind::kLiteral:
      return literal.kind() == ValueKind::kString ? "'" + literal.ToString() + "'"
                                                  : literal.ToString();
    case Kind::kIdentifier:
      return identifier;
    case Kind::kBinary:
      return "(" + lhs->ToString() + " " + std::string(SqlBinOpName(op)) +
             " " + rhs->ToString() + ")";
    case Kind::kNot:
      return "(NOT " + lhs->ToString() + ")";
    case Kind::kIsNull:
      return "(" + lhs->ToString() + (negated ? " IS NOT NULL)" : " IS NULL)");
  }
  return "?";
}

}  // namespace rfidcep::store
