#include "store/value.h"

#include <bit>
#include <cmath>
#include <functional>
#include <string_view>

#include "common/byte_codec.h"
#include "common/hash.h"

namespace rfidcep::store {

std::string_view ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kInt:
      return "int";
    case ValueKind::kDouble:
      return "double";
    case ValueKind::kString:
      return "string";
    case ValueKind::kTime:
      return "time";
    case ValueKind::kUc:
      return "uc";
  }
  return "unknown";
}

double Value::NumericValue() const {
  switch (kind()) {
    case ValueKind::kInt:
      return static_cast<double>(AsInt());
    case ValueKind::kDouble:
      return AsDouble();
    case ValueKind::kTime:
      return static_cast<double>(AsTime());
    default:
      return std::nan("");
  }
}

bool Value::EqualsSql(const Value& other) const {
  if (is_null() || other.is_null()) return false;
  // UC matches the literal string "UC" so the paper's SQL works verbatim.
  if (is_uc()) {
    return other.is_uc() ||
           (other.kind() == ValueKind::kString && other.AsString() == "UC");
  }
  if (other.is_uc()) return other.EqualsSql(*this);
  if (kind() == ValueKind::kString || other.kind() == ValueKind::kString) {
    return kind() == other.kind() && AsString() == other.AsString();
  }
  // Numeric cross-kind equality (int/double/time).
  if (kind() == other.kind() && kind() == ValueKind::kInt) {
    return AsInt() == other.AsInt();
  }
  if (kind() == other.kind() && kind() == ValueKind::kTime) {
    return AsTime() == other.AsTime();
  }
  return NumericValue() == other.NumericValue();
}

namespace {

// Rank in the total order: NULL < numeric/time < string < UC.
int KindRank(ValueKind k) {
  switch (k) {
    case ValueKind::kNull:
      return 0;
    case ValueKind::kInt:
    case ValueKind::kDouble:
    case ValueKind::kTime:
      return 1;
    case ValueKind::kString:
      return 2;
    case ValueKind::kUc:
      return 3;
  }
  return 4;
}

template <typename T>
int Cmp(T a, T b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

}  // namespace

int Value::Compare(const Value& other) const {
  // UC acts as +infinity relative to timestamps.
  if (is_uc() && other.kind() == ValueKind::kTime) return 1;
  if (kind() == ValueKind::kTime && other.is_uc()) return -1;

  int rank_a = KindRank(kind());
  int rank_b = KindRank(other.kind());
  if (rank_a != rank_b) return Cmp(rank_a, rank_b);

  switch (kind()) {
    case ValueKind::kNull:
    case ValueKind::kUc:
      return 0;
    case ValueKind::kString:
      return Cmp<std::string_view>(AsString(), other.AsString());
    case ValueKind::kInt:
      if (other.kind() == ValueKind::kInt) return Cmp(AsInt(), other.AsInt());
      break;
    case ValueKind::kTime:
      if (other.kind() == ValueKind::kTime) {
        return Cmp(AsTime(), other.AsTime());
      }
      break;
    case ValueKind::kDouble:
      break;
  }
  return Cmp(NumericValue(), other.NumericValue());
}

std::string Value::ToString() const {
  switch (kind()) {
    case ValueKind::kNull:
      return "NULL";
    case ValueKind::kInt:
      return std::to_string(AsInt());
    case ValueKind::kDouble: {
      std::string s = std::to_string(AsDouble());
      return s;
    }
    case ValueKind::kString:
      return AsString();
    case ValueKind::kTime:
      return FormatTimePoint(AsTime());
    case ValueKind::kUc:
      return "UC";
  }
  return "?";
}

namespace {

using common::Mix64;

uint64_t HashText(std::string_view text) {
  return Mix64(std::hash<std::string_view>{}(text));
}

}  // namespace

uint64_t Value::HashSql() const {
  switch (kind()) {
    case ValueKind::kNull:
      return 0;  // NULL equals nothing; any fixed hash will do.
    case ValueKind::kInt:
    case ValueKind::kDouble:
    case ValueKind::kTime: {
      // EqualsSql compares across numeric kinds by value; -0.0 == 0.0.
      const double v = NumericValue();
      return Mix64(std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v));
    }
    case ValueKind::kString:
      return HashText(AsString());
    case ValueKind::kUc:
      return HashText("UC");
  }
  return 0;
}

void PutValue(common::ByteWriter& w, const Value& v) {
  w.U8(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case ValueKind::kNull:
    case ValueKind::kUc:
      break;
    case ValueKind::kInt:
      w.I64(v.AsInt());
      break;
    case ValueKind::kTime:
      w.I64(v.AsTime());
      break;
    case ValueKind::kDouble:
      w.U64(std::bit_cast<uint64_t>(v.AsDouble()));
      break;
    case ValueKind::kString:
      w.Str32(v.AsString());
      break;
  }
}

Value GetValue(common::ByteReader& r) {
  switch (static_cast<ValueKind>(r.U8())) {
    case ValueKind::kNull:
      return Value::Null();
    case ValueKind::kUc:
      return Value::Uc();
    case ValueKind::kInt:
      return Value::Int(r.I64());
    case ValueKind::kTime:
      return Value::Time(r.I64());
    case ValueKind::kDouble:
      return Value::Double(std::bit_cast<double>(r.U64()));
    case ValueKind::kString:
      return Value::String(std::string(r.Str32()));
  }
  r.Fail("unknown store value kind");
  return Value::Null();
}

}  // namespace rfidcep::store
