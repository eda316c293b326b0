// Typed values for the RFID data store.
//
// The paper's temporal tables (OBJECTLOCATION, OBJECTCONTAINMENT) use the
// sentinel "UC" ("until changed") as the open end of a validity period.
// We model UC as a first-class value kind that (a) compares equal to the
// string literal "UC" so the paper's SQL (`WHERE tend = "UC"`) works
// verbatim, and (b) orders after every concrete timestamp so range
// predicates over validity periods behave like +infinity.

#ifndef RFIDCEP_STORE_VALUE_H_
#define RFIDCEP_STORE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"
#include "common/time.h"

namespace rfidcep::common {
class ByteReader;
class ByteWriter;
}  // namespace rfidcep::common

namespace rfidcep::store {

enum class ValueKind {
  kNull = 0,
  kInt,
  kDouble,
  kString,
  kTime,
  kUc,  // "Until changed" — open end of a validity period.
};

std::string_view ValueKindName(ValueKind kind);

class Value {
 public:
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Rep(std::in_place_index<1>, v)); }
  static Value Double(double v) {
    return Value(Rep(std::in_place_index<2>, v));
  }
  static Value String(std::string v) {
    return Value(Rep(std::in_place_index<3>, std::move(v)));
  }
  static Value Time(TimePoint t) {
    return Value(Rep(std::in_place_index<4>, t));
  }
  static Value Uc() { return Value(Rep(std::in_place_index<5>, UcTag{})); }

  ValueKind kind() const { return static_cast<ValueKind>(rep_.index()); }
  bool is_null() const { return kind() == ValueKind::kNull; }
  bool is_uc() const { return kind() == ValueKind::kUc; }

  // Accessors require the matching kind.
  int64_t AsInt() const { return std::get<1>(rep_); }
  double AsDouble() const { return std::get<2>(rep_); }
  const std::string& AsString() const { return std::get<3>(rep_); }
  TimePoint AsTime() const { return std::get<4>(rep_); }

  // Numeric view: int/double/time as double. Requires IsNumeric().
  double NumericValue() const;
  bool IsNumeric() const {
    ValueKind k = kind();
    return k == ValueKind::kInt || k == ValueKind::kDouble ||
           k == ValueKind::kTime;
  }

  // SQL-style equality (see file comment for UC/string coercion). NULL is
  // not equal to anything, including NULL.
  bool EqualsSql(const Value& other) const;

  // Three-way comparison for ORDER BY and range predicates. Total order:
  // NULL < numerics/time < strings < UC; UC also compares against kTime as
  // +infinity. Returns -1/0/+1.
  int Compare(const Value& other) const;

  // Rendering for result sets and CSV traces.
  std::string ToString() const;

  // 64-bit hash under EqualsSql's equivalence: values it calls equal
  // hash alike. Numeric kinds hash by numeric value (-0.0 as 0.0) and UC
  // as the string "UC". Hash indexes bucket by it and re-check EqualsSql.
  uint64_t HashSql() const;

  // Structural equality (used in tests). Unlike EqualsSql, NULL == NULL.
  friend bool operator==(const Value& a, const Value& b) {
    return a.Compare(b) == 0 && a.kind() == b.kind();
  }

 private:
  struct UcTag {
    friend bool operator==(const UcTag&, const UcTag&) { return true; }
  };
  using Rep = std::variant<std::monostate, int64_t, double, std::string,
                           TimePoint, UcTag>;

  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

// The one value codec, shared by WAL records and store images
// (store/store_image.h): a u8 ValueKind tag and its payload — none for
// kNull and kUc, i64 for kInt and kTime, the IEEE-754 bit pattern as u64
// for kDouble (so re-encoding is byte-exact, -0.0 included), u32-length
// bytes for kString.
void PutValue(common::ByteWriter& w, const Value& v);
// An unknown value kind, like any malformed field, latches the reader's
// failure (and returns NULL).
Value GetValue(common::ByteReader& r);
// The fewest bytes a value encodes to: its tag. The floor for decoded
// value counts.
inline constexpr size_t kMinValueBytes = 1;

}  // namespace rfidcep::store

#endif  // RFIDCEP_STORE_VALUE_H_
