#include "store/value.h"

#include <gtest/gtest.h>

namespace rfidcep::store {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_EQ(Value::Time(7 * kSecond).AsTime(), 7 * kSecond);
  EXPECT_TRUE(Value::Uc().is_uc());
}

TEST(ValueTest, IntAndTimeAreDistinctKinds) {
  EXPECT_EQ(Value::Int(5).kind(), ValueKind::kInt);
  EXPECT_EQ(Value::Time(5).kind(), ValueKind::kTime);
}

TEST(ValueTest, UcEqualsStringUcLiteral) {
  // Paper SQL `WHERE tend = "UC"` must hit kUc values.
  EXPECT_TRUE(Value::Uc().EqualsSql(Value::String("UC")));
  EXPECT_TRUE(Value::String("UC").EqualsSql(Value::Uc()));
  EXPECT_TRUE(Value::Uc().EqualsSql(Value::Uc()));
  EXPECT_FALSE(Value::Uc().EqualsSql(Value::String("uc")));
  EXPECT_FALSE(Value::Uc().EqualsSql(Value::Time(5)));
}

TEST(ValueTest, UcOrdersAfterEveryTimestamp) {
  EXPECT_GT(Value::Uc().Compare(Value::Time(1'000'000'000)), 0);
  EXPECT_LT(Value::Time(0).Compare(Value::Uc()), 0);
}

TEST(ValueTest, NullNeverEqualsAnything) {
  EXPECT_FALSE(Value::Null().EqualsSql(Value::Null()));
  EXPECT_FALSE(Value::Null().EqualsSql(Value::Int(0)));
  EXPECT_FALSE(Value::Int(0).EqualsSql(Value::Null()));
}

TEST(ValueTest, NumericCrossKindEquality) {
  EXPECT_TRUE(Value::Int(3).EqualsSql(Value::Double(3.0)));
  EXPECT_FALSE(Value::Int(3).EqualsSql(Value::Double(3.5)));
  EXPECT_FALSE(Value::Int(3).EqualsSql(Value::String("3")));
}

TEST(ValueTest, CompareTotalOrder) {
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_GT(Value::Int(2).Compare(Value::Int(1)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(2)), 0);
  EXPECT_LT(Value::Int(5).Compare(Value::String("a")), 0);
  EXPECT_LT(Value::String("a").Compare(Value::String("b")), 0);
  EXPECT_LT(Value::String("zz").Compare(Value::Uc()), 0);
  EXPECT_LT(Value::Int(3).Compare(Value::Double(3.5)), 0);
  EXPECT_LT(Value::Time(5).Compare(Value::Time(6)), 0);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(7).ToString(), "7");
  EXPECT_EQ(Value::String("abc").ToString(), "abc");
  EXPECT_EQ(Value::Uc().ToString(), "UC");
  EXPECT_EQ(Value::Time(kSecond).ToString(), "1.000000s");
}

TEST(ValueTest, HashSqlAgreesWithEqualsSql) {
  // Values EqualsSql calls equal must share a hash, or a hash index would
  // miss rows a scan finds: numerics across kinds, -0.0 and 0.0, UC and
  // the string "UC".
  const Value values[] = {
      Value::Int(5),        Value::Double(5.0),    Value::Time(5),
      Value::Int(0),        Value::Double(-0.0),   Value::Double(0.0),
      Value::Time(0),       Value::Uc(),           Value::String("UC"),
      Value::String("5"),   Value::String(""),     Value::Double(2.5),
      Value::Int(-1),       Value::Time(-1),       Value::Null(),
  };
  for (const Value& a : values) {
    for (const Value& b : values) {
      if (a.EqualsSql(b)) {
        EXPECT_EQ(a.HashSql(), b.HashSql())
            << a.ToString() << " " << b.ToString();
      }
    }
  }
  // Distinct values spread: kinds EqualsSql keeps apart hash apart here.
  EXPECT_NE(Value::String("5").HashSql(), Value::Int(5).HashSql());
  EXPECT_NE(Value::Int(5).HashSql(), Value::Int(6).HashSql());
  EXPECT_NE(Value::String("x").HashSql(), Value::String("y").HashSql());
}

}  // namespace
}  // namespace rfidcep::store
