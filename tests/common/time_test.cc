#include "common/time.h"

#include <gtest/gtest.h>

namespace rfidcep {
namespace {

TEST(TimeTest, UnitConstants) {
  EXPECT_EQ(kMillisecond, 1000);
  EXPECT_EQ(kSecond, 1000 * 1000);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 60 * kMinute);
}

TEST(TimeTest, FormatTimePoint) {
  EXPECT_EQ(FormatTimePoint(0), "0.000000s");
  EXPECT_EQ(FormatTimePoint(12 * kSecond + 300 * kMillisecond), "12.300000s");
  EXPECT_EQ(FormatTimePoint(-2 * kSecond), "-2.000000s");
  EXPECT_EQ(FormatTimePoint(kTimeInfinity), "inf");
}

TEST(TimeTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(5 * kSecond), "5sec");
  EXPECT_EQ(FormatDuration(100 * kMillisecond), "100msec");
  EXPECT_EQ(FormatDuration(10 * kMinute), "10min");
  EXPECT_EQ(FormatDuration(2 * kHour), "2hour");
  EXPECT_EQ(FormatDuration(7), "7usec");
  EXPECT_EQ(FormatDuration(0), "0sec");
  EXPECT_EQ(FormatDuration(kDurationInfinity), "inf");
  EXPECT_EQ(FormatDuration(-5 * kSecond), "-5sec");
}

TEST(TimeTest, AddSaturating) {
  EXPECT_EQ(AddSaturating(10, 5), 15);
  EXPECT_EQ(AddSaturating(10, kDurationInfinity), kTimeInfinity);
  EXPECT_EQ(AddSaturating(kTimeInfinity - 1, 2), kTimeInfinity);
  EXPECT_EQ(AddSaturating(-5, 10), 5);
  EXPECT_EQ(AddSaturating(-5, kDurationInfinity), kTimeInfinity);
}

}  // namespace
}  // namespace rfidcep
