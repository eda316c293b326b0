#include "events/event_type.h"

#include <gtest/gtest.h>

namespace rfidcep::events {
namespace {

TEST(EventTypeTest, LiteralReaderMatchesReaderOrItsGroup) {
  PrimitiveEventType type(Term::Literal("r1"), Term::Variable("o"), "t");
  Environment env;  // Defaults: group(r) = r.
  EXPECT_TRUE(type.Matches(Observation{"r1", "x", 0}, env));
  EXPECT_FALSE(type.Matches(Observation{"r2", "x", 0}, env));

  // A reader whose registered group is "r1" also matches (paper default:
  // the literal names a group).
  epc::ReaderRegistry readers;
  readers.RegisterReader("rA", "r1", "loc");
  Environment env2{nullptr, &readers};
  EXPECT_TRUE(type.Matches(Observation{"rA", "x", 0}, env2));
  EXPECT_TRUE(type.Matches(Observation{"r1", "x", 0}, env2));
}

TEST(EventTypeTest, GroupConstraintUsesRegistry) {
  PrimitiveEventType type(Term::Variable("r"), Term::Variable("o"), "t");
  type.WithGroup("g1");
  epc::ReaderRegistry readers;
  readers.RegisterReader("r1", "g1", "loc");
  readers.RegisterReader("r2", "g2", "loc");
  Environment env{nullptr, &readers};
  EXPECT_TRUE(type.Matches(Observation{"r1", "x", 0}, env));
  EXPECT_FALSE(type.Matches(Observation{"r2", "x", 0}, env));
  EXPECT_FALSE(type.Matches(Observation{"unknown", "x", 0}, env));
}

TEST(EventTypeTest, TypeConstraintUsesCatalog) {
  PrimitiveEventType type(Term::Variable("r"), Term::Variable("o"), "t");
  type.WithObjectType("laptop");
  epc::ProductCatalog catalog;
  catalog.RegisterExact("o-laptop", "laptop");
  catalog.RegisterExact("o-pallet", "pallet");
  Environment env{&catalog, nullptr};
  EXPECT_TRUE(type.Matches(Observation{"r", "o-laptop", 0}, env));
  EXPECT_FALSE(type.Matches(Observation{"r", "o-pallet", 0}, env));
  EXPECT_FALSE(type.Matches(Observation{"r", "o-unknown", 0}, env));
}

TEST(EventTypeTest, LiteralObjectMatchesExactly) {
  PrimitiveEventType type(Term::Variable("r"), Term::Literal("case7"), "t");
  Environment env;
  EXPECT_TRUE(type.Matches(Observation{"r", "case7", 0}, env));
  EXPECT_FALSE(type.Matches(Observation{"r", "case8", 0}, env));
}

TEST(EventTypeTest, BindProducesVariableBindings) {
  PrimitiveEventType type(Term::Variable("r"), Term::Variable("o1"), "t1");
  Bindings b = type.Bind("rX", "oY", 42 * kSecond);
  EXPECT_EQ(std::get<SharedText>(b.Scalar("r")).view(), "rX");
  EXPECT_EQ(std::get<SharedText>(b.Scalar("o1")).view(), "oY");
  EXPECT_EQ(std::get<TimePoint>(b.Scalar("t1")), 42 * kSecond);
}

TEST(EventTypeTest, LiteralTermsDoNotBind) {
  PrimitiveEventType type(Term::Literal("r1"), Term::Variable("o"), "t");
  Bindings b = type.Bind("r1", "oY", 1);
  EXPECT_FALSE(b.HasScalar("r1"));
  EXPECT_TRUE(b.HasScalar("o"));
  EXPECT_EQ(b.scalar_count(), 2u);  // o and t.
}

TEST(EventTypeTest, CanonicalKeyDistinguishesConstraints) {
  PrimitiveEventType plain(Term::Variable("r"), Term::Variable("o"), "t");
  PrimitiveEventType grouped = plain;
  grouped.WithGroup("g1");
  PrimitiveEventType typed = plain;
  typed.WithObjectType("case");
  EXPECT_NE(plain.CanonicalKey(), grouped.CanonicalKey());
  EXPECT_NE(plain.CanonicalKey(), typed.CanonicalKey());
  EXPECT_NE(grouped.CanonicalKey(), typed.CanonicalKey());
  // Identical definitions share a key (common-subgraph merging).
  PrimitiveEventType same(Term::Variable("r"), Term::Variable("o"), "t");
  EXPECT_EQ(plain.CanonicalKey(), same.CanonicalKey());
}

}  // namespace
}  // namespace rfidcep::events
