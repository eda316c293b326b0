#include "events/event_instance.h"

#include <gtest/gtest.h>

namespace rfidcep::events {
namespace {

EventInstancePtr Prim(const std::string& reader, const std::string& object,
                      TimePoint t, uint64_t seq) {
  return EventInstance::MakePrimitive(reader, object, t, Bindings(), seq);
}

TEST(EventInstanceTest, PrimitiveIsInstantaneous) {
  EventInstancePtr e = Prim("r1", "o1", 5 * kSecond, 1);
  EXPECT_TRUE(e->is_primitive());
  EXPECT_EQ(e->t_begin(), e->t_end());
  EXPECT_EQ(e->interval(), 0);
  EXPECT_EQ(e->observation().reader, "r1");
}

TEST(EventInstanceTest, ComplexSpansChildren) {
  EventInstancePtr a = Prim("r1", "o1", 1 * kSecond, 1);
  EventInstancePtr b = Prim("r2", "o2", 4 * kSecond, 2);
  EventInstancePtr c = EventInstance::MakeComplex(
      a->t_begin(), b->t_end(), Bindings(), {a, b}, 3);
  EXPECT_FALSE(c->is_primitive());
  EXPECT_EQ(c->interval(), 3 * kSecond);
  EXPECT_EQ(c->children().size(), 2u);
}

TEST(EventInstanceTest, TemporalFunctionsMatchPaperFig3) {
  // dist(e1,e2) = t_end(e2) - t_end(e1);
  // interval(e1,e2) = max(t_end) - min(t_begin).
  EventInstancePtr e1 = Prim("r", "o", 2 * kSecond, 1);
  EventInstancePtr e2 = Prim("r", "o", 9 * kSecond, 2);
  EXPECT_EQ(Dist(*e1, *e2), 7 * kSecond);
  EXPECT_EQ(Dist(*e2, *e1), -7 * kSecond);
  EXPECT_EQ(CombinedInterval(*e1, *e2), 7 * kSecond);

  EventInstancePtr complex1 = EventInstance::MakeComplex(
      1 * kSecond, 5 * kSecond, Bindings(), {}, 3);
  EventInstancePtr complex2 = EventInstance::MakeComplex(
      3 * kSecond, 11 * kSecond, Bindings(), {}, 4);
  EXPECT_EQ(Dist(*complex1, *complex2), 6 * kSecond);
  EXPECT_EQ(CombinedInterval(*complex1, *complex2), 10 * kSecond);
}

TEST(EventInstanceTest, CollectObservationsFlattensInOrder) {
  EventInstancePtr a = Prim("r1", "a", 1, 1);
  EventInstancePtr b = Prim("r1", "b", 2, 2);
  EventInstancePtr c = Prim("r2", "c", 3, 3);
  EventInstancePtr run =
      EventInstance::MakeComplex(1, 2, Bindings(), {a, b}, 4);
  EventInstancePtr root =
      EventInstance::MakeComplex(1, 3, Bindings(), {run, c}, 5);
  std::vector<Observation> flat = root->CollectObservations();
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat[0].object, "a");
  EXPECT_EQ(flat[1].object, "b");
  EXPECT_EQ(flat[2].object, "c");
}

TEST(EventInstanceTest, ToStringIsInformative) {
  EventInstancePtr e = Prim("r1", "o1", kSecond, 7);
  EXPECT_NE(e->ToString().find("r1"), std::string::npos);
  EXPECT_NE(e->ToString().find("o1"), std::string::npos);
}

}  // namespace
}  // namespace rfidcep::events
