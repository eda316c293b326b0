#include "events/event_instance.h"

#include <utility>
#include <vector>

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

// --- EventInstancePtr: the counted handle ----------------------------------

static_assert(sizeof(EventInstancePtr) == sizeof(void*));

// Every live handle counts once, whichever way it was made, and
// use_count() reads the count: join buffers hand out and take back copies
// and expect an instance's count back at 1 once they let go of it.
TEST(EventInstancePtrTest, UseCountFollowsEveryLiveHandle) {
  EventInstancePtr a = Prim("r1", "o1", 1 * kSecond, 1);
  EXPECT_EQ(a.use_count(), 1);
  EventInstancePtr copy = a;
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(copy.get(), a.get());
  EXPECT_TRUE(copy == a);
  EventInstancePtr assigned;
  EXPECT_EQ(assigned.use_count(), 0);
  EXPECT_TRUE(assigned == nullptr);
  assigned = copy;
  EXPECT_EQ(a.use_count(), 3);
  EventInstancePtr moved = std::move(copy);
  EXPECT_EQ(a.use_count(), 3);
  EXPECT_TRUE(copy == nullptr);  // NOLINT(bugprone-use-after-move)
  EventInstancePtr& alias = a;
  a = alias;  // Self-assignment keeps the count.
  EXPECT_EQ(a.use_count(), 3);
  assigned = a;  // Re-assigning the same instance does too.
  EXPECT_EQ(a.use_count(), 3);
  moved.reset();
  EXPECT_TRUE(moved == nullptr);
  EXPECT_EQ(a.use_count(), 2);
  assigned = nullptr;
  EXPECT_EQ(a.use_count(), 1);
  EXPECT_TRUE(a != nullptr);
  EXPECT_EQ(&*a, a.get());
  EXPECT_EQ(a->sequence_number(), 1u);

  EventInstancePtr b = Prim("r1", "o1", 1 * kSecond, 1);
  EXPECT_FALSE(a == b);  // Equal content, distinct instances.
}

// A parent holds a handle per child slot; releasing the parent's last
// handle releases those, so the child's count returns to its own holders.
TEST(EventInstancePtrTest, LastReleaseFreesTheInstanceAndReleasesChildren) {
  EventInstancePtr child = Prim("r1", "o1", 1 * kSecond, 1);
  {
    EventInstancePtr parent =
        EventInstance::MakeComplex(1 * kSecond, 1 * kSecond, Bindings(),
                                   {child, child}, 2);
    EXPECT_EQ(child.use_count(), 3);
    std::vector<EventInstancePtr> held(4, parent);
    EXPECT_EQ(parent.use_count(), 5);
    EXPECT_EQ(child.use_count(), 3);
  }
  EXPECT_EQ(child.use_count(), 1);
}

}  // namespace
}  // namespace rfidcep::events
