// Event instances (occurrences) and the paper's temporal functions (Fig. 3).
//
// An EventInstance is an occurrence of an event type over [t_begin, t_end].
// Primitive instances hold one observation as its reader and object
// SharedText handles plus its timestamp — the same handles their bindings
// share, so an observation's EPC text is stored once however many leaves,
// instances and pairs reach it. Complex instances own their constituent
// instances, so a detected match can be traversed for action parameter
// binding. Instances are immutable after construction and shared between
// buffers through EventInstancePtr handles.

#ifndef RFIDCEP_EVENTS_EVENT_INSTANCE_H_
#define RFIDCEP_EVENTS_EVENT_INSTANCE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "events/binding.h"
#include "events/observation.h"

namespace rfidcep::events {

class EventInstance;

// A counted handle on an immutable EventInstance, used as a
// shared_ptr<const EventInstance> would be. The count lives in the
// instance, so making an instance is one allocation; copying a handle
// increments the count, releasing one decrements it, and the last
// release frees the instance (releasing its children in turn).
//
// Threading: the count is plain, as SharedText's is (binding.h). Every
// handle on one instance tree must be copied and released by one thread
// at a time, with a happens-before edge (a mutex hand-over, a thread
// join) between threads that take turns. An engine's instances are
// touched only by the thread that calls into that engine, and rfidcepd
// serializes each tenant's engine under Tenant::mu() (DESIGN.md §6).
class EventInstancePtr {
 public:
  EventInstancePtr() noexcept = default;
  EventInstancePtr(std::nullptr_t) noexcept {}
  inline EventInstancePtr(const EventInstancePtr& other) noexcept;
  EventInstancePtr(EventInstancePtr&& other) noexcept
      : instance_(std::exchange(other.instance_, nullptr)) {}
  EventInstancePtr& operator=(EventInstancePtr other) noexcept {
    std::swap(instance_, other.instance_);
    return *this;
  }
  inline ~EventInstancePtr();

  const EventInstance* get() const noexcept { return instance_; }
  const EventInstance& operator*() const noexcept { return *instance_; }
  const EventInstance* operator->() const noexcept { return instance_; }
  void reset() noexcept { *this = nullptr; }
  // Handles on this instance, this one included; 0 for a null handle.
  inline long use_count() const noexcept;

  friend bool operator==(const EventInstancePtr& a,
                         const EventInstancePtr& b) noexcept {
    return a.instance_ == b.instance_;
  }
  friend bool operator==(const EventInstancePtr& a, std::nullptr_t) noexcept {
    return a.instance_ == nullptr;
  }

 private:
  friend class EventInstance;
  // Takes over a new instance, whose count starts at 1.
  explicit EventInstancePtr(const EventInstance* adopted) noexcept
      : instance_(adopted) {}

  const EventInstance* instance_ = nullptr;
};

class EventInstance {
 public:
  EventInstance(const EventInstance&) = delete;
  EventInstance& operator=(const EventInstance&) = delete;

  // Creates a primitive instance for the observation (reader, object,
  // timestamp) with the given variable bindings (reader/object/time
  // variables of the matched primitive type).
  static EventInstancePtr MakePrimitive(SharedText reader, SharedText object,
                                        TimePoint timestamp, Bindings bindings,
                                        uint64_t sequence_number);

  // Creates a complex instance spanning [t_begin, t_end] with merged
  // `bindings` and the given constituents.
  static EventInstancePtr MakeComplex(TimePoint t_begin, TimePoint t_end,
                                      Bindings bindings,
                                      std::vector<EventInstancePtr> children,
                                      uint64_t sequence_number);

  bool is_primitive() const { return primitive_; }

  TimePoint t_begin() const { return t_begin_; }
  TimePoint t_end() const { return t_end_; }

  // interval(e) = t_end(e) - t_begin(e). Zero for primitive instances.
  Duration interval() const { return t_end_ - t_begin_; }

  // Engine-global arrival order; ties in t_end are broken by this to make
  // chronicle pairing deterministic.
  uint64_t sequence_number() const { return sequence_number_; }

  const Bindings& bindings() const { return bindings_; }
  // Primitive only: the observation's EPC handles, and the observation
  // rebuilt from them as strings.
  const SharedText& reader_text() const { return reader_; }
  const SharedText& object_text() const { return object_; }
  Observation observation() const;
  const std::vector<EventInstancePtr>& children() const { return children_; }

  // Flattens the instance tree into its primitive observations, in tree
  // (left-to-right, i.e. temporal) order.
  std::vector<Observation> CollectObservations() const;

  // Debug rendering, e.g. "[10.000000s,20.000000s](2 children)".
  std::string ToString() const;

 private:
  friend class EventInstancePtr;

  EventInstance() = default;
  ~EventInstance() = default;
  // Deletes an instance whose last handle was released.
  static void Free(const EventInstance* instance) noexcept;

  TimePoint t_begin_ = 0;
  TimePoint t_end_ = 0;
  Bindings bindings_;
  SharedText reader_;  // Primitive only.
  SharedText object_;  // Primitive only.
  std::vector<EventInstancePtr> children_;
  uint64_t sequence_number_ = 0;
  // Handles on this instance. 32 bits, as libstdc++'s shared count is,
  // so it packs beside primitive_ with the instance's size unchanged.
  mutable uint32_t refs_ = 1;
  bool primitive_ = false;
};

EventInstancePtr::EventInstancePtr(const EventInstancePtr& other) noexcept
    : instance_(other.instance_) {
  if (instance_ != nullptr) ++instance_->refs_;
}

EventInstancePtr::~EventInstancePtr() {
  if (instance_ != nullptr && --instance_->refs_ == 0) {
    EventInstance::Free(instance_);
  }
}

long EventInstancePtr::use_count() const noexcept {
  return instance_ != nullptr ? static_cast<long>(instance_->refs_) : 0;
}

// dist(e1, e2) = t_end(e2) - t_end(e1)  (paper Fig. 3).
inline Duration Dist(const EventInstance& e1, const EventInstance& e2) {
  return e2.t_end() - e1.t_end();
}

// interval(e1, e2) = max(t_end) - min(t_begin)  (paper Fig. 3).
inline Duration CombinedInterval(const EventInstance& e1,
                                 const EventInstance& e2) {
  return std::max(e1.t_end(), e2.t_end()) -
         std::min(e1.t_begin(), e2.t_begin());
}

}  // namespace rfidcep::events

#endif  // RFIDCEP_EVENTS_EVENT_INSTANCE_H_
