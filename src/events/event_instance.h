// Event instances (occurrences) and the paper's temporal functions (Fig. 3).
//
// An EventInstance is an occurrence of an event type over [t_begin, t_end].
// Primitive instances hold one observation as its reader and object
// SharedText handles plus its timestamp — the same handles their bindings
// share, so an observation's EPC text is stored once however many leaves,
// instances and pairs reach it. Complex instances own their constituent
// instances, so a detected match can be traversed for action parameter
// binding. Instances are immutable after construction and shared between
// buffers via shared_ptr.

#ifndef RFIDCEP_EVENTS_EVENT_INSTANCE_H_
#define RFIDCEP_EVENTS_EVENT_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "events/binding.h"
#include "events/observation.h"

namespace rfidcep::events {

class EventInstance;
using EventInstancePtr = std::shared_ptr<const EventInstance>;

class EventInstance {
  // Keeps the constructor to the factories below while letting them use
  // std::make_shared: the instance and its count share one allocation.
  struct Token {
    explicit Token() = default;
  };

 public:
  explicit EventInstance(Token) {}

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
  TimePoint t_begin_ = 0;
  TimePoint t_end_ = 0;
  Bindings bindings_;
  SharedText reader_;  // Primitive only.
  SharedText object_;  // Primitive only.
  std::vector<EventInstancePtr> children_;
  uint64_t sequence_number_ = 0;
  bool primitive_ = false;
};

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
