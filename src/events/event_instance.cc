#include "events/event_instance.h"

namespace rfidcep::events {

EventInstancePtr EventInstance::MakePrimitive(SharedText reader,
                                              SharedText object,
                                              TimePoint timestamp,
                                              Bindings bindings,
                                              uint64_t sequence_number) {
  auto* instance = new EventInstance();
  instance->t_begin_ = timestamp;
  instance->t_end_ = timestamp;
  instance->bindings_ = std::move(bindings);
  instance->reader_ = std::move(reader);
  instance->object_ = std::move(object);
  instance->sequence_number_ = sequence_number;
  instance->primitive_ = true;
  return EventInstancePtr(instance);
}

EventInstancePtr EventInstance::MakeComplex(
    TimePoint t_begin, TimePoint t_end, Bindings bindings,
    std::vector<EventInstancePtr> children, uint64_t sequence_number) {
  auto* instance = new EventInstance();
  instance->t_begin_ = t_begin;
  instance->t_end_ = t_end;
  instance->bindings_ = std::move(bindings);
  instance->children_ = std::move(children);
  instance->sequence_number_ = sequence_number;
  return EventInstancePtr(instance);
}

void EventInstance::Free(const EventInstance* instance) noexcept {
  delete instance;
}

Observation EventInstance::observation() const {
  return Observation{reader_.str(), object_.str(), t_begin_};
}

namespace {

void Collect(const EventInstance& instance, std::vector<Observation>* out) {
  if (instance.is_primitive()) {
    out->push_back(instance.observation());
    return;
  }
  for (const EventInstancePtr& child : instance.children()) {
    Collect(*child, out);
  }
}

}  // namespace

std::vector<Observation> EventInstance::CollectObservations() const {
  std::vector<Observation> out;
  Collect(*this, &out);
  return out;
}

std::string EventInstance::ToString() const {
  std::string out = "[";
  out += FormatTimePoint(t_begin_);
  out += ",";
  out += FormatTimePoint(t_end_);
  out += "]";
  if (is_primitive()) {
    out += "obs(";
    out += reader_.view();
    out += ",";
    out += object_.view();
    out += ")";
  } else {
    out += "(";
    out += std::to_string(children_.size());
    out += " children)";
  }
  return out;
}

}  // namespace rfidcep::events
