#include "events/event_type.h"

namespace rfidcep::events {

PrimitiveEventType::PrimitiveEventType(Term reader, Term object,
                                       std::string time_var)
    : reader_(std::move(reader)),
      object_(std::move(object)),
      time_var_(std::move(time_var)) {
  if (!reader_.is_literal && !reader_.text.empty()) {
    reader_sym_ = InternSymbol(reader_.text);
    reader_location_sym_ = InternSymbol(reader_.text + "_location");
  }
  if (!object_.is_literal && !object_.text.empty()) {
    object_sym_ = InternSymbol(object_.text);
  }
  if (!time_var_.empty()) {
    time_sym_ = InternSymbol(time_var_);
  }
}

bool PrimitiveEventType::Matches(const Observation& obs,
                                 const Environment& env) const {
  if (reader_.is_literal) {
    if (obs.reader != reader_.text &&
        env.GroupViewOf(obs.reader) != reader_.text) {
      return false;
    }
  }
  if (object_.is_literal && obs.object != object_.text) return false;
  if (group_constraint_.has_value() &&
      env.GroupViewOf(obs.reader) != *group_constraint_) {
    return false;
  }
  if (type_constraint_.has_value() &&
      env.TypeOf(obs.object) != *type_constraint_) {
    return false;
  }
  return true;
}

Bindings PrimitiveEventType::Bind(const SharedText& reader,
                                  const SharedText& object,
                                  TimePoint timestamp,
                                  const SharedText& reader_location) const {
  const bool bind_location =
      reader_location_sym_ != kInvalidSymbol && !reader_location.empty();
  Bindings bindings;
  bindings.Reserve((reader_sym_ != kInvalidSymbol) +
                       (object_sym_ != kInvalidSymbol) +
                       (time_sym_ != kInvalidSymbol) + bind_location,
                   0);
  if (reader_sym_ != kInvalidSymbol) bindings.BindScalar(reader_sym_, reader);
  if (object_sym_ != kInvalidSymbol) bindings.BindScalar(object_sym_, object);
  if (time_sym_ != kInvalidSymbol) bindings.BindScalar(time_sym_, timestamp);
  if (bind_location) {
    bindings.BindScalar(reader_location_sym_, reader_location);
  }
  return bindings;
}

std::string PrimitiveEventType::ToRuleSyntax() const {
  auto term = [](const Term& t) {
    return t.is_literal ? "\"" + t.text + "\"" : t.text;
  };
  std::string out = "observation(" + term(reader_) + ", " + term(object_) +
                    ", " + time_var_ + ")";
  if (group_constraint_.has_value()) {
    std::string var = reader_.is_literal ? std::string("r") : reader_.text;
    out += ", group(" + var + ") = \"" + *group_constraint_ + "\"";
  }
  if (type_constraint_.has_value()) {
    std::string var = object_.is_literal ? std::string("o") : object_.text;
    out += ", type(" + var + ") = \"" + *type_constraint_ + "\"";
  }
  return out;
}

std::string PrimitiveEventType::CanonicalKey() const {
  auto term = [](const Term& t) {
    return t.is_literal ? "'" + t.text + "'" : t.text;
  };
  std::string out = "obs(" + term(reader_) + "," + term(object_) + "," +
                    time_var_ + ")";
  if (group_constraint_.has_value()) {
    out += ",group='" + *group_constraint_ + "'";
  }
  if (type_constraint_.has_value()) {
    out += ",type='" + *type_constraint_ + "'";
  }
  return out;
}

}  // namespace rfidcep::events
