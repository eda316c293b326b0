// Primitive event types (paper §2.1).
//
// A primitive event type classifies observations by reader and object:
//
//   E = observation(r, o, t), group(r)='g1', type(o)='case'
//
// The reader/object positions are *terms*: either a quoted literal
// ('r1') or a variable (r, o1) that binds the attribute for use in joins
// and actions. group() and type() are the user-defined mapping functions
// from epc/catalog.h, supplied through an Environment.
//
// Per the paper, a literal reader term observation('r1', o, t) defaults to
// group(r) = 'r1' with each unregistered reader forming its own singleton
// group; we therefore match a reader literal L when obs.reader == L or
// group(obs.reader) == L.

#ifndef RFIDCEP_EVENTS_EVENT_TYPE_H_
#define RFIDCEP_EVENTS_EVENT_TYPE_H_

#include <optional>
#include <string>
#include <string_view>

#include "epc/catalog.h"
#include "events/binding.h"
#include "events/observation.h"
#include "events/symbol.h"

namespace rfidcep::events {

// Resolution context for the user-defined functions group(r) and type(o).
// Null members fall back to the paper defaults: group(r) = r, type(o) = "".
struct Environment {
  const epc::ProductCatalog* catalog = nullptr;
  const epc::ReaderRegistry* readers = nullptr;

  std::string TypeOf(std::string_view object_epc) const {
    return catalog != nullptr ? catalog->TypeOf(object_epc) : std::string();
  }
  std::string GroupOf(std::string_view reader_epc) const {
    return readers != nullptr ? readers->GroupOf(reader_epc)
                              : std::string(reader_epc);
  }
  // Allocation-free variant for the per-observation path; the view aliases
  // the registry or `reader_epc` itself.
  std::string_view GroupViewOf(std::string_view reader_epc) const {
    return readers != nullptr ? readers->GroupViewOf(reader_epc) : reader_epc;
  }
  // Allocation-free type(o); the view aliases the catalog and is empty
  // for unknown EPCs (or when there is no catalog).
  std::string_view TypeViewOf(std::string_view object_epc) const {
    return catalog != nullptr ? catalog->TypeViewOf(object_epc)
                              : std::string_view();
  }
};

// A reader/object position in observation(r, o, t): literal or variable.
struct Term {
  bool is_literal = false;
  std::string text;  // Literal value or variable name.

  static Term Literal(std::string value) { return {true, std::move(value)}; }
  static Term Variable(std::string name) { return {false, std::move(name)}; }

  friend bool operator==(const Term& a, const Term& b) {
    return a.is_literal == b.is_literal && a.text == b.text;
  }
};

class PrimitiveEventType {
 public:
  PrimitiveEventType() = default;
  // Interns every variable name (the parser constructs types at Compile()
  // time), so Bind() works purely with SymbolIds per observation.
  PrimitiveEventType(Term reader, Term object, std::string time_var);

  // Adds the constraint group(reader) = `group`.
  PrimitiveEventType& WithGroup(std::string group) {
    group_constraint_ = std::move(group);
    return *this;
  }
  // Adds the constraint type(object) = `type_name`.
  PrimitiveEventType& WithObjectType(std::string type_name) {
    type_constraint_ = std::move(type_name);
    return *this;
  }

  // True if `obs` is an instance of this type under `env`.
  bool Matches(const Observation& obs, const Environment& env) const;

  // Variable bindings produced by a successful match of the observation
  // (reader, object, timestamp). The values share the given handles, so
  // every leaf an observation matches binds one copy of its EPC text.
  // A non-empty `reader_location` binds the derived `<reader_var>_location`
  // (reader_location_sym()): the reader's registered symbolic location, so
  // location rules can write `INSERT INTO OBJECTLOCATION VALUES
  // (o, r_location, t, "UC")` instead of hardcoding one location per rule.
  Bindings Bind(const SharedText& reader, const SharedText& object,
                TimePoint timestamp,
                const SharedText& reader_location = SharedText()) const;

  // Canonical rendering used for common-subgraph merging, e.g.
  // "obs('r1',o,t1)" or "obs(r,o,t),group='g1',type='case'".
  std::string CanonicalKey() const;

  // Rule-language rendering that reparses to an equivalent type, e.g.
  // `observation("r1", o, t1), type(o) = "case"`.
  std::string ToRuleSyntax() const;

  const Term& reader() const { return reader_; }
  const Term& object() const { return object_; }
  const std::string& time_var() const { return time_var_; }
  const std::optional<std::string>& group_constraint() const {
    return group_constraint_;
  }
  const std::optional<std::string>& type_constraint() const {
    return type_constraint_;
  }

  // Interned variable ids; kInvalidSymbol when the term is a literal or
  // the variable is empty. `reader_location_sym()` is the derived
  // `<reader_var>_location` binding the detector attaches per match.
  SymbolId reader_sym() const { return reader_sym_; }
  SymbolId object_sym() const { return object_sym_; }
  SymbolId time_sym() const { return time_sym_; }
  SymbolId reader_location_sym() const { return reader_location_sym_; }

 private:
  Term reader_;
  Term object_;
  std::string time_var_;
  std::optional<std::string> group_constraint_;
  std::optional<std::string> type_constraint_;
  SymbolId reader_sym_ = kInvalidSymbol;
  SymbolId object_sym_ = kInvalidSymbol;
  SymbolId time_sym_ = kInvalidSymbol;
  SymbolId reader_location_sym_ = kInvalidSymbol;
};

}  // namespace rfidcep::events

#endif  // RFIDCEP_EVENTS_EVENT_TYPE_H_
