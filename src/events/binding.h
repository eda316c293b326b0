// Variable bindings carried by event instances.
//
// The paper's rule language names observation attributes with variables:
//   observation(r, o, t1); observation(r, o, t2)
// Re-using a variable across constituent events (here `r` and `o`) is an
// equality join: the two observations must agree on that attribute. Rule 1
// (duplicate detection) and Rule 2 (infield filtering) depend on this.
//
// Inside an aperiodic sequence (SEQ+/TSEQ+) a variable ranges over every
// repetition, so its binding becomes *multi-valued* — Rule 4's
// `BULK INSERT ... VALUES (o2, o1, t2, "UC")` expands the multi-valued `o1`
// into one row per packed item. Multi-valued bindings do not participate in
// equality joins.
//
// Layout: variables are interned SymbolIds (see symbol.h) and bindings are
// sorted small-vectors of (SymbolId, value) pairs. A primitive instance
// carries at most a handful of variables, so sorted vectors beat node-based
// maps on every operation that matters — Merge and unification walk the two
// vectors once with integer comparisons, no per-node allocation and no
// string compares. String-keyed overloads survive as conveniences for tests
// and action parameter building; the detection hot path never uses them.

#ifndef RFIDCEP_EVENTS_BINDING_H_
#define RFIDCEP_EVENTS_BINDING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/time.h"
#include "events/symbol.h"

namespace rfidcep::events {

// A bound attribute value: an EPC string or a timestamp.
using BindingValue = std::variant<std::string, TimePoint>;

std::string BindingValueToString(const BindingValue& value);

// 64-bit content hash of a binding value (type-tagged, so the string "0"
// and the timestamp 0 hash differently). Never returns kWildcardJoinKey.
uint64_t HashBindingValue(const BindingValue& value);

class Bindings {
 public:
  using ScalarEntry = std::pair<SymbolId, BindingValue>;
  using MultiEntry = std::pair<SymbolId, std::vector<BindingValue>>;

  Bindings() = default;

  // --- SymbolId API (hot path) --------------------------------------------
  // Binds `var` to a scalar value. Overwrites any existing scalar binding.
  void BindScalar(SymbolId var, BindingValue value);

  // Appends `value` to the multi-valued binding of `var`.
  void BindMulti(SymbolId var, BindingValue value);

  bool HasScalar(SymbolId var) const { return FindScalar(var) != nullptr; }
  bool HasMulti(SymbolId var) const { return FindMulti(var) != nullptr; }

  // Scalar lookup; requires HasScalar(var).
  const BindingValue& Scalar(SymbolId var) const;
  // Scalar lookup; nullptr when unbound. Never allocates.
  const BindingValue* FindScalar(SymbolId var) const;

  // Multi-valued lookup; requires HasMulti(var).
  const std::vector<BindingValue>& Multi(SymbolId var) const;
  const std::vector<BindingValue>* FindMulti(SymbolId var) const;

  // --- String conveniences (tests, action parameters) ---------------------
  // Binding interns the name; lookups resolve it without interning.
  void BindScalar(std::string_view var, BindingValue value) {
    BindScalar(InternSymbol(var), std::move(value));
  }
  void BindMulti(std::string_view var, BindingValue value) {
    BindMulti(InternSymbol(var), std::move(value));
  }
  bool HasScalar(std::string_view var) const {
    return HasScalar(FindSymbol(var));
  }
  bool HasMulti(std::string_view var) const {
    return HasMulti(FindSymbol(var));
  }
  const BindingValue& Scalar(std::string_view var) const {
    return Scalar(FindSymbol(var));
  }
  const std::vector<BindingValue>& Multi(std::string_view var) const {
    return Multi(FindSymbol(var));
  }

  // --- Set operations -------------------------------------------------------
  // True if `other` could merge into *this: every shared scalar variable
  // agrees and no variable is scalar on one side, multi-valued on the
  // other. Pure comparison — never allocates or mutates.
  bool UnifiesWith(const Bindings& other) const;

  // Attempts to merge `other` into *this. Fails (returns false, leaving
  // *this unspecified) if a shared scalar variable has conflicting values
  // or a variable is scalar on one side and multi-valued on the other.
  // Multi-valued bindings concatenate (other's values appended).
  bool Merge(const Bindings& other);
  // Rvalue overload: moves other's values instead of copying them.
  bool Merge(Bindings&& other);

  // Demotes every scalar binding to a single-element multi-valued binding.
  // Used when an instance enters an aperiodic sequence run.
  Bindings ToMulti() const;

  size_t scalar_count() const { return scalars_.size(); }
  size_t multi_count() const { return multis_.size(); }

  // Entries sorted by SymbolId.
  const std::vector<ScalarEntry>& scalars() const { return scalars_; }
  const std::vector<MultiEntry>& multis() const { return multis_; }

 private:
  std::vector<ScalarEntry> scalars_;  // Sorted by SymbolId, unique.
  std::vector<MultiEntry> multis_;    // Sorted by SymbolId, unique.
};

// --- Join keys ---------------------------------------------------------------

// Join key for entries whose join variables are not all bound; buffers
// keep such entries on a wildcard chain that every lookup also scans.
inline constexpr uint64_t kWildcardJoinKey = 0;

// 64-bit equality-join key of `bindings` over the interned variables
// `vars` (must be the node's sorted join_syms). Returns kWildcardJoinKey
// and sets *complete=false when any variable lacks a scalar binding;
// otherwise a mixed hash of the bound values (never the wildcard value).
// Distinct value tuples may collide — callers must re-check unification on
// the chain scan, which the detector's pairing predicate always does.
uint64_t ComputeJoinKey(const Bindings& bindings, const SymbolId* vars,
                        size_t num_vars, bool* complete);

inline uint64_t ComputeJoinKey(const Bindings& bindings,
                               const std::vector<SymbolId>& vars,
                               bool* complete) {
  return ComputeJoinKey(bindings, vars.data(), vars.size(), complete);
}

}  // namespace rfidcep::events

#endif  // RFIDCEP_EVENTS_BINDING_H_
