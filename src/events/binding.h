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
//
// EPC values are SharedText handles, not strings: the detector copies an
// observation's reader and object EPC once, and every leaf's bindings, the
// primitive instance and every pair merged from it share those bytes and
// their precomputed hash. Copying a Bindings therefore allocates its entry
// vectors and nothing else.

#ifndef RFIDCEP_EVENTS_BINDING_H_
#define RFIDCEP_EVENTS_BINDING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/time.h"
#include "events/symbol.h"

namespace rfidcep::events {

// Immutable, reference-counted text that carries its own hash: the EPC
// alternative of a BindingValue.
//
// Making a handle copies the bytes once (one operator new call) and hashes
// them once; copying it is an atomic increment and releasing it an atomic
// decrement, so handles may be copied on one thread and dropped on another.
// There is no global intern table: the text
// lives exactly as long as some binding or instance holds it, so detection
// state stays bounded on an endless stream of distinct EPCs. Equality
// checks the storage first, then the hash, then the bytes.
class SharedText {
 public:
  // The empty text. Never allocates (nor does making one from "").
  SharedText() = default;
  // Implicit, so string values bind as before; each call copies the text.
  SharedText(std::string_view text);
  SharedText(const std::string& text) : SharedText(std::string_view(text)) {}
  SharedText(const char* text) : SharedText(std::string_view(text)) {}

  SharedText(const SharedText& other) noexcept : rep_(other.rep_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1);
  }
  SharedText(SharedText&& other) noexcept
      : rep_(std::exchange(other.rep_, nullptr)) {}
  SharedText& operator=(SharedText other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~SharedText() {
    if (rep_ != nullptr && rep_->refs.fetch_sub(1) == 1) Free(rep_);
  }

  std::string_view view() const {
    return rep_ != nullptr ? std::string_view(rep_->data(), rep_->size)
                           : std::string_view();
  }
  std::string str() const { return std::string(view()); }
  bool empty() const { return rep_ == nullptr; }

  // FNV-1a over the bytes plus a splitmix64 finalizer, computed when the
  // handle was made.
  uint64_t hash() const;

  // True when both handles hold one copy of the text, not merely equal text.
  bool SharesStorageWith(const SharedText& other) const {
    return rep_ == other.rep_;
  }

  friend bool operator==(const SharedText& a, const SharedText& b);

 private:
  struct Rep {
    std::atomic<size_t> refs;
    size_t size;
    uint64_t hash;
    // The text follows the header in the same allocation.
    const char* data() const { return reinterpret_cast<const char*>(this + 1); }
  };

  static void Free(Rep* rep) noexcept;

  Rep* rep_ = nullptr;  // Null for the empty text.
};

// A bound attribute value: an EPC or a timestamp.
using BindingValue = std::variant<SharedText, TimePoint>;

std::string BindingValueToString(const BindingValue& value);

// 64-bit content hash of a binding value (type-tagged, so the string "0"
// and the timestamp 0 hash differently). Never returns kWildcardJoinKey.
uint64_t HashBindingValue(const BindingValue& value);

class Bindings {
 public:
  using ScalarEntry = std::pair<SymbolId, BindingValue>;
  using MultiEntry = std::pair<SymbolId, std::vector<BindingValue>>;

  Bindings() = default;

  // Sizes the entry vectors for that many bindings, so building a known
  // shape allocates each vector once.
  void Reserve(size_t scalars, size_t multis) {
    scalars_.reserve(scalars);
    multis_.reserve(multis);
  }

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
