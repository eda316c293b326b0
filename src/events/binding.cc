#include "events/binding.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

#include "common/hash.h"

namespace rfidcep::events {

namespace {

using common::Mix64;

// FNV-1a, then an avalanche pass (FNV alone mixes low bits poorly).
constexpr uint64_t HashBytes(std::string_view bytes) {
  return Mix64(common::FnvBytes(common::kFnvOffset, bytes));
}

constexpr uint64_t kEmptyTextHash = HashBytes(std::string_view());

template <typename Entries>
auto LowerBound(Entries& entries, SymbolId var) {
  return std::lower_bound(
      entries.begin(), entries.end(), var,
      [](const auto& entry, SymbolId v) { return entry.first < v; });
}

}  // namespace

SharedText::SharedText(std::string_view text) {
  if (text.empty()) return;
  void* memory = ::operator new(sizeof(Rep) + text.size());
  rep_ = new (memory) Rep{1, text.size(), HashBytes(text)};
  std::memcpy(static_cast<char*>(memory) + sizeof(Rep), text.data(),
              text.size());
}

void SharedText::Free(Rep* rep) noexcept {
  rep->~Rep();
  ::operator delete(rep);
}

uint64_t SharedText::hash() const {
  return rep_ != nullptr ? rep_->hash : kEmptyTextHash;
}

bool operator==(const SharedText& a, const SharedText& b) {
  return a.rep_ == b.rep_ || (a.hash() == b.hash() && a.view() == b.view());
}

std::string BindingValueToString(const BindingValue& value) {
  if (const SharedText* text = std::get_if<SharedText>(&value)) {
    return text->str();
  }
  return FormatTimePoint(std::get<TimePoint>(value));
}

uint64_t HashBindingValue(const BindingValue& value) {
  uint64_t h;
  if (const SharedText* text = std::get_if<SharedText>(&value)) {
    h = text->hash();
  } else {
    h = Mix64(0x7465u ^  // Type tag: timestamps never alias strings.
              static_cast<uint64_t>(std::get<TimePoint>(value)));
  }
  return h != kWildcardJoinKey ? h : 1;
}

void Bindings::BindScalar(SymbolId var, BindingValue value) {
  auto it = LowerBound(scalars_, var);
  if (it != scalars_.end() && it->first == var) {
    it->second = std::move(value);
  } else {
    scalars_.emplace(it, var, std::move(value));
  }
}

void Bindings::BindMulti(SymbolId var, BindingValue value) {
  auto it = LowerBound(multis_, var);
  if (it == multis_.end() || it->first != var) {
    it = multis_.emplace(it, var, std::vector<BindingValue>());
  }
  it->second.push_back(std::move(value));
}

const BindingValue* Bindings::FindScalar(SymbolId var) const {
  auto it = LowerBound(scalars_, var);
  if (it == scalars_.end() || it->first != var) return nullptr;
  return &it->second;
}

const std::vector<BindingValue>* Bindings::FindMulti(SymbolId var) const {
  auto it = LowerBound(multis_, var);
  if (it == multis_.end() || it->first != var) return nullptr;
  return &it->second;
}

const BindingValue& Bindings::Scalar(SymbolId var) const {
  const BindingValue* value = FindScalar(var);
  assert(value != nullptr);
  return *value;
}

const std::vector<BindingValue>& Bindings::Multi(SymbolId var) const {
  const std::vector<BindingValue>* values = FindMulti(var);
  assert(values != nullptr);
  return *values;
}

namespace {

// True if the sorted entry ranges share no SymbolId.
template <typename A, typename B>
bool Disjoint(const A& a, const B& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (ia->first < ib->first) {
      ++ia;
    } else if (ib->first < ia->first) {
      ++ib;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

bool Bindings::UnifiesWith(const Bindings& other) const {
  // Shared scalars must agree.
  auto ia = scalars_.begin();
  auto ib = other.scalars_.begin();
  while (ia != scalars_.end() && ib != other.scalars_.end()) {
    if (ia->first < ib->first) {
      ++ia;
    } else if (ib->first < ia->first) {
      ++ib;
    } else {
      if (ia->second != ib->second) return false;
      ++ia;
      ++ib;
    }
  }
  // No variable may be scalar on one side and multi-valued on the other.
  return Disjoint(scalars_, other.multis_) && Disjoint(multis_, other.scalars_);
}

bool Bindings::Merge(const Bindings& other) {
  if (!UnifiesWith(other)) return false;
  for (const auto& [var, value] : other.scalars_) {
    auto it = LowerBound(scalars_, var);
    if (it == scalars_.end() || it->first != var) {
      scalars_.emplace(it, var, value);
    }
  }
  for (const auto& [var, values] : other.multis_) {
    auto it = LowerBound(multis_, var);
    if (it == multis_.end() || it->first != var) {
      multis_.emplace(it, var, values);
    } else {
      it->second.insert(it->second.end(), values.begin(), values.end());
    }
  }
  return true;
}

bool Bindings::Merge(Bindings&& other) {
  if (!UnifiesWith(other)) return false;
  if (scalars_.empty() && multis_.empty()) {
    *this = std::move(other);
    return true;
  }
  for (auto& [var, value] : other.scalars_) {
    auto it = LowerBound(scalars_, var);
    if (it == scalars_.end() || it->first != var) {
      scalars_.emplace(it, var, std::move(value));
    }
  }
  for (auto& [var, values] : other.multis_) {
    auto it = LowerBound(multis_, var);
    if (it == multis_.end() || it->first != var) {
      multis_.emplace(it, var, std::move(values));
    } else {
      it->second.insert(it->second.end(),
                        std::make_move_iterator(values.begin()),
                        std::make_move_iterator(values.end()));
    }
  }
  return true;
}

Bindings Bindings::ToMulti() const {
  Bindings out;
  out.multis_ = multis_;
  for (const auto& [var, value] : scalars_) {
    auto it = LowerBound(out.multis_, var);
    if (it == out.multis_.end() || it->first != var) {
      it = out.multis_.emplace(it, var, std::vector<BindingValue>());
    }
    it->second.push_back(value);
  }
  return out;
}

uint64_t ComputeJoinKey(const Bindings& bindings, const SymbolId* vars,
                        size_t num_vars, bool* complete) {
  *complete = true;
  uint64_t key = 0x243f6a8885a308d3ull;  // Arbitrary nonzero seed.
  for (size_t i = 0; i < num_vars; ++i) {
    const BindingValue* value = bindings.FindScalar(vars[i]);
    if (value == nullptr) {
      *complete = false;
      return kWildcardJoinKey;
    }
    key = Mix64(key ^ HashBindingValue(*value));
  }
  return key != kWildcardJoinKey ? key : 1;
}

}  // namespace rfidcep::events
