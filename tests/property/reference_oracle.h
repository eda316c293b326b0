// A brute-force reference implementation of complex-event semantics, used
// as an oracle by the property tests.
//
// Given the COMPLETE event history, EnumerateInstances computes every
// instance of a NOT-free expression under *unrestricted* semantics:
//
//   prim     every matching observation
//   OR       union of the branches' instances
//   AND      every unifying cross pair within the interval bound
//   SEQ/TSEQ every ordered, distance/interval-admissible, unifying pair
//   SEQ+     the maximal adjacent-distance runs of the constituent stream
//            (the documented run semantics; see DESIGN.md §3)
//
// It is deliberately simple and quadratic/cubic — correctness only. The
// streaming engine in unrestricted context must agree with it exactly;
// chronicle-context results must be a subset of it.
//
// ValidateInstance re-checks every temporal constraint of `expr` on a
// detected instance tree — used to assert that whatever the engine emits
// under ANY context satisfies the declarative constraints.

#ifndef RFIDCEP_TESTS_PROPERTY_REFERENCE_ORACLE_H_
#define RFIDCEP_TESTS_PROPERTY_REFERENCE_ORACLE_H_

#include <algorithm>
#include <vector>

#include "events/event_instance.h"
#include "events/event_type.h"
#include "events/expr.h"

namespace rfidcep::engine::testing {

using events::Bindings;
using events::EventExpr;
using events::EventInstance;
using events::EventInstancePtr;
using events::ExprOp;
using events::Observation;

inline bool OracleUnifies(const Bindings& a, const Bindings& b) {
  Bindings tmp = a;
  return tmp.Merge(b);
}

// All instances of `expr` over the complete `history` (must be
// timestamp-sorted). NOT is unsupported (callers keep oracle expressions
// NOT-free).
inline std::vector<EventInstancePtr> EnumerateInstances(
    const EventExpr& expr, const std::vector<Observation>& history,
    const events::Environment& env, uint64_t* seq) {
  std::vector<EventInstancePtr> out;
  auto passes_within = [&expr](const EventInstancePtr& e) {
    return !expr.has_within() || e->interval() <= expr.within();
  };
  switch (expr.op()) {
    case ExprOp::kPrimitive: {
      for (const Observation& obs : history) {
        if (expr.primitive().Matches(obs, env)) {
          out.push_back(EventInstance::MakePrimitive(
              obs.reader, obs.object, obs.timestamp,
              expr.primitive().Bind(obs.reader, obs.object, obs.timestamp),
              ++*seq));
        }
      }
      break;
    }
    case ExprOp::kOr: {
      for (const events::EventExprPtr& child : expr.children()) {
        std::vector<EventInstancePtr> sub =
            EnumerateInstances(*child, history, env, seq);
        out.insert(out.end(), sub.begin(), sub.end());
      }
      break;
    }
    case ExprOp::kAnd: {
      std::vector<EventInstancePtr> lhs =
          EnumerateInstances(*expr.children()[0], history, env, seq);
      std::vector<EventInstancePtr> rhs =
          EnumerateInstances(*expr.children()[1], history, env, seq);
      for (const EventInstancePtr& a : lhs) {
        for (const EventInstancePtr& b : rhs) {
          if (expr.has_within() &&
              events::CombinedInterval(*a, *b) > expr.within()) {
            continue;
          }
          if (!OracleUnifies(a->bindings(), b->bindings())) continue;
          Bindings merged = a->bindings();
          merged.Merge(b->bindings());
          const EventInstancePtr& first = a->t_begin() <= b->t_begin() ? a : b;
          const EventInstancePtr& second = a->t_begin() <= b->t_begin() ? b : a;
          out.push_back(EventInstance::MakeComplex(
              std::min(a->t_begin(), b->t_begin()),
              std::max(a->t_end(), b->t_end()), std::move(merged),
              {first, second}, ++*seq));
        }
      }
      break;
    }
    case ExprOp::kSeq: {
      std::vector<EventInstancePtr> lhs =
          EnumerateInstances(*expr.children()[0], history, env, seq);
      std::vector<EventInstancePtr> rhs =
          EnumerateInstances(*expr.children()[1], history, env, seq);
      for (const EventInstancePtr& a : lhs) {
        for (const EventInstancePtr& b : rhs) {
          if (a->t_end() >= b->t_begin()) continue;
          Duration d = events::Dist(*a, *b);
          if (d < expr.dist_lo() || d > expr.dist_hi()) continue;
          if (expr.has_within() &&
              b->t_end() - a->t_begin() > expr.within()) {
            continue;
          }
          if (!OracleUnifies(a->bindings(), b->bindings())) continue;
          Bindings merged = a->bindings();
          merged.Merge(b->bindings());
          out.push_back(EventInstance::MakeComplex(
              a->t_begin(), b->t_end(), std::move(merged), {a, b}, ++*seq));
        }
      }
      break;
    }
    case ExprOp::kSeqPlus: {
      std::vector<EventInstancePtr> elements =
          EnumerateInstances(*expr.children()[0], history, env, seq);
      std::sort(elements.begin(), elements.end(),
                [](const EventInstancePtr& a, const EventInstancePtr& b) {
                  if (a->t_end() != b->t_end()) return a->t_end() < b->t_end();
                  return a->sequence_number() < b->sequence_number();
                });
      std::vector<EventInstancePtr> run;
      auto close_run = [&]() {
        if (run.empty()) return;
        Bindings merged;
        for (const EventInstancePtr& e : run) {
          Bindings multi = e->bindings().ToMulti();
          merged.Merge(multi);
        }
        out.push_back(EventInstance::MakeComplex(
            run.front()->t_begin(), run.back()->t_end(), std::move(merged),
            run, ++*seq));
        run.clear();
      };
      for (const EventInstancePtr& e : elements) {
        if (!run.empty()) {
          Duration d = e->t_end() - run.back()->t_end();
          bool fits = d >= expr.dist_lo() && d <= expr.dist_hi();
          bool fits_within = !expr.has_within() ||
                             e->t_end() - run.front()->t_begin() <=
                                 expr.within();
          if (!fits || !fits_within) close_run();
        }
        run.push_back(e);
      }
      close_run();
      break;
    }
    case ExprOp::kNot:
      break;  // Unsupported in the oracle.
  }
  std::erase_if(out, [&](const EventInstancePtr& e) {
    return !passes_within(e);
  });
  return out;
}

// Spans as comparable fingerprints (sorted).
struct Span {
  TimePoint t_begin;
  TimePoint t_end;
  friend bool operator==(const Span&, const Span&) = default;
  friend auto operator<=>(const Span&, const Span&) = default;
};

inline std::vector<Span> Spans(const std::vector<EventInstancePtr>& xs) {
  std::vector<Span> out;
  out.reserve(xs.size());
  for (const EventInstancePtr& e : xs) {
    out.push_back(Span{e->t_begin(), e->t_end()});
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Re-checks every temporal constraint and variable join of `expr` against
// a detected instance tree.
inline bool ValidateInstance(const EventExpr& expr,
                             const EventInstance& instance) {
  if (expr.has_within() && instance.interval() > expr.within()) return false;
  switch (expr.op()) {
    case ExprOp::kPrimitive:
      return instance.is_primitive();
    case ExprOp::kOr:
      for (const events::EventExprPtr& child : expr.children()) {
        if (ValidateInstance(*child, instance)) return true;
      }
      return false;
    case ExprOp::kAnd: {
      if (instance.children().size() != 2) return false;
      const EventInstance& a = *instance.children()[0];
      const EventInstance& b = *instance.children()[1];
      if (!OracleUnifies(a.bindings(), b.bindings())) return false;
      return (ValidateInstance(*expr.children()[0], a) &&
              ValidateInstance(*expr.children()[1], b)) ||
             (ValidateInstance(*expr.children()[0], b) &&
              ValidateInstance(*expr.children()[1], a));
    }
    case ExprOp::kSeq: {
      if (instance.children().size() != 2) return false;
      const EventInstance& first = *instance.children()[0];
      const EventInstance& second = *instance.children()[1];
      // A synthetic non-occurrence child (NOT side) has no children and
      // no observation; skip structural checks for it.
      bool first_synth = !first.is_primitive() && first.children().empty();
      bool second_synth = !second.is_primitive() && second.children().empty();
      if (!first_synth && !second_synth) {
        if (first.t_end() >= second.t_begin()) return false;
        Duration d = events::Dist(first, second);
        if (d < expr.dist_lo() || d > expr.dist_hi()) return false;
      }
      bool first_ok = first_synth ||
                      ValidateInstance(*expr.children()[0], first);
      bool second_ok = second_synth ||
                       ValidateInstance(*expr.children()[1], second);
      return first_ok && second_ok;
    }
    case ExprOp::kSeqPlus: {
      if (instance.children().empty()) return false;
      for (size_t i = 0; i < instance.children().size(); ++i) {
        if (!ValidateInstance(*expr.children()[0], *instance.children()[i])) {
          return false;
        }
        if (i > 0) {
          Duration d = events::Dist(*instance.children()[i - 1],
                                    *instance.children()[i]);
          if (d < expr.dist_lo() || d > expr.dist_hi()) return false;
        }
      }
      return true;
    }
    case ExprOp::kNot:
      return true;  // Checked behaviorally elsewhere.
  }
  return false;
}

}  // namespace rfidcep::engine::testing

#endif  // RFIDCEP_TESTS_PROPERTY_REFERENCE_ORACLE_H_
