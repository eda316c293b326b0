// Reference semantics interpreter — the executable oracle for the
// detection engine (see docs/semantics.md).
//
// This is a deliberately naive implementation of the paper's §2 event
// model: every constructor is evaluated directly from its definition over
// plain, never-pruned vectors. Where the production Detector maintains
// flat join-keyed slot buffers with deadline GC, interned join keys, a NOT
// log with retention pruning, and a pseudo-event priority queue, the
// reference interpreter keeps
//
//   * full unconsumed-instance lists per binary slot (consumption is a
//     flag, never an erase),
//   * the complete occurrence log of every negated subevent (window
//     queries are literal linear scans over the whole history),
//   * chronicle selection by explicit sort over every admissible
//     candidate (paper §4.2: oldest initiator, oldest terminator),
//   * deferred completions (non-spontaneous NOT / SEQ+ expiries, §4.5) in
//     a flat list scanned for the minimum on every firing.
//
// O(n²) per constructor is the point: none of the detector's indexing,
// expiry bookkeeping, or anchor-consumption shortcuts exist here, so any
// boundary off-by-one in those optimizations shows up as a divergence in
// the differential fuzz harness (tests/property/differential_fuzz_test.cc).
//
// The interpreter shares the engine's committed boundary conventions
// (closed [τl, τu] distance bounds, closed WITHIN, pseudo events fire only
// once the stream strictly passes their execution time — docs/semantics.md
// has the full table). Feed it a rule's own event expression: the fuzz
// oracle never takes its input from the graph under test, so node sharing
// in the compiler cannot leak into the expected matches.

#ifndef RFIDCEP_ENGINE_REFERENCE_REFERENCE_INTERPRETER_H_
#define RFIDCEP_ENGINE_REFERENCE_REFERENCE_INTERPRETER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "engine/context.h"
#include "events/event_instance.h"
#include "events/event_type.h"
#include "events/expr.h"
#include "events/observation.h"

namespace rfidcep::engine::reference {

struct ReferenceOptions {
  // Only kChronicle and kUnrestricted are implemented (the paper default
  // and the exhaustive baseline); Run() fails with kUnimplemented on the
  // others, in every build type.
  ParameterContext context = ParameterContext::kChronicle;
  // Mirrors DetectorOptions: observations older than the stream clock are
  // silently dropped when set; Run() fails on them with kInvalidArgument
  // otherwise.
  bool tolerate_out_of_order = false;
};

class ReferenceInterpreter {
 public:
  // `root` is one rule's event expression (interval constraints are
  // propagated here, which is idempotent, so EventGraph::RuleExpr output
  // works too). `env` must outlive the interpreter.
  ReferenceInterpreter(const events::EventExprPtr& root,
                       const events::Environment* env,
                       ReferenceOptions options = {});
  ~ReferenceInterpreter();

  ReferenceInterpreter(const ReferenceInterpreter&) = delete;
  ReferenceInterpreter& operator=(const ReferenceInterpreter&) = delete;

  // Evaluates the whole stream (end-of-stream flush included) and returns
  // every completion of the root expression in emission order, or an
  // error on what ReferenceOptions rules out. Resets all runtime state
  // first, so Run may be called repeatedly.
  Result<std::vector<events::EventInstancePtr>> Run(
      const std::vector<events::Observation>& stream);

 private:
  struct Node;

  Node* Build(const events::EventExpr& expr);
  void ResetState();
  void DispatchLeaves(const events::Observation& obs);
  void Deliver(Node* node, events::EventInstancePtr inst);
  void Arrival(Node* parent, const Node* child,
               const events::EventInstancePtr& inst);
  void AndArrival(Node* node, int slot, const events::EventInstancePtr& e);
  void SeqInitiatorArrival(Node* node, const events::EventInstancePtr& e1);
  void SeqTerminatorArrival(Node* node, const events::EventInstancePtr& e2);
  void SeqPlusArrival(Node* node, const events::EventInstancePtr& e);
  void MaterializeRun(Node* node, bool force, bool include_now);
  void CloseRun(Node* node);
  bool PairNaive(Node* node, int incoming_slot,
                 const events::EventInstancePtr& incoming);
  void ProducePair(Node* node, const events::EventInstancePtr& initiator,
                   const events::EventInstancePtr& terminator);
  bool HasOccurrence(const Node* not_node, const events::Bindings& probe,
                     TimePoint from, TimePoint to, bool include_from,
                     bool include_to) const;

  struct Check {
    TimePoint at = 0;
    uint64_t order = 0;  // FIFO tie-break at equal times.
    Node* node = nullptr;
    // Anchored NOT completions carry their anchor; null for SEQ+ expiry.
    events::EventInstancePtr anchor;
  };
  void ScheduleCheck(TimePoint at, Node* node,
                     events::EventInstancePtr anchor);
  void FireChecksBefore(TimePoint t);
  void FlushChecks();
  void FireCheck(Check check);

  uint64_t NextSeq() { return ++sequence_counter_; }

  const events::Environment* env_;
  ReferenceOptions options_;
  std::vector<std::unique_ptr<Node>> nodes_;  // Creation (post-)order.
  std::unordered_map<std::string, Node*> interned_;  // By canonical key.
  Node* root_ = nullptr;
  std::vector<Node*> leaves_;  // Creation order, mirrors graph dispatch.

  std::vector<Check> pending_;  // Unordered; firing scans for the minimum.
  std::vector<events::EventInstancePtr> results_;
  TimePoint clock_ = 0;
  uint64_t sequence_counter_ = 0;
  uint64_t check_counter_ = 0;
};

}  // namespace rfidcep::engine::reference

#endif  // RFIDCEP_ENGINE_REFERENCE_REFERENCE_INTERPRETER_H_
