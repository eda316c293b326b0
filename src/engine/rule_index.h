// Compiled primitive dispatch: a vocabulary-inverted index from
// (reader literal / reader group, pushed type(o) constraint) to the
// candidate leaf nodes, so per-event dispatch cost tracks the rules an
// observation can actually affect.
//
// Key choice: a leaf is bucketed under its reader literal if it has one,
// else under its group constraint, else it is unkeyed. An observation probes
// bucket[obs.reader], then bucket[group(obs.reader)] (if different), then
// the unkeyed bucket, and entries carry canonical ranks so a probe
// visits candidates in canonical-key order.
//
// Predicate pushdown: leaves carrying a type(o)='T' constraint are
// further keyed by T inside their bucket. type(obs.object) is resolved
// once per observation (allocation-free Environment::TypeViewOf) and
// selects the sub-bucket, instead of each subscribed leaf re-resolving
// it inside Matches(). The probe itself then implies the reader-literal
// and type predicates; what remains per candidate are cheap residual
// view comparisons (object literal, group constraint reached through
// the raw-reader probe).

#ifndef RFIDCEP_ENGINE_RULE_INDEX_H_
#define RFIDCEP_ENGINE_RULE_INDEX_H_

#include <string_view>
#include <vector>

#include "common/strings.h"
#include "engine/graph.h"

namespace rfidcep::engine {

// One candidate leaf inside a dispatch bucket.
struct DispatchEntry {
  int node_id = -1;
  // Position of this leaf in the full canonical-key ordering of its
  // bucket (typed and untyped entries together), so a probe can merge
  // the two lists back into canonical emission order.
  int rank = 0;
  // Residual predicates the probe does not imply. Views alias the
  // graph's PrimitiveEventType storage (the graph outlives the index).
  bool check_group = false;       // group(obs.reader) == `group`.
  std::string_view group;
  bool check_object = false;      // obs.object == `object_literal`.
  std::string_view object_literal;
};

class PrimitiveIndex {
 public:
  struct Bucket {
    // type constraint value -> candidates.
    StringViewMap<std::vector<DispatchEntry>> by_type;
    // Candidates with no pushed type predicate, in rank order.
    std::vector<DispatchEntry> untyped;
  };

  // Builds the index over `graph`'s leaves; type constraints key
  // sub-buckets.
  explicit PrimitiveIndex(const EventGraph& graph);

  // No leaf constrains the reader, its group, or its type:
  // every observation visits every leaf, i.e. dispatch degenerates to a
  // full scan. Surfaced so the detector can count it instead of
  // silently degrading.
  bool fullscan_fallback() const { return fullscan_fallback_; }

  // Whether any bucket has typed sub-buckets (the probe only resolves
  // type(obs.object) when it does).
  bool has_typed_entries() const { return has_typed_entries_; }

  // The bucket for a reader literal / group key, or nullptr.
  const Bucket* FindReaderBucket(std::string_view key) const {
    auto it = by_reader_.find(key);
    return it != by_reader_.end() ? &it->second : nullptr;
  }

  // Leaves with neither a reader literal nor a group constraint.
  const Bucket& unkeyed() const { return unkeyed_; }

  // Visits `bucket`'s candidates for an observation whose resolved
  // type(o) is `type_view`, in canonical (rank) order.
  template <typename Fn>
  static void Probe(const Bucket& bucket, std::string_view type_view,
                    Fn&& fn) {
    const std::vector<DispatchEntry>* typed = nullptr;
    if (!bucket.by_type.empty()) {
      if (auto it = bucket.by_type.find(type_view);
          it != bucket.by_type.end()) {
        typed = &it->second;
      }
    }
    if (typed == nullptr) {
      for (const DispatchEntry& entry : bucket.untyped) fn(entry);
      return;
    }
    size_t i = 0, j = 0;
    while (i < typed->size() && j < bucket.untyped.size()) {
      if ((*typed)[i].rank < bucket.untyped[j].rank) {
        fn((*typed)[i++]);
      } else {
        fn(bucket.untyped[j++]);
      }
    }
    while (i < typed->size()) fn((*typed)[i++]);
    while (j < bucket.untyped.size()) fn(bucket.untyped[j++]);
  }

 private:
  void AddBucket(Bucket* bucket, const EventGraph& graph,
                 std::vector<int> node_ids);

  StringViewMap<Bucket> by_reader_;
  Bucket unkeyed_;
  bool fullscan_fallback_ = false;
  bool has_typed_entries_ = false;
};

}  // namespace rfidcep::engine

#endif  // RFIDCEP_ENGINE_RULE_INDEX_H_
