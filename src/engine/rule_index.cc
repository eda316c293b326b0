#include "engine/rule_index.h"

#include <algorithm>
#include <string>
#include <utility>

namespace rfidcep::engine {

PrimitiveIndex::PrimitiveIndex(const EventGraph& graph) {
  StringViewMap<std::vector<int>> keyed;
  std::vector<int> unkeyed_ids;
  for (int id : graph.primitive_nodes()) {
    const events::PrimitiveEventType& type = graph.node(id).primitive;
    if (type.reader().is_literal) {
      keyed[type.reader().text].push_back(id);
    } else if (type.group_constraint().has_value()) {
      keyed[*type.group_constraint()].push_back(id);
    } else {
      unkeyed_ids.push_back(id);
    }
  }
  for (auto& [key, ids] : keyed) {
    AddBucket(&by_reader_[key], graph, std::move(ids));
  }
  AddBucket(&unkeyed_, graph, std::move(unkeyed_ids));
  fullscan_fallback_ =
      by_reader_.empty() && unkeyed_.by_type.empty() && !unkeyed_.untyped.empty();
}

void PrimitiveIndex::AddBucket(Bucket* bucket, const EventGraph& graph,
                               std::vector<int> node_ids) {
  // Canonical-key order, not interning order: interning order depends on
  // which rules share a leaf and in what order they were added, while
  // canonical order is the same in every compilation, so leaves of one
  // observation emit in an order the rule set alone fixes. Leaf canonical
  // keys are unique by hash-consing, so this is a total order; ranks let
  // typed/untyped sub-lists merge back into exactly this order.
  std::sort(node_ids.begin(), node_ids.end(), [&](int a, int b) {
    return graph.node(a).canonical_key < graph.node(b).canonical_key;
  });
  for (size_t rank = 0; rank < node_ids.size(); ++rank) {
    const events::PrimitiveEventType& type =
        graph.node(node_ids[rank]).primitive;
    DispatchEntry entry;
    entry.node_id = node_ids[rank];
    entry.rank = static_cast<int>(rank);
    // The probe implies the reader-literal predicate (the bucket is
    // reached via obs.reader or group(obs.reader) equal to the key) and
    // the type predicate (sub-bucket selection). A group constraint stays
    // residual: its bucket can be reached via a reader literally named
    // like the group without belonging to it.
    if (type.group_constraint().has_value()) {
      entry.check_group = true;
      entry.group = *type.group_constraint();
    }
    if (type.object().is_literal) {
      entry.check_object = true;
      entry.object_literal = type.object().text;
    }
    if (type.type_constraint().has_value()) {
      bucket->by_type[*type.type_constraint()].push_back(entry);
      continue;
    }
    bucket->untyped.push_back(entry);
  }
}

}  // namespace rfidcep::engine
