#include "engine/snapshot.h"

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/byte_codec.h"
#include "events/symbol.h"
#include "store/param_codec.h"

namespace rfidcep::engine::snapshot {

using events::BindingValue;
using events::Bindings;
using events::EventInstance;
using events::EventInstancePtr;

namespace {

using common::ByteReader;
using common::ByteWriter;

// Minimum encoded size of each counted element: ByteReader::Count holds a
// decoded count to it, so a forged count cannot size a container past
// what the remaining bytes could encode.
constexpr size_t kMinBindingValue = 1 + 4;           // Tag + empty text.
constexpr size_t kMinScalar = 4 + kMinBindingValue;  // Name + value.
constexpr size_t kMinMulti = 4 + 4;                  // Name + count.
constexpr size_t kMinIndex = 4;  // Child, NOT-log entry, run element.
// Kind, observation or span, sequence number, three counts.
constexpr size_t kMinInstance = 1 + 16 + 8 + 3 * 4;
constexpr size_t kMinSlotEntry = 4 + 8;
constexpr size_t kMinRun = 4 + 8 + 8;
// Key, retention, produced, four counts.
constexpr size_t kMinNode = 4 + 8 + 8 + 4 * 4;
constexpr size_t kMinPseudo = 8 + 8 + 4 + 4 + 1 + 1 + 4;
// Id, clock, two counters, stats, three counts.
constexpr size_t kMinSource = 4 + 8 + 8 + 8 + 7 * 8 + 3 * 4;
constexpr size_t kMinNamedCount = 4 + 8;  // Fired and counter entries.
constexpr size_t kMinPendingAction = 4 + 8 + 8 + 4;

// --- Value helpers ----------------------------------------------------------

void PutValue(ByteWriter& w, const BindingValue& v) {
  if (const events::SharedText* text = std::get_if<events::SharedText>(&v)) {
    w.U8(0);
    w.Str32(text->view());
  } else {
    w.U8(1);
    w.I64(std::get<TimePoint>(v));
  }
}

BindingValue GetValue(ByteReader& r) {
  switch (r.U8()) {
    case 0:
      return events::SharedText(r.Str32());
    case 1:
      return r.I64();
  }
  r.Fail("unknown binding value tag");
  return TimePoint{0};
}

void PutDetectorStats(ByteWriter& w, const DetectorStats& s) {
  w.U64(s.observations);
  w.U64(s.out_of_order_dropped);
  w.U64(s.primitive_matches);
  w.U64(s.instances_produced);
  w.U64(s.pseudo_scheduled);
  w.U64(s.pseudo_fired);
  w.U64(s.rule_matches);
}

void GetDetectorStats(ByteReader& r, DetectorStats* s) {
  s->observations = r.U64();
  s->out_of_order_dropped = r.U64();
  s->primitive_matches = r.U64();
  s->instances_produced = r.U64();
  s->pseudo_scheduled = r.U64();
  s->pseudo_fired = r.U64();
  s->rule_matches = r.U64();
}

void PutInstance(ByteWriter& w, const InstanceRecord& rec) {
  w.U8(rec.is_primitive ? 1 : 0);
  if (rec.is_primitive) {
    w.Str32(rec.observation.reader);
    w.Str32(rec.observation.object);
    w.I64(rec.observation.timestamp);
  } else {
    w.I64(rec.t_begin);
    w.I64(rec.t_end);
  }
  w.U64(rec.sequence_number);
  w.U32(static_cast<uint32_t>(rec.scalars.size()));
  for (const auto& [name, value] : rec.scalars) {
    w.Str32(name);
    PutValue(w, value);
  }
  w.U32(static_cast<uint32_t>(rec.multis.size()));
  for (const auto& [name, values] : rec.multis) {
    w.Str32(name);
    w.U32(static_cast<uint32_t>(values.size()));
    for (const BindingValue& value : values) PutValue(w, value);
  }
  w.U32(static_cast<uint32_t>(rec.children.size()));
  for (uint32_t child : rec.children) w.U32(child);
}

void GetInstance(ByteReader& r, uint32_t self_index, InstanceRecord* rec) {
  rec->is_primitive = r.U8() != 0;
  if (rec->is_primitive) {
    rec->observation.reader = r.Str32();
    rec->observation.object = r.Str32();
    rec->observation.timestamp = r.I64();
  } else {
    rec->t_begin = r.I64();
    rec->t_end = r.I64();
  }
  rec->sequence_number = r.U64();
  rec->scalars.resize(r.Count(kMinScalar));
  for (auto& [name, value] : rec->scalars) {
    name = r.Str32();
    value = GetValue(r);
  }
  rec->multis.resize(r.Count(kMinMulti));
  for (auto& [name, values] : rec->multis) {
    name = r.Str32();
    values.resize(r.Count(kMinBindingValue));
    for (BindingValue& value : values) value = GetValue(r);
  }
  rec->children.resize(r.Count(kMinIndex));
  for (uint32_t& child : rec->children) {
    child = r.U32();
    if (child >= self_index) r.Fail("instance child index out of order");
  }
}

void PutNodeState(ByteWriter& w, const NodeStateRecord& rec) {
  w.Str32(rec.state_key);
  w.I64(rec.retention);
  w.U64(rec.produced);
  for (const std::vector<SlotEntryRecord>& slot : rec.slots) {
    w.U32(static_cast<uint32_t>(slot.size()));
    for (const SlotEntryRecord& entry : slot) {
      w.U32(entry.instance);
      w.I64(entry.deadline);
    }
  }
  w.U32(static_cast<uint32_t>(rec.not_log.size()));
  for (uint32_t instance : rec.not_log) w.U32(instance);
  w.U32(static_cast<uint32_t>(rec.runs.size()));
  for (const RunRecord& run : rec.runs) {
    w.U32(static_cast<uint32_t>(run.elements.size()));
    for (uint32_t element : run.elements) w.U32(element);
    w.I64(run.t_begin);
    w.I64(run.t_end);
  }
}

void GetNodeState(ByteReader& r, uint32_t num_instances, NodeStateRecord* rec) {
  const auto instance = [&r, num_instances] {
    const uint32_t index = r.U32();
    if (index >= num_instances) {
      r.Fail("node state references unknown instance");
    }
    return index;
  };
  rec->state_key = r.Str32();
  rec->retention = r.I64();
  rec->produced = r.U64();
  for (std::vector<SlotEntryRecord>& slot : rec->slots) {
    slot.resize(r.Count(kMinSlotEntry));
    for (SlotEntryRecord& entry : slot) {
      entry.instance = instance();
      entry.deadline = r.I64();
    }
  }
  rec->not_log.resize(r.Count(kMinIndex));
  for (uint32_t& index : rec->not_log) index = instance();
  rec->runs.resize(r.Count(kMinRun));
  for (RunRecord& run : rec->runs) {
    run.elements.resize(r.Count(kMinIndex));
    for (uint32_t& element : run.elements) element = instance();
    run.t_begin = r.I64();
    run.t_end = r.I64();
  }
}

void PutPseudo(ByteWriter& w, const PseudoRecord& rec) {
  w.I64(rec.execute_at);
  w.I64(rec.created_at);
  w.Str32(rec.target_key);
  w.Str32(rec.parent_key);
  w.U8(static_cast<uint8_t>(rec.anchor_kind));
  w.U8(rec.anchor_slot);
  w.U32(rec.anchor_pos);
}

void GetPseudo(ByteReader& r, PseudoRecord* rec) {
  rec->execute_at = r.I64();
  rec->created_at = r.I64();
  rec->target_key = r.Str32();
  rec->parent_key = r.Str32();
  const uint8_t kind = r.U8();
  if (kind > static_cast<uint8_t>(AnchorKind::kStale)) {
    r.Fail("unknown pseudo anchor kind");
  }
  rec->anchor_kind = static_cast<AnchorKind>(kind);
  rec->anchor_slot = r.U8();
  if (rec->anchor_slot > 1) r.Fail("pseudo anchor slot out of range");
  rec->anchor_pos = r.U32();
}

void PutSource(ByteWriter& w, const DetectorSnapshot& src) {
  w.U32(static_cast<uint32_t>(src.source_id));
  w.I64(src.clock);
  w.U64(src.sequence_counter);
  w.U64(src.pseudo_counter);
  PutDetectorStats(w, src.stats);
  w.U32(static_cast<uint32_t>(src.instances.size()));
  for (const InstanceRecord& rec : src.instances) PutInstance(w, rec);
  w.U32(static_cast<uint32_t>(src.nodes.size()));
  for (const NodeStateRecord& rec : src.nodes) PutNodeState(w, rec);
  w.U32(static_cast<uint32_t>(src.pseudos.size()));
  for (const PseudoRecord& rec : src.pseudos) PutPseudo(w, rec);
}

void GetSource(ByteReader& r, DetectorSnapshot* src) {
  src->source_id = static_cast<int>(r.U32());
  src->clock = r.I64();
  src->sequence_counter = r.U64();
  src->pseudo_counter = r.U64();
  GetDetectorStats(r, &src->stats);
  src->instances.resize(r.Count(kMinInstance));
  const auto num_instances = static_cast<uint32_t>(src->instances.size());
  for (uint32_t i = 0; i < num_instances; ++i) {
    GetInstance(r, i, &src->instances[i]);
  }
  src->nodes.resize(r.Count(kMinNode));
  for (NodeStateRecord& rec : src->nodes) {
    GetNodeState(r, num_instances, &rec);
  }
  src->pseudos.resize(r.Count(kMinPseudo));
  for (PseudoRecord& rec : src->pseudos) GetPseudo(r, &rec);
}

// --- Fingerprint ------------------------------------------------------------

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvBytes(uint64_t h, std::string_view s) {
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvU64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<uint8_t>(v >> (8 * i));
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

uint64_t ComputeFingerprint(ParameterContext context,
                            const std::vector<rules::Rule>& rules) {
  uint64_t h = kFnvOffset;
  h = FnvU64(h, static_cast<uint64_t>(context));
  h = FnvU64(h, rules.size());
  for (const rules::Rule& rule : rules) {
    h = FnvBytes(h, rule.id);
    h = FnvBytes(h, PropagateIntervalConstraints(rule.event)->CanonicalKey());
  }
  return h;
}

std::string EncodeEngineSnapshot(const EngineSnapshot& snap) {
  std::string out;
  ByteWriter w(&out);
  w.Bytes(kSnapshotMagic);
  w.U32(snap.version);
  w.U64(snap.fingerprint);
  w.U8(snap.context);
  w.U8(snap.flushed ? 1 : 0);
  w.I64(snap.clock);
  w.U64(snap.trace_obs_seq);
  PutDetectorStats(w, snap.stats.detector);
  w.U64(snap.stats.rules_fired);
  w.U64(snap.stats.condition_rejects);
  w.U64(snap.stats.condition_errors);
  w.U64(snap.stats.action_errors);
  w.U64(snap.stats.sql_actions_executed);
  w.U64(snap.stats.procedures_invoked);
  w.U64(snap.stats.unknown_procedures);
  w.U32(static_cast<uint32_t>(snap.fired.size()));
  for (const auto& [rule_id, count] : snap.fired) {
    w.Str32(rule_id);
    w.U64(count);
  }
  w.U32(static_cast<uint32_t>(snap.counters.size()));
  for (const auto& [name, value] : snap.counters) {
    w.Str32(name);
    w.U64(value);
  }
  w.U32(static_cast<uint32_t>(snap.source_shards));
  w.U32(static_cast<uint32_t>(snap.sources.size()));
  for (const DetectorSnapshot& src : snap.sources) PutSource(w, src);
  if (snap.version >= 2) {
    // Durable action section. Version-1 encodes (for the golden
    // backward-compat fixtures) stop at the sources.
    w.U64(snap.durable_lsn);
    w.U32(static_cast<uint32_t>(snap.pending_actions.size()));
    for (const EngineSnapshot::PendingActionRecord& p : snap.pending_actions) {
      w.Str32(p.rule_id);
      w.U64(p.seq);
      w.I64(p.fire_time);
      store::PutParams(w, p.params);
    }
  }
  return out;
}

Status DecodeEngineSnapshot(std::string_view bytes, EngineSnapshot* out) {
  ByteReader r(bytes);
  const std::string_view magic = r.Bytes(kSnapshotMagic.size());
  if (r.ok() && magic != kSnapshotMagic) {
    return Status::FailedPrecondition("snapshot: bad magic (not a snapshot)");
  }
  out->version = r.U32();
  if (r.ok() && (out->version < kMinSnapshotVersion ||
                 out->version > kSnapshotVersion)) {
    return Status::FailedPrecondition(
        "snapshot: unsupported format version " +
        std::to_string(out->version) + " (this build reads versions " +
        std::to_string(kMinSnapshotVersion) + "-" +
        std::to_string(kSnapshotVersion) + ")");
  }
  out->fingerprint = r.U64();
  out->context = r.U8();
  out->flushed = r.U8() != 0;
  out->clock = r.I64();
  out->trace_obs_seq = r.U64();
  GetDetectorStats(r, &out->stats.detector);
  out->stats.rules_fired = r.U64();
  out->stats.condition_rejects = r.U64();
  out->stats.condition_errors = r.U64();
  out->stats.action_errors = r.U64();
  out->stats.sql_actions_executed = r.U64();
  out->stats.procedures_invoked = r.U64();
  out->stats.unknown_procedures = r.U64();
  out->fired.resize(r.Count(kMinNamedCount));
  for (auto& [rule_id, count] : out->fired) {
    rule_id = r.Str32();
    count = r.U64();
  }
  out->counters.resize(r.Count(kMinNamedCount));
  for (auto& [name, value] : out->counters) {
    name = r.Str32();
    value = r.U64();
  }
  out->source_shards = static_cast<int>(r.U32());
  out->sources.resize(r.Count(kMinSource));
  for (DetectorSnapshot& src : out->sources) GetSource(r, &src);
  if (out->version >= 2) {
    out->durable_lsn = r.U64();
    out->pending_actions.resize(r.Count(kMinPendingAction));
    for (EngineSnapshot::PendingActionRecord& p : out->pending_actions) {
      p.rule_id = r.Str32();
      p.seq = r.U64();
      p.fire_time = r.I64();
      store::GetParams(r, &p.params);
    }
  }
  if (!r.AtEnd()) r.Fail("trailing bytes after payload");
  if (!r.ok()) {
    return Status::InvalidArgument(std::string("snapshot: ") + r.error());
  }
  return Status::Ok();
}

// --- Restore planning -------------------------------------------------------

namespace {

// The text of a primitive record's observation as a handle, shared with
// an equal bound value when the record has one, as detection shares it.
events::SharedText ObservationText(const InstanceRecord& rec,
                                   const std::string& text) {
  for (const auto& [name, value] : rec.scalars) {
    const auto* bound = std::get_if<events::SharedText>(&value);
    if (bound != nullptr && bound->view() == text) return *bound;
  }
  return events::SharedText(text);
}

// Rebuilds one source's instance table as live objects. Each call makes
// fresh instances, so plans for different target detectors never share.
Result<std::vector<EventInstancePtr>> DecodeInstances(
    const DetectorSnapshot& src) {
  std::vector<EventInstancePtr> out;
  out.reserve(src.instances.size());
  for (const InstanceRecord& rec : src.instances) {
    Bindings bindings;
    for (const auto& [name, value] : rec.scalars) {
      bindings.BindScalar(events::InternSymbol(name), value);
    }
    for (const auto& [name, values] : rec.multis) {
      events::SymbolId sym = events::InternSymbol(name);
      for (const BindingValue& value : values) {
        bindings.BindMulti(sym, value);
      }
    }
    if (rec.is_primitive) {
      out.push_back(EventInstance::MakePrimitive(
          ObservationText(rec, rec.observation.reader),
          ObservationText(rec, rec.observation.object),
          rec.observation.timestamp, std::move(bindings),
          rec.sequence_number));
    } else {
      std::vector<EventInstancePtr> children;
      children.reserve(rec.children.size());
      for (uint32_t child : rec.children) {
        children.push_back(out[child]);  // Bounds-checked at decode.
      }
      out.push_back(EventInstance::MakeComplex(rec.t_begin, rec.t_end,
                                               std::move(bindings),
                                               std::move(children),
                                               rec.sequence_number));
    }
  }
  return out;
}

// Identity of a pending pseudo event for the cross-source merge. Sources
// hosting the same node pend identical pseudo subsequences (capture
// happens after advancing every source to one clock), so equal tuples on
// different sources are the same logical pseudo; `occurrence`
// disambiguates exact repeats within one source.
using PseudoIdentity =
    std::tuple<int64_t, int64_t, std::string_view, std::string_view, uint8_t,
               uint8_t, uint32_t, uint32_t>;

PseudoIdentity IdentityOf(const PseudoRecord& rec, uint32_t occurrence) {
  return {rec.execute_at,
          rec.created_at,
          rec.target_key,
          rec.parent_key,
          static_cast<uint8_t>(rec.anchor_kind),
          rec.anchor_slot,
          rec.anchor_pos,
          occurrence};
}

}  // namespace

Result<RestorePlan> BuildRestorePlan(
    const EngineSnapshot& snap, const std::vector<std::string>& target_keys,
    const std::vector<std::string>& target_aliases) {
  if (snap.sources.empty()) {
    return Status::InvalidArgument("snapshot: no detector sources");
  }
  RestorePlan plan;
  plan.clock = snap.clock;
  for (const DetectorSnapshot& src : snap.sources) {
    if (src.clock != snap.clock) {
      return Status::Internal(
          "snapshot: source clock disagrees with the engine clock");
    }
    plan.sequence_counter =
        std::max(plan.sequence_counter, src.sequence_counter);
  }

  std::unordered_map<std::string_view, int> target_by_key;
  target_by_key.reserve(target_keys.size());
  for (size_t i = 0; i < target_keys.size(); ++i) {
    target_by_key.emplace(target_keys[i], static_cast<int>(i));
  }

  // --- Pre-sharing aliases ------------------------------------------------
  // Snapshots written before SEQ+ prefix sharing hold a share-eligible
  // SEQ+ node as one positional "…|<K>" private copy per rule; this
  // build's graph has the single "shared|<K>" node in their place. All
  // copies have identical trajectories (only instance sequence numbers
  // differ), so a target key with no exact source match but a non-empty
  // alias <K> restores from a representative: the lexicographically
  // smallest source key ending in "|<K>" that matches no target exactly.
  // The representative then maps to that target like an exact key, and
  // the other copies' state and pseudos are dropped. Exact matches are
  // never overridden, so same-layout restores stay byte-identical.
  if (!target_aliases.empty()) {
    std::unordered_set<std::string_view> source_keys;
    for (const DetectorSnapshot& src : snap.sources) {
      for (const NodeStateRecord& rec : src.nodes) {
        source_keys.insert(rec.state_key);
      }
      for (const PseudoRecord& rec : src.pseudos) {
        source_keys.insert(rec.target_key);
        source_keys.insert(rec.parent_key);
      }
    }
    auto suffix_matches = [](std::string_view key, std::string_view alias) {
      return key.size() > alias.size() + 1 &&
             key[key.size() - alias.size() - 1] == '|' &&
             key.substr(key.size() - alias.size()) == alias;
    };
    std::vector<std::pair<std::string_view, int>> reps;
    for (size_t i = 0; i < target_keys.size(); ++i) {
      if (target_aliases[i].empty()) continue;
      if (source_keys.count(target_keys[i]) > 0) continue;  // Exact wins.
      std::string_view rep;
      for (std::string_view key : source_keys) {
        if (target_by_key.count(key) > 0) continue;
        if (!suffix_matches(key, target_aliases[i])) continue;
        if (rep.empty() || key < rep) rep = key;
      }
      if (!rep.empty()) reps.emplace_back(rep, static_cast<int>(i));
    }
    target_by_key.insert(reps.begin(), reps.end());
  }

  // Pick a source per target node: max retention, then lowest source id
  // (retention is the one parent-dependent dimension of node state; every
  // other field is identical wherever the node is hosted).
  struct Chosen {
    size_t source;
    const NodeStateRecord* record;
  };
  std::unordered_map<std::string_view, Chosen> chosen;
  for (size_t s = 0; s < snap.sources.size(); ++s) {
    for (const NodeStateRecord& rec : snap.sources[s].nodes) {
      if (target_by_key.find(rec.state_key) == target_by_key.end()) continue;
      auto [it, inserted] = chosen.emplace(rec.state_key, Chosen{s, &rec});
      if (!inserted && rec.retention > it->second.record->retention) {
        it->second = Chosen{s, &rec};
      }
    }
  }

  // Materialize node states; remember each restored node's position for
  // pseudo anchor resolution.
  std::vector<std::vector<EventInstancePtr>> instances(snap.sources.size());
  std::unordered_map<std::string_view, size_t> plan_node_by_key;
  auto materialize = [](const NodeStateRecord& rec,
                        const std::vector<EventInstancePtr>& table,
                        int node_id) {
    RestoredNode node;
    node.node_id = node_id;
    node.produced = rec.produced;
    for (int slot = 0; slot < 2; ++slot) {
      node.slots[slot].reserve(rec.slots[slot].size());
      for (const SlotEntryRecord& entry : rec.slots[slot]) {
        node.slots[slot].emplace_back(table[entry.instance], entry.deadline);
      }
    }
    node.not_log.reserve(rec.not_log.size());
    for (uint32_t instance : rec.not_log) {
      node.not_log.push_back(table[instance]);
    }
    node.runs.reserve(rec.runs.size());
    for (const RunRecord& run : rec.runs) {
      RestoredRun restored;
      restored.t_begin = run.t_begin;
      restored.t_end = run.t_end;
      restored.elements.reserve(run.elements.size());
      for (uint32_t element : run.elements) {
        restored.elements.push_back(table[element]);
      }
      node.runs.push_back(std::move(restored));
    }
    return node;
  };
  for (const auto& [key, pick] : chosen) {
    if (instances[pick.source].empty() &&
        !snap.sources[pick.source].instances.empty()) {
      RFIDCEP_ASSIGN_OR_RETURN(instances[pick.source],
                               DecodeInstances(snap.sources[pick.source]));
    }
    plan_node_by_key.emplace(key, plan.nodes.size());
    plan.nodes.push_back(materialize(*pick.record, instances[pick.source],
                                     target_by_key.at(key)));
  }

  // Merge the per-source pseudo queues: emit an identity only once it is
  // at the front of EVERY source still containing it (each source's
  // sequence is a restriction of the serial firing order, so a ready
  // identity always exists), smallest identity first among the ready
  // fronts. This preserves every source's relative order — and therefore
  // every rule's — while collapsing cross-source duplicates.
  size_t num_sources = snap.sources.size();
  std::vector<std::vector<PseudoIdentity>> keys(num_sources);
  std::map<PseudoIdentity, std::vector<std::pair<size_t, size_t>>> positions;
  for (size_t s = 0; s < num_sources; ++s) {
    const std::vector<PseudoRecord>& queue = snap.sources[s].pseudos;
    std::map<PseudoIdentity, uint32_t> occurrences;
    keys[s].reserve(queue.size());
    for (size_t p = 0; p < queue.size(); ++p) {
      PseudoIdentity base = IdentityOf(queue[p], 0);
      uint32_t occurrence = occurrences[base]++;
      PseudoIdentity id = IdentityOf(queue[p], occurrence);
      positions[id].emplace_back(s, keys[s].size());
      keys[s].push_back(id);
    }
  }
  std::vector<size_t> cursor(num_sources, 0);
  uint64_t order = 0;
  auto remaining = [&] {
    for (size_t s = 0; s < num_sources; ++s) {
      if (cursor[s] < keys[s].size()) return true;
    }
    return false;
  };
  while (remaining()) {
    std::optional<PseudoIdentity> best;
    size_t best_source = 0;
    for (size_t s = 0; s < num_sources; ++s) {
      if (cursor[s] >= keys[s].size()) continue;
      const PseudoIdentity& front = keys[s][cursor[s]];
      bool ready = true;
      for (const auto& [other, pos] : positions.at(front)) {
        if (cursor[other] != pos) {
          ready = false;
          break;
        }
      }
      if (ready && (!best || front < *best)) {
        best = front;
        best_source = s;
      }
    }
    if (!best) {
      // Cannot happen when every source order restricts one serial
      // order; refuse rather than emit out of order.
      return Status::Internal("snapshot: pseudo queues are order-incompatible");
    }
    ++order;
    const PseudoRecord& rec =
        snap.sources[best_source].pseudos[cursor[best_source]];
    // Advance every source whose front is this identity.
    for (const auto& [s, pos] : positions.at(*best)) {
      if (cursor[s] == pos) ++cursor[s];
    }
    auto parent_it = target_by_key.find(rec.parent_key);
    // A pre-sharing copy that is not the representative.
    if (parent_it == target_by_key.end()) continue;
    auto target_it = target_by_key.find(rec.target_key);
    if (target_it == target_by_key.end()) {
      return Status::Internal(
          "snapshot: pseudo target is missing from the target graph");
    }
    RestoredPseudo pseudo;
    pseudo.execute_at = rec.execute_at;
    pseudo.created_at = rec.created_at;
    pseudo.target_node = target_it->second;
    pseudo.parent_node = parent_it->second;
    pseudo.order = order;
    if (rec.anchor_kind == AnchorKind::kLive) {
      auto node_it = plan_node_by_key.find(rec.parent_key);
      if (node_it == plan_node_by_key.end()) {
        return Status::Internal(
            "snapshot: live pseudo anchor without parent node state");
      }
      const RestoredNode& node = plan.nodes[node_it->second];
      const auto& slot = node.slots[rec.anchor_slot];
      if (rec.anchor_pos >= slot.size()) {
        return Status::Internal(
            "snapshot: live pseudo anchor position out of range");
      }
      pseudo.anchor = slot[rec.anchor_pos].first;
    }
    plan.pseudos.push_back(std::move(pseudo));
  }
  plan.pseudo_counter = order;
  return plan;
}

}  // namespace rfidcep::engine::snapshot
