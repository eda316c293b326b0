#include "engine/snapshot.h"

#include <array>
#include <string>
#include <unordered_map>

#include "common/byte_codec.h"
#include "events/symbol.h"

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
constexpr size_t kMinIndex = 4;  // Slot, child, NOT-log and run entries.
// Kind, observation or span, sequence number, three counts.
constexpr size_t kMinInstance = 1 + 16 + 8 + 3 * 4;
constexpr size_t kMinRun = 4 + 8 + 8;
constexpr size_t kMinNode = 4 + 8 + 4 * 4;  // Key, produced, four counts.
constexpr size_t kMinPseudo = 8 + 8 + 4 + 4 + 1 + 1 + 4;
constexpr size_t kMinRuleCounts = 4 + 8 + 8;  // Id, matches, fired.
// Version 2: a node adds its retention, a slot entry its deadline, and a
// fired or counter entry is a name and one count.
constexpr size_t kMinNodeV2 = kMinNode + 8;
constexpr size_t kMinSlotEntryV2 = kMinIndex + 8;
constexpr size_t kMinNamedCountV2 = 4 + 8;

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

// Every count of EngineStats (const or not), in encoding order. The
// pseudo-queue peak is a gauge and restarts with the restored engine.
template <typename Stats>
auto StatFields(Stats& s) {
  auto& d = s.detector;
  return std::array{
      &d.observations,       &d.out_of_order_dropped, &d.primitive_matches,
      &d.instances_produced, &d.pseudo_scheduled,     &d.pseudo_fired,
      &d.rule_matches,       &d.fullscan_dispatches,  &s.rules_fired,
      &s.condition_rejects,  &s.condition_errors,     &s.action_errors,
      &s.process_calls,      &s.sql_actions_executed, &s.procedures_invoked,
      &s.unknown_procedures, &s.rows_written,         &s.actions_deduped};
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

void PutIndexes(ByteWriter& w, const std::vector<uint32_t>& indexes) {
  w.U32(static_cast<uint32_t>(indexes.size()));
  for (uint32_t index : indexes) w.U32(index);
}

void PutNodeState(ByteWriter& w, const NodeStateRecord& rec) {
  w.Str32(rec.state_key);
  w.U64(rec.produced);
  PutIndexes(w, rec.slots[0]);
  PutIndexes(w, rec.slots[1]);
  PutIndexes(w, rec.not_log);
  w.U32(static_cast<uint32_t>(rec.runs.size()));
  for (const RunRecord& run : rec.runs) {
    PutIndexes(w, run.elements);
    w.I64(run.t_begin);
    w.I64(run.t_end);
  }
}

// Version 2 adds the node's retention after its key and a deadline after
// each slot entry; restore derives both from the compiled graph.
void GetNodeState(ByteReader& r, uint32_t version, uint32_t num_instances,
                  NodeStateRecord* rec) {
  const auto get_indexes = [&](std::vector<uint32_t>& out, bool slot) {
    const bool v2_slot = slot && version == 2;
    out.resize(r.Count(v2_slot ? kMinSlotEntryV2 : kMinIndex));
    for (uint32_t& index : out) {
      index = r.U32();
      if (index >= num_instances) {
        r.Fail("node state references unknown instance");
      }
      if (v2_slot) r.I64();
    }
  };
  rec->state_key = r.Str32();
  if (version == 2) r.I64();
  rec->produced = r.U64();
  get_indexes(rec->slots[0], true);
  get_indexes(rec->slots[1], true);
  get_indexes(rec->not_log, false);
  rec->runs.resize(r.Count(kMinRun));
  for (RunRecord& run : rec->runs) {
    get_indexes(run.elements, false);
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

// The instance, node and pseudo tables, identical in both versions but
// for the node records.
void GetTables(ByteReader& r, uint32_t version, DetectorSnapshot* out) {
  out->instances.resize(r.Count(kMinInstance));
  const auto num_instances = static_cast<uint32_t>(out->instances.size());
  for (uint32_t i = 0; i < num_instances; ++i) {
    GetInstance(r, i, &out->instances[i]);
  }
  out->nodes.resize(r.Count(version == 2 ? kMinNodeV2 : kMinNode));
  for (NodeStateRecord& rec : out->nodes) {
    GetNodeState(r, version, num_instances, &rec);
  }
  out->pseudos.resize(r.Count(kMinPseudo));
  for (PseudoRecord& rec : out->pseudos) GetPseudo(r, &rec);
}

void GetV3(ByteReader& r, EngineSnapshot* out) {
  out->fingerprint = r.U64();
  out->flushed = r.U8() != 0;
  out->clock = r.I64();
  out->trace_obs_seq = r.U64();
  out->durable_lsn = r.U64();
  for (uint64_t* field : StatFields(out->stats)) *field = r.U64();
  out->rules.resize(r.Count(kMinRuleCounts));
  for (RuleCountRecord& rule : out->rules) {
    rule.rule_id = r.Str32();
    rule.matches = r.U64();
    rule.fired = r.U64();
  }
  out->detector.sequence_counter = r.U64();
  GetTables(r, 3, &out->detector);
}

// Version 2: the stats section stops at unknown_procedures, and five
// counts travel in a section of metric names, read here and nowhere
// else. Refuses, on their counts, the layouts of older builds: several
// detector sources and pending action firings.
Status GetV2(ByteReader& r, EngineSnapshot* out) {
  out->fingerprint = r.U64();
  r.U8();  // The parameter context, which the fingerprint covers.
  out->flushed = r.U8() != 0;
  out->clock = r.I64();
  out->trace_obs_seq = r.U64();
  EngineStats& s = out->stats;
  DetectorStats& d = s.detector;
  for (uint64_t* field :
       {&d.observations, &d.out_of_order_dropped, &d.primitive_matches,
        &d.instances_produced, &d.pseudo_scheduled, &d.pseudo_fired,
        &d.rule_matches, &s.rules_fired, &s.condition_rejects,
        &s.condition_errors, &s.action_errors, &s.sql_actions_executed,
        &s.procedures_invoked, &s.unknown_procedures}) {
    *field = r.U64();
  }
  out->rules.resize(r.Count(kMinNamedCountV2));
  std::unordered_map<std::string_view, RuleCountRecord*> rule_by_id;
  for (RuleCountRecord& rule : out->rules) {
    rule.rule_id = r.Str32();
    rule.fired = r.U64();
    rule_by_id.emplace(rule.rule_id, &rule);
  }
  constexpr std::string_view kRuleMatches = "rule_matches_total{rule=\"";
  for (uint32_t n = r.Count(kMinNamedCountV2); n > 0; --n) {
    const std::string_view name = r.Str32();
    const uint64_t value = r.U64();
    if (name == "rfidcep_process_calls_total") {
      s.process_calls = value;
    } else if (name == "store_rows_written_total") {
      s.rows_written = value;
    } else if (name == "actions_deduped_total") {
      s.actions_deduped = value;
    } else if (name.starts_with("rfidcep_dispatch_fullscan_total{")) {
      d.fullscan_dispatches += value;  // One series per detection worker.
    } else if (name.starts_with(kRuleMatches) && name.ends_with("\"}")) {
      auto it = rule_by_id.find(name.substr(
          kRuleMatches.size(), name.size() - kRuleMatches.size() - 2));
      if (it != rule_by_id.end()) it->second->matches = value;
    }
  }
  r.U32();  // Detection workers; a data-sharded capture merged to one source.
  const uint32_t sources = r.U32();
  if (r.ok() && sources != 1) {
    return Status::FailedPrecondition(
        "snapshot: a version-2 checkpoint with " + std::to_string(sources) +
        " detector sources is not restored: this build restores one (the "
        "rule-sharded layout wrote one per shard)");
  }
  r.U32();  // Source id.
  if (r.I64() != out->clock) r.Fail("source clock differs from engine clock");
  out->detector.sequence_counter = r.U64();
  r.U64();  // Pseudo counter: restore renumbers the queue.
  r.Bytes(7 * 8);  // Source stats: the engine's detector stats above.
  GetTables(r, 2, &out->detector);
  out->durable_lsn = r.U64();
  const uint32_t pending = r.U32();
  if (r.ok() && pending != 0) {
    return Status::FailedPrecondition(
        "snapshot: a version-2 checkpoint with " + std::to_string(pending) +
        " pending action firings (the layout of builds that ran actions on "
        "a worker thread) is not restored");
  }
  return Status::Ok();
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
  w.U32(kSnapshotVersion);
  w.U64(snap.fingerprint);
  w.U8(snap.flushed ? 1 : 0);
  w.I64(snap.clock);
  w.U64(snap.trace_obs_seq);
  w.U64(snap.durable_lsn);
  for (const uint64_t* field : StatFields(snap.stats)) w.U64(*field);
  w.U32(static_cast<uint32_t>(snap.rules.size()));
  for (const RuleCountRecord& rule : snap.rules) {
    w.Str32(rule.rule_id);
    w.U64(rule.matches);
    w.U64(rule.fired);
  }
  const DetectorSnapshot& d = snap.detector;
  w.U64(d.sequence_counter);
  w.U32(static_cast<uint32_t>(d.instances.size()));
  for (const InstanceRecord& rec : d.instances) PutInstance(w, rec);
  w.U32(static_cast<uint32_t>(d.nodes.size()));
  for (const NodeStateRecord& rec : d.nodes) PutNodeState(w, rec);
  w.U32(static_cast<uint32_t>(d.pseudos.size()));
  for (const PseudoRecord& rec : d.pseudos) PutPseudo(w, rec);
  return out;
}

Status DecodeEngineSnapshot(std::string_view bytes, EngineSnapshot* out) {
  ByteReader r(bytes);
  const std::string_view magic = r.Bytes(kSnapshotMagic.size());
  if (r.ok() && magic != kSnapshotMagic) {
    return Status::FailedPrecondition("snapshot: bad magic (not a snapshot)");
  }
  const uint32_t version = r.U32();
  if (r.ok() &&
      (version < kMinSnapshotVersion || version > kSnapshotVersion)) {
    return Status::FailedPrecondition(
        "snapshot: format version " + std::to_string(version) +
        " is not restored (this build reads versions " +
        std::to_string(kMinSnapshotVersion) + "-" +
        std::to_string(kSnapshotVersion) + ")");
  }
  if (version == 2) {
    RFIDCEP_RETURN_IF_ERROR(GetV2(r, out));
  } else {
    GetV3(r, out);
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

// Rebuilds the instance table as live objects.
std::vector<EventInstancePtr> DecodeInstances(const DetectorSnapshot& src) {
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

Status UnknownStateKey(std::string_view what, std::string_view key) {
  return Status::FailedPrecondition(
      "snapshot: " + std::string(what) + " under state key '" +
      std::string(key) +
      "', which the compiled graph lacks, is not restored (a checkpoint "
      "from before SEQ+ prefix sharing keeps per-rule copies under such "
      "keys)");
}

}  // namespace

Result<RestorePlan> BuildRestorePlan(
    const EngineSnapshot& snap, const std::vector<std::string>& target_keys) {
  const DetectorSnapshot& src = snap.detector;
  std::unordered_map<std::string_view, int> target_by_key;
  target_by_key.reserve(target_keys.size());
  for (size_t i = 0; i < target_keys.size(); ++i) {
    target_by_key.emplace(target_keys[i], static_cast<int>(i));
  }
  for (const NodeStateRecord& rec : src.nodes) {
    const bool holds_state = !rec.slots[0].empty() || !rec.slots[1].empty() ||
                             !rec.not_log.empty() || !rec.runs.empty();
    if (holds_state && !target_by_key.contains(rec.state_key)) {
      return UnknownStateKey("detection state", rec.state_key);
    }
  }
  for (const PseudoRecord& rec : src.pseudos) {
    for (const std::string* key : {&rec.target_key, &rec.parent_key}) {
      if (!target_by_key.contains(*key)) {
        return UnknownStateKey("a pseudo event", *key);
      }
    }
  }

  RestorePlan plan;
  plan.clock = snap.clock;
  plan.sequence_counter = src.sequence_counter;
  // Restore numbers the queue 1..n, so the counter resumes at its length:
  // later pseudos sort after every restored one, and a re-capture of the
  // restored engine is byte-identical.
  plan.pseudo_counter = src.pseudos.size();
  const std::vector<EventInstancePtr> table = DecodeInstances(src);
  const auto entries = [&table](const std::vector<uint32_t>& indexes) {
    std::vector<EventInstancePtr> out;
    out.reserve(indexes.size());
    for (uint32_t index : indexes) out.push_back(table[index]);
    return out;
  };
  // Each restored node's position, for pseudo anchor resolution.
  std::unordered_map<std::string_view, size_t> plan_node_by_key;
  for (const NodeStateRecord& rec : src.nodes) {
    auto target = target_by_key.find(rec.state_key);
    if (target == target_by_key.end()) continue;  // Produced-only: dropped.
    if (!plan_node_by_key.emplace(rec.state_key, plan.nodes.size()).second) {
      return Status::InvalidArgument("snapshot: two records for state key '" +
                                     rec.state_key + "'");
    }
    RestoredNode& node = plan.nodes.emplace_back();
    node.node_id = target->second;
    node.produced = rec.produced;
    node.slots[0] = entries(rec.slots[0]);
    node.slots[1] = entries(rec.slots[1]);
    node.not_log = entries(rec.not_log);
    node.runs.reserve(rec.runs.size());
    for (const RunRecord& run : rec.runs) {
      node.runs.push_back(RestoredRun{entries(run.elements), run.t_begin,
                                      run.t_end});
    }
  }

  plan.pseudos.reserve(src.pseudos.size());
  for (const PseudoRecord& rec : src.pseudos) {
    RestoredPseudo& pseudo = plan.pseudos.emplace_back();
    pseudo.execute_at = rec.execute_at;
    pseudo.created_at = rec.created_at;
    pseudo.target_node = target_by_key.at(rec.target_key);
    pseudo.parent_node = target_by_key.at(rec.parent_key);
    pseudo.order = plan.pseudos.size();
    if (rec.anchor_kind == AnchorKind::kLive) {
      auto node = plan_node_by_key.find(rec.parent_key);
      const std::vector<EventInstancePtr>* slot =
          node == plan_node_by_key.end()
              ? nullptr
              : &plan.nodes[node->second].slots[rec.anchor_slot];
      if (slot == nullptr || rec.anchor_pos >= slot->size()) {
        return Status::InvalidArgument(
            "snapshot: live pseudo anchor outside its parent's entries");
      }
      pseudo.anchor = (*slot)[rec.anchor_pos];
    }
  }
  return plan;
}

}  // namespace rfidcep::engine::snapshot
