#include "engine/snapshot.h"

#include <array>
#include <string>
#include <unordered_map>

#include "common/byte_codec.h"
#include "common/hash.h"
#include "engine/graph.h"

namespace rfidcep::engine::snapshot {

using events::BindingValue;

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

}  // namespace

uint64_t ComputeFingerprint(ParameterContext context,
                            const std::vector<rules::Rule>& rules) {
  using common::FnvBytes;
  using common::FnvU64;
  uint64_t h = common::kFnvOffset;
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

}  // namespace rfidcep::engine::snapshot
