#include "engine/snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "events/symbol.h"

namespace rfidcep::engine::snapshot {

using events::BindingValue;
using events::Bindings;
using events::EventInstance;
using events::EventInstancePtr;

namespace {

// --- Byte stream helpers ----------------------------------------------------

class Writer {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }
  void Raw(std::string_view s) { out_.append(s); }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  Status U8(uint8_t* v) {
    RFIDCEP_RETURN_IF_ERROR(Need(1));
    *v = static_cast<uint8_t>(data_[pos_++]);
    return Status::Ok();
  }
  Status U32(uint32_t* v) {
    RFIDCEP_RETURN_IF_ERROR(Need(4));
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++]))
            << (8 * i);
    }
    return Status::Ok();
  }
  Status U64(uint64_t* v) {
    RFIDCEP_RETURN_IF_ERROR(Need(8));
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++]))
            << (8 * i);
    }
    return Status::Ok();
  }
  Status I64(int64_t* v) {
    uint64_t u = 0;
    RFIDCEP_RETURN_IF_ERROR(U64(&u));
    *v = static_cast<int64_t>(u);
    return Status::Ok();
  }
  Status Str(std::string* s) {
    std::string_view view;
    RFIDCEP_RETURN_IF_ERROR(Str(&view));
    s->assign(view);
    return Status::Ok();
  }
  // A view into the input, valid as long as the input is.
  Status Str(std::string_view* s) {
    uint32_t n = 0;
    RFIDCEP_RETURN_IF_ERROR(U32(&n));
    return Raw(n, s);
  }
  Status Raw(size_t n, std::string_view* out) {
    RFIDCEP_RETURN_IF_ERROR(Need(n));
    *out = data_.substr(pos_, n);
    pos_ += n;
    return Status::Ok();
  }
  // Collection sizes are length-prefixed; cap preallocation by what the
  // remaining bytes could possibly hold (min 1 byte per element).
  Status Count(uint32_t* n) {
    RFIDCEP_RETURN_IF_ERROR(U32(n));
    if (*n > data_.size() - pos_) {
      return Status::InvalidArgument("snapshot: impossible element count");
    }
    return Status::Ok();
  }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Need(size_t n) {
    if (data_.size() - pos_ < n) {
      return Status::InvalidArgument("snapshot: truncated input");
    }
    return Status::Ok();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// --- Value helpers ----------------------------------------------------------

void PutValue(Writer* w, const BindingValue& v) {
  if (const events::SharedText* text = std::get_if<events::SharedText>(&v)) {
    w->U8(0);
    w->Str(text->view());
  } else {
    w->U8(1);
    w->I64(std::get<TimePoint>(v));
  }
}

Status GetValue(Reader* r, BindingValue* v) {
  uint8_t tag = 0;
  RFIDCEP_RETURN_IF_ERROR(r->U8(&tag));
  if (tag == 0) {
    std::string_view text;
    RFIDCEP_RETURN_IF_ERROR(r->Str(&text));
    *v = events::SharedText(text);
    return Status::Ok();
  }
  if (tag == 1) {
    TimePoint t = 0;
    RFIDCEP_RETURN_IF_ERROR(r->I64(&t));
    *v = t;
    return Status::Ok();
  }
  return Status::InvalidArgument("snapshot: unknown binding value tag");
}

// Store values (pending-action params), tagged by ValueKind. Mirrors the
// WAL codec: kNull/kUc carry no payload, kDouble round-trips via bit
// pattern so re-encoding is byte-exact.
void PutStoreScalar(Writer* w, const store::Value& v) {
  w->U8(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case store::ValueKind::kNull:
    case store::ValueKind::kUc:
      break;
    case store::ValueKind::kInt:
      w->I64(v.AsInt());
      break;
    case store::ValueKind::kTime:
      w->I64(v.AsTime());
      break;
    case store::ValueKind::kDouble:
      w->U64(std::bit_cast<uint64_t>(v.AsDouble()));
      break;
    case store::ValueKind::kString:
      w->Str(v.AsString());
      break;
  }
}

Status GetStoreScalar(Reader* r, store::Value* v) {
  uint8_t tag = 0;
  RFIDCEP_RETURN_IF_ERROR(r->U8(&tag));
  switch (static_cast<store::ValueKind>(tag)) {
    case store::ValueKind::kNull:
      *v = store::Value::Null();
      return Status::Ok();
    case store::ValueKind::kUc:
      *v = store::Value::Uc();
      return Status::Ok();
    case store::ValueKind::kInt: {
      int64_t i = 0;
      RFIDCEP_RETURN_IF_ERROR(r->I64(&i));
      *v = store::Value::Int(i);
      return Status::Ok();
    }
    case store::ValueKind::kTime: {
      int64_t t = 0;
      RFIDCEP_RETURN_IF_ERROR(r->I64(&t));
      *v = store::Value::Time(t);
      return Status::Ok();
    }
    case store::ValueKind::kDouble: {
      uint64_t bits = 0;
      RFIDCEP_RETURN_IF_ERROR(r->U64(&bits));
      *v = store::Value::Double(std::bit_cast<double>(bits));
      return Status::Ok();
    }
    case store::ValueKind::kString: {
      std::string s;
      RFIDCEP_RETURN_IF_ERROR(r->Str(&s));
      *v = store::Value::String(std::move(s));
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("snapshot: unknown store value tag");
}

void PutParamValue(Writer* w, const store::ParamValue& p) {
  w->U8(p.is_multi ? 1 : 0);
  if (p.is_multi) {
    w->U32(static_cast<uint32_t>(p.values.size()));
    for (const store::Value& v : p.values) PutStoreScalar(w, v);
  } else {
    PutStoreScalar(w, p.scalar);
  }
}

Status GetParamValue(Reader* r, store::ParamValue* p) {
  uint8_t is_multi = 0;
  RFIDCEP_RETURN_IF_ERROR(r->U8(&is_multi));
  p->is_multi = is_multi != 0;
  if (p->is_multi) {
    uint32_t n = 0;
    RFIDCEP_RETURN_IF_ERROR(r->Count(&n));
    p->values.resize(n);
    for (store::Value& v : p->values) {
      RFIDCEP_RETURN_IF_ERROR(GetStoreScalar(r, &v));
    }
    return Status::Ok();
  }
  return GetStoreScalar(r, &p->scalar);
}

void PutDetectorStats(Writer* w, const DetectorStats& s) {
  w->U64(s.observations);
  w->U64(s.out_of_order_dropped);
  w->U64(s.primitive_matches);
  w->U64(s.instances_produced);
  w->U64(s.pseudo_scheduled);
  w->U64(s.pseudo_fired);
  w->U64(s.rule_matches);
}

Status GetDetectorStats(Reader* r, DetectorStats* s) {
  RFIDCEP_RETURN_IF_ERROR(r->U64(&s->observations));
  RFIDCEP_RETURN_IF_ERROR(r->U64(&s->out_of_order_dropped));
  RFIDCEP_RETURN_IF_ERROR(r->U64(&s->primitive_matches));
  RFIDCEP_RETURN_IF_ERROR(r->U64(&s->instances_produced));
  RFIDCEP_RETURN_IF_ERROR(r->U64(&s->pseudo_scheduled));
  RFIDCEP_RETURN_IF_ERROR(r->U64(&s->pseudo_fired));
  return r->U64(&s->rule_matches);
}

void PutInstance(Writer* w, const InstanceRecord& rec) {
  w->U8(rec.is_primitive ? 1 : 0);
  if (rec.is_primitive) {
    w->Str(rec.observation.reader);
    w->Str(rec.observation.object);
    w->I64(rec.observation.timestamp);
  } else {
    w->I64(rec.t_begin);
    w->I64(rec.t_end);
  }
  w->U64(rec.sequence_number);
  w->U32(static_cast<uint32_t>(rec.scalars.size()));
  for (const auto& [name, value] : rec.scalars) {
    w->Str(name);
    PutValue(w, value);
  }
  w->U32(static_cast<uint32_t>(rec.multis.size()));
  for (const auto& [name, values] : rec.multis) {
    w->Str(name);
    w->U32(static_cast<uint32_t>(values.size()));
    for (const BindingValue& value : values) PutValue(w, value);
  }
  w->U32(static_cast<uint32_t>(rec.children.size()));
  for (uint32_t child : rec.children) w->U32(child);
}

Status GetInstance(Reader* r, uint32_t self_index, InstanceRecord* rec) {
  uint8_t primitive = 0;
  RFIDCEP_RETURN_IF_ERROR(r->U8(&primitive));
  rec->is_primitive = primitive != 0;
  if (rec->is_primitive) {
    RFIDCEP_RETURN_IF_ERROR(r->Str(&rec->observation.reader));
    RFIDCEP_RETURN_IF_ERROR(r->Str(&rec->observation.object));
    RFIDCEP_RETURN_IF_ERROR(r->I64(&rec->observation.timestamp));
  } else {
    RFIDCEP_RETURN_IF_ERROR(r->I64(&rec->t_begin));
    RFIDCEP_RETURN_IF_ERROR(r->I64(&rec->t_end));
  }
  RFIDCEP_RETURN_IF_ERROR(r->U64(&rec->sequence_number));
  uint32_t n = 0;
  RFIDCEP_RETURN_IF_ERROR(r->Count(&n));
  rec->scalars.resize(n);
  for (auto& [name, value] : rec->scalars) {
    RFIDCEP_RETURN_IF_ERROR(r->Str(&name));
    RFIDCEP_RETURN_IF_ERROR(GetValue(r, &value));
  }
  RFIDCEP_RETURN_IF_ERROR(r->Count(&n));
  rec->multis.resize(n);
  for (auto& [name, values] : rec->multis) {
    RFIDCEP_RETURN_IF_ERROR(r->Str(&name));
    uint32_t m = 0;
    RFIDCEP_RETURN_IF_ERROR(r->Count(&m));
    values.resize(m);
    for (BindingValue& value : values) {
      RFIDCEP_RETURN_IF_ERROR(GetValue(r, &value));
    }
  }
  RFIDCEP_RETURN_IF_ERROR(r->Count(&n));
  rec->children.resize(n);
  for (uint32_t& child : rec->children) {
    RFIDCEP_RETURN_IF_ERROR(r->U32(&child));
    if (child >= self_index) {
      return Status::InvalidArgument(
          "snapshot: instance child index out of order");
    }
  }
  return Status::Ok();
}

void PutNodeState(Writer* w, const NodeStateRecord& rec) {
  w->Str(rec.state_key);
  w->I64(rec.retention);
  w->U64(rec.produced);
  for (int slot = 0; slot < 2; ++slot) {
    w->U32(static_cast<uint32_t>(rec.slots[slot].size()));
    for (const SlotEntryRecord& entry : rec.slots[slot]) {
      w->U32(entry.instance);
      w->I64(entry.deadline);
    }
  }
  w->U32(static_cast<uint32_t>(rec.not_log.size()));
  for (uint32_t instance : rec.not_log) w->U32(instance);
  w->U32(static_cast<uint32_t>(rec.runs.size()));
  for (const RunRecord& run : rec.runs) {
    w->U32(static_cast<uint32_t>(run.elements.size()));
    for (uint32_t element : run.elements) w->U32(element);
    w->I64(run.t_begin);
    w->I64(run.t_end);
  }
}

Status GetNodeState(Reader* r, uint32_t num_instances, NodeStateRecord* rec) {
  auto check = [num_instances](uint32_t instance) {
    if (instance >= num_instances) {
      return Status::InvalidArgument(
          "snapshot: node state references unknown instance");
    }
    return Status::Ok();
  };
  RFIDCEP_RETURN_IF_ERROR(r->Str(&rec->state_key));
  RFIDCEP_RETURN_IF_ERROR(r->I64(&rec->retention));
  RFIDCEP_RETURN_IF_ERROR(r->U64(&rec->produced));
  uint32_t n = 0;
  for (int slot = 0; slot < 2; ++slot) {
    RFIDCEP_RETURN_IF_ERROR(r->Count(&n));
    rec->slots[slot].resize(n);
    for (SlotEntryRecord& entry : rec->slots[slot]) {
      RFIDCEP_RETURN_IF_ERROR(r->U32(&entry.instance));
      RFIDCEP_RETURN_IF_ERROR(check(entry.instance));
      RFIDCEP_RETURN_IF_ERROR(r->I64(&entry.deadline));
    }
  }
  RFIDCEP_RETURN_IF_ERROR(r->Count(&n));
  rec->not_log.resize(n);
  for (uint32_t& instance : rec->not_log) {
    RFIDCEP_RETURN_IF_ERROR(r->U32(&instance));
    RFIDCEP_RETURN_IF_ERROR(check(instance));
  }
  RFIDCEP_RETURN_IF_ERROR(r->Count(&n));
  rec->runs.resize(n);
  for (RunRecord& run : rec->runs) {
    uint32_t m = 0;
    RFIDCEP_RETURN_IF_ERROR(r->Count(&m));
    run.elements.resize(m);
    for (uint32_t& element : run.elements) {
      RFIDCEP_RETURN_IF_ERROR(r->U32(&element));
      RFIDCEP_RETURN_IF_ERROR(check(element));
    }
    RFIDCEP_RETURN_IF_ERROR(r->I64(&run.t_begin));
    RFIDCEP_RETURN_IF_ERROR(r->I64(&run.t_end));
  }
  return Status::Ok();
}

void PutPseudo(Writer* w, const PseudoRecord& rec) {
  w->I64(rec.execute_at);
  w->I64(rec.created_at);
  w->Str(rec.target_key);
  w->Str(rec.parent_key);
  w->U8(static_cast<uint8_t>(rec.anchor_kind));
  w->U8(rec.anchor_slot);
  w->U32(rec.anchor_pos);
}

Status GetPseudo(Reader* r, PseudoRecord* rec) {
  RFIDCEP_RETURN_IF_ERROR(r->I64(&rec->execute_at));
  RFIDCEP_RETURN_IF_ERROR(r->I64(&rec->created_at));
  RFIDCEP_RETURN_IF_ERROR(r->Str(&rec->target_key));
  RFIDCEP_RETURN_IF_ERROR(r->Str(&rec->parent_key));
  uint8_t kind = 0;
  RFIDCEP_RETURN_IF_ERROR(r->U8(&kind));
  if (kind > static_cast<uint8_t>(AnchorKind::kStale)) {
    return Status::InvalidArgument("snapshot: unknown pseudo anchor kind");
  }
  rec->anchor_kind = static_cast<AnchorKind>(kind);
  RFIDCEP_RETURN_IF_ERROR(r->U8(&rec->anchor_slot));
  if (rec->anchor_slot > 1) {
    return Status::InvalidArgument("snapshot: pseudo anchor slot out of range");
  }
  return r->U32(&rec->anchor_pos);
}

void PutSource(Writer* w, const DetectorSnapshot& src) {
  w->U32(static_cast<uint32_t>(src.source_id));
  w->I64(src.clock);
  w->U64(src.sequence_counter);
  w->U64(src.pseudo_counter);
  PutDetectorStats(w, src.stats);
  w->U32(static_cast<uint32_t>(src.instances.size()));
  for (const InstanceRecord& rec : src.instances) PutInstance(w, rec);
  w->U32(static_cast<uint32_t>(src.nodes.size()));
  for (const NodeStateRecord& rec : src.nodes) PutNodeState(w, rec);
  w->U32(static_cast<uint32_t>(src.pseudos.size()));
  for (const PseudoRecord& rec : src.pseudos) PutPseudo(w, rec);
}

Status GetSource(Reader* r, DetectorSnapshot* src) {
  uint32_t id = 0;
  RFIDCEP_RETURN_IF_ERROR(r->U32(&id));
  src->source_id = static_cast<int>(id);
  RFIDCEP_RETURN_IF_ERROR(r->I64(&src->clock));
  RFIDCEP_RETURN_IF_ERROR(r->U64(&src->sequence_counter));
  RFIDCEP_RETURN_IF_ERROR(r->U64(&src->pseudo_counter));
  RFIDCEP_RETURN_IF_ERROR(GetDetectorStats(r, &src->stats));
  uint32_t n = 0;
  RFIDCEP_RETURN_IF_ERROR(r->Count(&n));
  src->instances.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    RFIDCEP_RETURN_IF_ERROR(GetInstance(r, i, &src->instances[i]));
  }
  uint32_t num_instances = n;
  RFIDCEP_RETURN_IF_ERROR(r->Count(&n));
  src->nodes.resize(n);
  for (NodeStateRecord& rec : src->nodes) {
    RFIDCEP_RETURN_IF_ERROR(GetNodeState(r, num_instances, &rec));
  }
  RFIDCEP_RETURN_IF_ERROR(r->Count(&n));
  src->pseudos.resize(n);
  for (PseudoRecord& rec : src->pseudos) {
    RFIDCEP_RETURN_IF_ERROR(GetPseudo(r, &rec));
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
  Writer w;
  w.Raw(kSnapshotMagic);
  w.U32(snap.version);
  w.U64(snap.fingerprint);
  w.U8(snap.context);
  w.U8(snap.flushed ? 1 : 0);
  w.I64(snap.clock);
  w.U64(snap.trace_obs_seq);
  PutDetectorStats(&w, snap.stats.detector);
  w.U64(snap.stats.rules_fired);
  w.U64(snap.stats.condition_rejects);
  w.U64(snap.stats.condition_errors);
  w.U64(snap.stats.action_errors);
  w.U64(snap.stats.sql_actions_executed);
  w.U64(snap.stats.procedures_invoked);
  w.U64(snap.stats.unknown_procedures);
  w.U32(static_cast<uint32_t>(snap.fired.size()));
  for (const auto& [rule_id, count] : snap.fired) {
    w.Str(rule_id);
    w.U64(count);
  }
  w.U32(static_cast<uint32_t>(snap.counters.size()));
  for (const auto& [name, value] : snap.counters) {
    w.Str(name);
    w.U64(value);
  }
  w.U32(static_cast<uint32_t>(snap.source_shards));
  w.U32(static_cast<uint32_t>(snap.sources.size()));
  for (const DetectorSnapshot& src : snap.sources) PutSource(&w, src);
  if (snap.version >= 2) {
    // Durable action section. Version-1 encodes (for the golden
    // backward-compat fixtures) stop at the sources.
    w.U64(snap.durable_lsn);
    w.U32(static_cast<uint32_t>(snap.pending_actions.size()));
    for (const EngineSnapshot::PendingActionRecord& p : snap.pending_actions) {
      w.Str(p.rule_id);
      w.U64(p.seq);
      w.I64(p.fire_time);
      w.U32(static_cast<uint32_t>(p.params.size()));
      for (const auto& [name, value] : p.params) {
        w.Str(name);
        PutParamValue(&w, value);
      }
    }
  }
  return w.Take();
}

Status DecodeEngineSnapshot(std::string_view bytes, EngineSnapshot* out) {
  Reader r(bytes);
  std::string_view magic;
  RFIDCEP_RETURN_IF_ERROR(r.Raw(kSnapshotMagic.size(), &magic));
  if (magic != kSnapshotMagic) {
    return Status::FailedPrecondition("snapshot: bad magic (not a snapshot)");
  }
  RFIDCEP_RETURN_IF_ERROR(r.U32(&out->version));
  if (out->version < kMinSnapshotVersion || out->version > kSnapshotVersion) {
    return Status::FailedPrecondition(
        "snapshot: unsupported format version " +
        std::to_string(out->version) + " (this build reads versions " +
        std::to_string(kMinSnapshotVersion) + "-" +
        std::to_string(kSnapshotVersion) + ")");
  }
  RFIDCEP_RETURN_IF_ERROR(r.U64(&out->fingerprint));
  RFIDCEP_RETURN_IF_ERROR(r.U8(&out->context));
  uint8_t flushed = 0;
  RFIDCEP_RETURN_IF_ERROR(r.U8(&flushed));
  out->flushed = flushed != 0;
  RFIDCEP_RETURN_IF_ERROR(r.I64(&out->clock));
  RFIDCEP_RETURN_IF_ERROR(r.U64(&out->trace_obs_seq));
  RFIDCEP_RETURN_IF_ERROR(GetDetectorStats(&r, &out->stats.detector));
  RFIDCEP_RETURN_IF_ERROR(r.U64(&out->stats.rules_fired));
  RFIDCEP_RETURN_IF_ERROR(r.U64(&out->stats.condition_rejects));
  RFIDCEP_RETURN_IF_ERROR(r.U64(&out->stats.condition_errors));
  RFIDCEP_RETURN_IF_ERROR(r.U64(&out->stats.action_errors));
  RFIDCEP_RETURN_IF_ERROR(r.U64(&out->stats.sql_actions_executed));
  RFIDCEP_RETURN_IF_ERROR(r.U64(&out->stats.procedures_invoked));
  RFIDCEP_RETURN_IF_ERROR(r.U64(&out->stats.unknown_procedures));
  uint32_t n = 0;
  RFIDCEP_RETURN_IF_ERROR(r.Count(&n));
  out->fired.resize(n);
  for (auto& [rule_id, count] : out->fired) {
    RFIDCEP_RETURN_IF_ERROR(r.Str(&rule_id));
    RFIDCEP_RETURN_IF_ERROR(r.U64(&count));
  }
  RFIDCEP_RETURN_IF_ERROR(r.Count(&n));
  out->counters.resize(n);
  for (auto& [name, value] : out->counters) {
    RFIDCEP_RETURN_IF_ERROR(r.Str(&name));
    RFIDCEP_RETURN_IF_ERROR(r.U64(&value));
  }
  uint32_t shards = 0;
  RFIDCEP_RETURN_IF_ERROR(r.U32(&shards));
  out->source_shards = static_cast<int>(shards);
  RFIDCEP_RETURN_IF_ERROR(r.Count(&n));
  out->sources.resize(n);
  for (DetectorSnapshot& src : out->sources) {
    RFIDCEP_RETURN_IF_ERROR(GetSource(&r, &src));
  }
  if (out->version >= 2) {
    RFIDCEP_RETURN_IF_ERROR(r.U64(&out->durable_lsn));
    RFIDCEP_RETURN_IF_ERROR(r.Count(&n));
    out->pending_actions.resize(n);
    for (EngineSnapshot::PendingActionRecord& p : out->pending_actions) {
      RFIDCEP_RETURN_IF_ERROR(r.Str(&p.rule_id));
      RFIDCEP_RETURN_IF_ERROR(r.U64(&p.seq));
      RFIDCEP_RETURN_IF_ERROR(r.I64(&p.fire_time));
      uint32_t np = 0;
      RFIDCEP_RETURN_IF_ERROR(r.Count(&np));
      p.params.resize(np);
      for (auto& [name, value] : p.params) {
        RFIDCEP_RETURN_IF_ERROR(r.Str(&name));
        RFIDCEP_RETURN_IF_ERROR(GetParamValue(&r, &value));
      }
    }
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("snapshot: trailing bytes after payload");
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
    // Another shard's node, or a pre-sharing copy that is not the
    // representative.
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

DetectorSnapshot MergeShardSnapshots(
    const std::vector<DetectorSnapshot>& sources,
    const std::vector<bool>& keyed_replica) {
  DetectorSnapshot out;
  out.source_id = 0;
  if (sources.empty()) return out;
  out.clock = sources[0].clock;

  // Concatenate instance tables; children indexes shift by each source's
  // offset. (Records from non-chosen sides stay in the table unreferenced
  // — harmless, and keeps anchors a pure index remap.)
  std::vector<uint32_t> offset(sources.size(), 0);
  uint32_t total_instances = 0;
  for (size_t s = 0; s < sources.size(); ++s) {
    offset[s] = total_instances;
    total_instances += static_cast<uint32_t>(sources[s].instances.size());
  }
  out.instances.reserve(total_instances);
  for (size_t s = 0; s < sources.size(); ++s) {
    for (const InstanceRecord& rec : sources[s].instances) {
      InstanceRecord copy = rec;
      for (uint32_t& child : copy.children) child += offset[s];
      out.instances.push_back(std::move(copy));
    }
    out.sequence_counter =
        std::max(out.sequence_counter, sources[s].sequence_counter);
    const DetectorStats& st = sources[s].stats;
    out.stats.observations += st.observations;
    out.stats.out_of_order_dropped += st.out_of_order_dropped;
    out.stats.primitive_matches += st.primitive_matches;
    out.stats.instances_produced += st.instances_produced;
    out.stats.pseudo_scheduled += st.pseudo_scheduled;
    out.stats.pseudo_fired += st.pseudo_fired;
    out.stats.rule_matches += st.rule_matches;
  }

  // Renumber sequence numbers into one global order. Per-source sequence
  // numbers collide across replicas (each replica counts its own slice),
  // and downstream consumers need them unique and arrival-ordered within
  // a bucket: FirePseudo re-finds its anchor by sequence number, and
  // restore rebuilds bucket deques assuming sequence order is arrival
  // order. K-way merge popping the source whose next instance carries the
  // smallest effective end time (ties by source id): each source's
  // internal order is preserved exactly — same-key state lives on one
  // replica, so only that relative order is observable — and primitives,
  // which each replica holds in timestamp order, interleave back into
  // stream arrival order. Each source is walked in its recorded sequence
  // order, not table order: SaveState interns node-major, so an instance
  // only a later node still buffers sits after newer ones in the table.
  std::vector<uint64_t> new_seq(total_instances, 0);
  {
    std::vector<std::vector<uint32_t>> by_seq(sources.size());
    for (size_t s = 0; s < sources.size(); ++s) {
      const std::vector<InstanceRecord>& table = sources[s].instances;
      by_seq[s].resize(table.size());
      for (uint32_t i = 0; i < table.size(); ++i) by_seq[s][i] = i;
      auto earlier = [&table](uint32_t a, uint32_t b) {
        return table[a].sequence_number < table[b].sequence_number;
      };
      std::stable_sort(by_seq[s].begin(), by_seq[s].end(), earlier);
    }
    auto eff_t_end = [&](size_t s, size_t pos) {
      const InstanceRecord& rec = sources[s].instances[by_seq[s][pos]];
      return rec.is_primitive ? rec.observation.timestamp : rec.t_end;
    };
    std::vector<size_t> cursor(sources.size(), 0);
    uint64_t next = 0;
    for (uint32_t assigned = 0; assigned < total_instances; ++assigned) {
      size_t best = sources.size();
      for (size_t s = 0; s < sources.size(); ++s) {
        if (cursor[s] >= by_seq[s].size()) continue;
        if (best == sources.size() ||
            eff_t_end(s, cursor[s]) < eff_t_end(best, cursor[best])) {
          best = s;
        }
      }
      new_seq[offset[best] + by_seq[best][cursor[best]]] = ++next;
      ++cursor[best];
    }
    for (uint32_t i = 0; i < total_instances; ++i) {
      out.instances[i].sequence_number = new_seq[i];
    }
    out.sequence_counter = std::max(out.sequence_counter, next);
  }

  // Group node records by state key (first-appearance order, so merged
  // output is deterministic).
  struct Ref {
    size_t source;
    const NodeStateRecord* rec;
  };
  std::vector<std::string_view> key_order;
  std::unordered_map<std::string_view, std::vector<Ref>> by_key;
  for (size_t s = 0; s < sources.size(); ++s) {
    for (const NodeStateRecord& rec : sources[s].nodes) {
      auto [it, inserted] = by_key.try_emplace(rec.state_key);
      if (inserted) key_order.push_back(rec.state_key);
      it->second.push_back(Ref{s, &rec});
    }
  }

  // Anchor remap: (source, parent state key) -> per-slot src pos -> merged
  // pos. Entries absent here were not chosen into the merge: their
  // pseudos degrade to kStale and fire as no-ops, mirroring the live twin
  // kept from the winning side of the same shared node.
  constexpr uint32_t kDropped = std::numeric_limits<uint32_t>::max();
  std::map<std::pair<size_t, std::string_view>,
           std::array<std::vector<uint32_t>, 2>>
      posmap;

  auto seq_of = [&](size_t s, uint32_t instance) {
    // Renumbered: unique across sources, arrival-ordered (see above).
    return out.instances[offset[s] + instance].sequence_number;
  };

  for (std::string_view key : key_order) {
    const std::vector<Ref>& refs = by_key.at(key);
    std::vector<Ref> keyed, other;
    for (const Ref& r : refs) {
      (keyed_replica[r.source] ? keyed : other).push_back(r);
    }
    // A non-replica copy is complete over every key; take it when its
    // retention covers the replicas' window, else union the replica
    // slices (see header comment).
    const Ref* pick = nullptr;
    for (const Ref& r : other) {
      if (pick == nullptr || r.rec->retention > pick->rec->retention) {
        pick = &r;
      }
    }
    if (pick != nullptr && !keyed.empty() &&
        pick->rec->retention < keyed.front().rec->retention) {
      pick = nullptr;  // Replicas retain longer: union them instead.
    }

    NodeStateRecord merged;
    merged.state_key = std::string(key);
    if (pick != nullptr) {
      const NodeStateRecord& rec = *pick->rec;
      merged.retention = rec.retention;
      merged.produced = rec.produced;
      merged.not_log.reserve(rec.not_log.size());
      for (uint32_t inst : rec.not_log) {
        merged.not_log.push_back(inst + offset[pick->source]);
      }
      merged.runs = rec.runs;
      for (RunRecord& run : merged.runs) {
        for (uint32_t& element : run.elements) {
          element += offset[pick->source];
        }
      }
      auto& slots = posmap[{pick->source, key}];
      for (int slot = 0; slot < 2; ++slot) {
        merged.slots[slot].reserve(rec.slots[slot].size());
        slots[slot].assign(rec.slots[slot].size(), kDropped);
        for (size_t pos = 0; pos < rec.slots[slot].size(); ++pos) {
          slots[slot][pos] = static_cast<uint32_t>(merged.slots[slot].size());
          SlotEntryRecord entry = rec.slots[slot][pos];
          entry.instance += offset[pick->source];
          merged.slots[slot].push_back(entry);
        }
      }
    } else {
      merged.retention = keyed.front().rec->retention;
      for (const Ref& r : keyed) merged.produced += r.rec->produced;
      // Union per slot, sorted by (sequence number, source): each
      // replica's order is its arrival order, and cross-key interleaving
      // is unobservable (probes unify on the partition key first).
      struct SrcEntry {
        uint64_t seq;
        size_t source;
        size_t pos;
        SlotEntryRecord entry;
      };
      for (int slot = 0; slot < 2; ++slot) {
        std::vector<SrcEntry> entries;
        for (const Ref& r : keyed) {
          const auto& src_slot = r.rec->slots[slot];
          posmap[{r.source, key}][slot].assign(src_slot.size(), kDropped);
          for (size_t pos = 0; pos < src_slot.size(); ++pos) {
            entries.push_back(SrcEntry{seq_of(r.source, src_slot[pos].instance),
                                       r.source, pos, src_slot[pos]});
          }
        }
        std::sort(entries.begin(), entries.end(),
                  [](const SrcEntry& a, const SrcEntry& b) {
                    return std::tie(a.seq, a.source) < std::tie(b.seq, b.source);
                  });
        merged.slots[slot].reserve(entries.size());
        for (const SrcEntry& e : entries) {
          posmap[{e.source, key}][slot][e.pos] =
              static_cast<uint32_t>(merged.slots[slot].size());
          SlotEntryRecord entry = e.entry;
          entry.instance += offset[e.source];
          merged.slots[slot].push_back(entry);
        }
      }
      std::vector<std::tuple<uint64_t, size_t, uint32_t>> log_entries;
      for (const Ref& r : keyed) {
        for (uint32_t inst : r.rec->not_log) {
          log_entries.emplace_back(seq_of(r.source, inst), r.source,
                                   inst + offset[r.source]);
        }
      }
      std::sort(log_entries.begin(), log_entries.end());
      merged.not_log.reserve(log_entries.size());
      for (const auto& [seq, s, inst] : log_entries) {
        merged.not_log.push_back(inst);
      }
      for (const Ref& r : keyed) {
        for (const RunRecord& run : r.rec->runs) {
          RunRecord copy = run;
          for (uint32_t& element : copy.elements) element += offset[r.source];
          merged.runs.push_back(std::move(copy));
        }
      }
    }
    out.nodes.push_back(std::move(merged));
  }

  // Merge pseudo queues by (execute_at, stamp): the stamps encode each
  // pseudo's serial scheduling position, so this is exactly the serial
  // FIFO order the queue would hold in an unsharded run.
  struct PRef {
    size_t source;
    size_t pos;
    const PseudoRecord* rec;
  };
  std::vector<PRef> prefs;
  for (size_t s = 0; s < sources.size(); ++s) {
    for (size_t p = 0; p < sources[s].pseudos.size(); ++p) {
      prefs.push_back(PRef{s, p, &sources[s].pseudos[p]});
    }
  }
  std::sort(prefs.begin(), prefs.end(), [](const PRef& a, const PRef& b) {
    return std::tie(a.rec->execute_at, a.rec->stamp, a.source, a.pos) <
           std::tie(b.rec->execute_at, b.rec->stamp, b.source, b.pos);
  });
  out.pseudos.reserve(prefs.size());
  for (const PRef& p : prefs) {
    PseudoRecord rec = *p.rec;
    if (rec.anchor_kind == AnchorKind::kLive) {
      uint32_t merged_pos = kDropped;
      auto it = posmap.find({p.source, std::string_view(rec.parent_key)});
      if (it != posmap.end()) {
        const std::vector<uint32_t>& slot_map = it->second[rec.anchor_slot];
        if (rec.anchor_pos < slot_map.size()) {
          merged_pos = slot_map[rec.anchor_pos];
        }
      }
      if (merged_pos == kDropped) {
        rec.anchor_kind = AnchorKind::kStale;
        rec.anchor_slot = 0;
        rec.anchor_pos = 0;
      } else {
        rec.anchor_pos = merged_pos;
      }
    }
    out.pseudos.push_back(std::move(rec));
  }
  out.pseudo_counter = out.pseudos.size();
  return out;
}

}  // namespace rfidcep::engine::snapshot
