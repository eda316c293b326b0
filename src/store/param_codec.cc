#include "store/param_codec.h"

#include <bit>
#include <string>
#include <utility>
#include <vector>

namespace rfidcep::store {
namespace {

// Minimum encoded sizes, the floors for decoded counts: a value is at
// least its tag; a parameter is a name length, the multi flag and a tag.
constexpr size_t kMinValueBytes = 1;
constexpr size_t kMinParamBytes = 4 + 1 + kMinValueBytes;

void PutValue(common::ByteWriter& w, const Value& v) {
  w.U8(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case ValueKind::kNull:
    case ValueKind::kUc:
      break;
    case ValueKind::kInt:
      w.I64(v.AsInt());
      break;
    case ValueKind::kTime:
      w.I64(v.AsTime());
      break;
    case ValueKind::kDouble:
      w.U64(std::bit_cast<uint64_t>(v.AsDouble()));
      break;
    case ValueKind::kString:
      w.Str32(v.AsString());
      break;
  }
}

Value GetValue(common::ByteReader& r) {
  switch (static_cast<ValueKind>(r.U8())) {
    case ValueKind::kNull:
      return Value::Null();
    case ValueKind::kUc:
      return Value::Uc();
    case ValueKind::kInt:
      return Value::Int(r.I64());
    case ValueKind::kTime:
      return Value::Time(r.I64());
    case ValueKind::kDouble:
      return Value::Double(std::bit_cast<double>(r.U64()));
    case ValueKind::kString:
      return Value::String(std::string(r.Str32()));
  }
  r.Fail("unknown store value kind");
  return Value::Null();
}

}  // namespace

void PutParams(common::ByteWriter& w, const ParamMap& params) {
  w.U32(static_cast<uint32_t>(params.size()));
  for (const auto& [name, param] : params) {
    w.Str32(name);
    w.U8(param.is_multi ? 1 : 0);
    if (param.is_multi) {
      w.U32(static_cast<uint32_t>(param.values.size()));
      for (const Value& v : param.values) PutValue(w, v);
    } else {
      PutValue(w, param.scalar);
    }
  }
}

void GetParams(common::ByteReader& r, ParamMap* out) {
  out->clear();
  const uint32_t count = r.Count(kMinParamBytes);
  for (uint32_t i = 0; r.ok() && i < count; ++i) {
    std::string name(r.Str32());
    ParamValue param;
    param.is_multi = r.U8() != 0;
    if (param.is_multi) {
      param.values.resize(r.Count(kMinValueBytes));
      for (Value& v : param.values) v = GetValue(r);
    } else {
      param.scalar = GetValue(r);
    }
    out->emplace_hint(out->end(), std::move(name), std::move(param));
  }
}

}  // namespace rfidcep::store
