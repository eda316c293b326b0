#include "server/protocol.h"

#include "common/byte_codec.h"

namespace rfidcep::server {
namespace {

using common::ByteReader;
using common::ByteWriter;

// Builds one frame of `type` in place: the header, the type byte, then
// whatever `body` writes.
template <typename BodyFn>
std::string Framed(FrameType type, BodyFn&& body) {
  std::string out;
  const size_t start = common::BeginFrame(&out);
  ByteWriter w(&out);
  w.U8(static_cast<uint8_t>(type));
  body(w);
  common::EndFrame(&out, start);
  return out;
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed ") + what + " body");
}

}  // namespace

std::string EncodeHello(std::string_view tenant) {
  std::string out;
  ByteWriter w(&out);
  w.U32(kProtocolMagic);
  w.U16(kProtocolVersion);
  w.Str16(tenant);
  return out;
}

std::string EncodeFrame(FrameType type, std::string_view body) {
  return Framed(type, [&](ByteWriter& w) { w.Bytes(body); });
}

std::string EncodeBatch(const std::vector<events::Observation>& batch) {
  return Framed(FrameType::kBatch, [&](ByteWriter& w) {
    w.U32(static_cast<uint32_t>(batch.size()));
    for (const events::Observation& obs : batch) {
      w.Str16(obs.reader);
      w.Str16(obs.object);
      w.I64(obs.timestamp);
    }
  });
}

std::string EncodeAdvance(TimePoint t) {
  return Framed(FrameType::kAdvance, [&](ByteWriter& w) { w.I64(t); });
}

std::string EncodeAck(uint64_t seq) {
  return Framed(FrameType::kAck, [&](ByteWriter& w) { w.U64(seq); });
}

std::string EncodeError(const Status& status) {
  return Framed(FrameType::kError, [&](ByteWriter& w) {
    w.U32(static_cast<uint32_t>(status.code()));
    w.Str32(status.message());
  });
}

std::string EncodeStatsReply(const StatsReply& stats) {
  return Framed(FrameType::kStatsReply, [&](ByteWriter& w) {
    w.U64(stats.observations);
    w.U64(stats.matches);
    w.U64(stats.rules_fired);
    w.U64(stats.sql_actions);
    w.U64(stats.procedures);
    w.U32(static_cast<uint32_t>(stats.fired.size()));
    for (const auto& [rule_id, count] : stats.fired) {
      w.Str16(rule_id);
      w.U64(count);
    }
  });
}

Status DecodeBatch(std::string_view body,
                   std::vector<events::Observation>* out) {
  ByteReader r(body);
  // Each observation costs at least u16+u16+i64 = 12 bytes.
  const uint32_t count = r.Count(12);
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; r.ok() && i < count; ++i) {
    events::Observation obs;
    obs.reader = r.Str16();
    obs.object = r.Str16();
    obs.timestamp = r.I64();
    out->push_back(std::move(obs));
  }
  if (!r.AtEnd()) return Malformed("batch");
  return Status::Ok();
}

Status DecodeAdvance(std::string_view body, TimePoint* out) {
  ByteReader r(body);
  *out = r.I64();
  if (!r.AtEnd()) return Malformed("advance");
  return Status::Ok();
}

Status DecodeAck(std::string_view body, uint64_t* out) {
  ByteReader r(body);
  *out = r.U64();
  if (!r.AtEnd()) return Malformed("ack");
  return Status::Ok();
}

Status DecodeError(std::string_view body, Status* out) {
  ByteReader r(body);
  const uint32_t code = r.U32();
  std::string message(r.Str32());
  if (!r.AtEnd()) return Malformed("error");
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::Ok();
}

Status DecodeStatsReply(std::string_view body, StatsReply* out) {
  ByteReader r(body);
  out->observations = r.U64();
  out->matches = r.U64();
  out->rules_fired = r.U64();
  out->sql_actions = r.U64();
  out->procedures = r.U64();
  // Each entry costs at least u16+u64 = 10 bytes.
  const uint32_t count = r.Count(10);
  out->fired.clear();
  out->fired.reserve(count);
  for (uint32_t i = 0; r.ok() && i < count; ++i) {
    std::string rule_id(r.Str16());
    const uint64_t fired = r.U64();
    out->fired.emplace_back(std::move(rule_id), fired);
  }
  if (!r.AtEnd()) return Malformed("stats reply");
  return Status::Ok();
}

void FrameReader::Feed(std::string_view bytes) {
  if (!error_.empty()) return;  // Failed streams never resynchronize.
  // Compact once the consumed prefix dominates, so the buffer does not
  // grow with connection lifetime.
  if (pos_ > 0 && (pos_ >= buffer_.size() || pos_ > (64u << 10))) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes);
}

DecodeResult FrameReader::Fail(std::string message) {
  error_ = std::move(message);
  return DecodeResult::kError;
}

DecodeResult FrameReader::Next(Frame* out) {
  if (!error_.empty()) return DecodeResult::kError;
  const common::ParsedFrame frame = common::ParseFrame(
      std::string_view(buffer_).substr(pos_), kMaxFrameBytes);
  switch (frame.check) {
    case common::FrameCheck::kFrame:
      break;
    case common::FrameCheck::kNeedMore:
      return DecodeResult::kNeedMore;
    case common::FrameCheck::kEmpty:
      return Fail("empty frame payload");
    case common::FrameCheck::kOversized:
      return Fail("oversized frame: " + std::to_string(frame.length) +
                  " bytes (cap " + std::to_string(kMaxFrameBytes) + ")");
    case common::FrameCheck::kCrcMismatch:
      return Fail("frame CRC mismatch");
  }
  const uint8_t type = static_cast<uint8_t>(frame.payload[0]);
  const bool known =
      (type >= static_cast<uint8_t>(FrameType::kBatch) &&
       type <= static_cast<uint8_t>(FrameType::kPing)) ||
      (type >= static_cast<uint8_t>(FrameType::kAck) &&
       type <= static_cast<uint8_t>(FrameType::kStatsReply));
  if (!known) return Fail("unknown frame type " + std::to_string(type));
  out->type = static_cast<FrameType>(type);
  out->body.assign(frame.payload.substr(1));
  pos_ += kFrameHeaderBytes + frame.length;
  return DecodeResult::kItem;
}

DecodeResult DecodeHello(std::string_view buffer, Hello* out, size_t* consumed,
                         std::string* error) {
  if (buffer.size() < kHelloPrefixBytes) return DecodeResult::kNeedMore;
  ByteReader r(buffer.substr(0, kHelloPrefixBytes));
  const uint32_t magic = r.U32();
  const uint16_t version = r.U16();
  const uint16_t tenant_len = r.U16();
  if (magic != kProtocolMagic) {
    *error = "bad protocol magic";
    return DecodeResult::kError;
  }
  if (version != kProtocolVersion) {
    *error = "unsupported protocol version " + std::to_string(version);
    return DecodeResult::kError;
  }
  if (tenant_len == 0 || tenant_len > kMaxTenantNameBytes) {
    *error = "tenant name length " + std::to_string(tenant_len) +
             " out of range";
    return DecodeResult::kError;
  }
  if (buffer.size() - kHelloPrefixBytes < tenant_len) {
    return DecodeResult::kNeedMore;
  }
  out->version = version;
  out->tenant.assign(buffer.substr(kHelloPrefixBytes, tenant_len));
  *consumed = kHelloPrefixBytes + tenant_len;
  return DecodeResult::kItem;
}

}  // namespace rfidcep::server
