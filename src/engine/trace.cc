#include "engine/trace.h"

namespace rfidcep::engine {

namespace {

void AppendField(std::string* out, const char* key, std::string_view value,
                 bool quote) {
  if (out->back() != '{') *out += ',';
  *out += '"';
  *out += key;
  *out += "\":";
  if (quote) {
    *out += '"';
    *out += TraceSink::EscapeJson(value);
    *out += '"';
  } else {
    *out += value;
  }
}

void AppendInt(std::string* out, const char* key, int64_t value) {
  AppendField(out, key, std::to_string(value), /*quote=*/false);
}

void AppendBool(std::string* out, const char* key, bool value) {
  AppendField(out, key, value ? "true" : "false", /*quote=*/false);
}

std::string Begin(const char* kind) {
  std::string out = "{\"k\":\"";
  out += kind;
  out += '"';
  return out;
}

}  // namespace

std::string TraceSink::EscapeJson(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

void TraceSink::Write(std::string line) {
  line += '}';
  std::lock_guard<std::mutex> lock(mu_);
  ++records_;
  write_(line);
}

uint64_t TraceSink::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

void TraceSink::RecordObservation(uint64_t seq,
                                  const events::Observation& obs) {
  std::string line = Begin("obs");
  AppendInt(&line, "seq", static_cast<int64_t>(seq));
  AppendField(&line, "reader", obs.reader, /*quote=*/true);
  AppendField(&line, "object", obs.object, /*quote=*/true);
  AppendInt(&line, "t", obs.timestamp);
  Write(std::move(line));
}

void TraceSink::RecordNodeActivation(int node_id, std::string_view mode,
                                     const events::EventInstance& instance) {
  std::string line = Begin("node");
  AppendInt(&line, "shard", 0);
  AppendInt(&line, "node", node_id);
  AppendField(&line, "mode", mode, /*quote=*/true);
  AppendInt(&line, "t0", instance.t_begin());
  AppendInt(&line, "t1", instance.t_end());
  AppendInt(&line, "iseq", static_cast<int64_t>(instance.sequence_number()));
  Write(std::move(line));
}

void TraceSink::RecordPseudoFired(int node_id, TimePoint execute_at,
                                  TimePoint created_at) {
  std::string line = Begin("pseudo");
  AppendInt(&line, "shard", 0);
  AppendInt(&line, "node", node_id);
  AppendInt(&line, "exec", execute_at);
  AppendInt(&line, "created", created_at);
  Write(std::move(line));
}

void TraceSink::RecordSnapshot(std::string_view op, uint64_t bytes,
                               TimePoint clock) {
  std::string line = Begin("snapshot");
  AppendField(&line, "op", op, /*quote=*/true);
  AppendInt(&line, "bytes", static_cast<int64_t>(bytes));
  AppendInt(&line, "clock", clock);
  Write(std::move(line));
}

void TraceSink::RecordMatch(std::string_view rule_id,
                            const events::EventInstance& instance,
                            TimePoint fire_time) {
  std::string line = Begin("match");
  AppendField(&line, "rule", rule_id, /*quote=*/true);
  AppendInt(&line, "t0", instance.t_begin());
  AppendInt(&line, "t1", instance.t_end());
  AppendInt(&line, "fire", fire_time);
  Write(std::move(line));
}

void TraceSink::RecordCondition(std::string_view rule_id, bool held) {
  std::string line = Begin("cond");
  AppendField(&line, "rule", rule_id, /*quote=*/true);
  AppendBool(&line, "held", held);
  Write(std::move(line));
}

void TraceSink::RecordAction(std::string_view rule_id, std::string_view kind,
                             bool ok) {
  std::string line = Begin("action");
  AppendField(&line, "rule", rule_id, /*quote=*/true);
  AppendField(&line, "kind", kind, /*quote=*/true);
  AppendBool(&line, "ok", ok);
  Write(std::move(line));
}

}  // namespace rfidcep::engine
