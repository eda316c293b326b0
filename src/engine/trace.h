// Structured trace sink: event-instance lifecycles as JSONL.
//
// When attached to an engine (RcedaEngine::SetTraceSink, before
// Compile), the sink receives one JSON object per line for every stage
// of an instance's life:
//
//   {"k":"obs", "seq":N, "reader":..., "object":..., "t":usec}
//   {"k":"node","shard":0,"node":ID,"mode":...,"t0":...,"t1":...,
//    "iseq":instance-seq}                      (graph-node activation)
//   {"k":"pseudo","shard":0,"node":ID,"exec":...,"created":...}
//   {"k":"match","rule":...,"t0":...,"t1":...,"fire":...}
//   {"k":"cond","rule":...,"held":true|false}
//   {"k":"action","rule":...,"kind":"sql"|"proc","ok":true|false}
//
// Timestamps are event time in integer microseconds (the engine's
// logical clock), so a trace replayed against the same rule set is
// bit-identical run to run — the point of the format: diff two traces to
// localize where a detection diverged, or feed one to tooling that
// reconstructs per-instance timelines. Records are written in engine
// order; writers serialize through the sink's mutex, so several engines
// may share one sink (tracing is a debugging facility — when the sink is
// detached the hot path only tests a null pointer). The "shard" field is
// always 0; it stays so existing trace readers keep parsing.

#ifndef RFIDCEP_ENGINE_TRACE_H_
#define RFIDCEP_ENGINE_TRACE_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "common/time.h"
#include "events/event_instance.h"
#include "events/observation.h"

namespace rfidcep::engine {

class TraceSink {
 public:
  // Every completed JSONL line (no trailing newline) is passed to
  // `write`; the callback runs under the sink's mutex.
  using WriteFn = std::function<void(std::string_view line)>;

  explicit TraceSink(WriteFn write) : write_(std::move(write)) {}
  // Convenience: append lines to `out` (not owned; must outlive the sink).
  explicit TraceSink(std::ostream* out)
      : TraceSink([out](std::string_view line) {
          out->write(line.data(), static_cast<std::streamsize>(line.size()));
          out->put('\n');
        }) {}

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void RecordObservation(uint64_t seq, const events::Observation& obs);
  void RecordNodeActivation(int node_id, std::string_view mode,
                            const events::EventInstance& instance);
  void RecordPseudoFired(int node_id, TimePoint execute_at,
                         TimePoint created_at);
  void RecordMatch(std::string_view rule_id,
                   const events::EventInstance& instance, TimePoint fire_time);
  void RecordCondition(std::string_view rule_id, bool held);
  void RecordAction(std::string_view rule_id, std::string_view kind, bool ok);
  // Checkpoint / restore marker: `op` is "checkpoint" or "restore",
  // `bytes` the encoded snapshot size, `clock` the capture clock,
  // `shards` the snapshot's source_shards (1 = a serial capture; more
  // only when restoring a checkpoint written by an older sharded build).
  void RecordSnapshot(std::string_view op, uint64_t bytes, TimePoint clock,
                      int shards);

  uint64_t records() const;

  // JSON string escaping for the fields above (exposed for tests).
  static std::string EscapeJson(std::string_view s);

 private:
  void Write(std::string line);

  mutable std::mutex mu_;
  WriteFn write_;
  uint64_t records_ = 0;
};

}  // namespace rfidcep::engine

#endif  // RFIDCEP_ENGINE_TRACE_H_
