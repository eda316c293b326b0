// Write-ahead log for executed rule-action effects.
//
// The in-memory Database vanishes on crash, so checkpoint/restore of
// detector state (docs/recovery.md) is not enough to resume a stream:
// the *effects* of fired rules must be reconstructible too. The WAL
// records every successfully executed SQL action — statement text plus
// the parameter bindings it ran with — as length-prefixed, CRC-checked,
// LSN-stamped records in rotating segment files. Replaying the log into
// a fresh Database in LSN order rebuilds the exact store contents.
// Procedure and alarm invocations are logged too (kProcedure/kAlarm
// frames): they carry no store effect and are skipped by replay, but
// their dedup keys stop recovery from re-firing the callback.
//
// Each record also carries the firing's rule, its per-rule firing
// sequence number, and the action's index within the firing. Together
// they form a dedup key (WalActionKey): after a restore, the engine
// re-derives post-checkpoint firings deterministically — per-rule
// emission order is the layout-independent guarantee, which is why the
// sequence is per rule rather than engine-wide — and the dispatcher
// skips any action whose key already appears in the recovered log. This
// is what makes effects exactly-once across a crash, even when the
// recovering engine runs a different dispatch mode or shard layout
// (docs/recovery.md "Exactly-once effects").
//
// Crash tolerance: a torn write can only damage the tail of the final
// segment. Open() validates every record, truncates a torn or corrupt
// tail in the last segment, and treats corruption in any earlier
// segment as an unrecoverable error.

#ifndef RFIDCEP_STORE_WAL_H_
#define RFIDCEP_STORE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "store/sql_executor.h"

namespace rfidcep::store {

class Database;

// When appended records reach the OS and the disk.
enum class FsyncPolicy : uint8_t {
  kNone = 0,      // write() only; a crash may lose the unsynced suffix.
  kOnRotate = 1,  // fsync when a segment closes (and on explicit Sync()).
  kEveryAppend = 2,  // fsync after every record.
};

struct WalOptions {
  uint64_t segment_bytes = 4u << 20;  // Rotate when a segment reaches this.
  FsyncPolicy fsync = FsyncPolicy::kOnRotate;
};

// What kind of effect a record describes. kSql records re-execute on
// store replay; kProcedure/kAlarm records exist for dedup only (the
// callback already ran — replay never re-invokes it). kAlarm is a
// procedure whose normalized name mentions "alarm", split out so
// operators can audit alarm history separately in the log.
enum class WalRecordKind : uint8_t {
  kSql = 0,
  kProcedure = 1,
  kAlarm = 2,
};

// One executed action. `lsn` is assigned by Append (sequential from 1).
struct WalRecord {
  WalRecordKind kind = WalRecordKind::kSql;
  uint64_t lsn = 0;
  uint64_t action_seq = 0;    // Per-rule firing sequence number.
  uint32_t action_index = 0;  // Index of the action within its firing.
  uint32_t affected = 0;      // Rows written by the original execution.
  std::string rule_id;
  std::string sql;            // Statement text, or the procedure name.
  ParamMap params;            // Bindings the action ran with.
};

// Dedup key for exactly-once dispatch: rule + per-rule firing sequence +
// action index. The sequence is per rule because only per-rule emission
// order is deterministic across shard layouts; an engine-wide number
// would stop deduplicating when the recovering engine is partitioned
// differently from the crashed one.
inline std::string WalActionKey(std::string_view rule_id, uint64_t action_seq,
                                uint32_t action_index) {
  std::string key(rule_id);
  key += '\x1f';
  key += std::to_string(action_seq);
  key += '\x1f';
  key += std::to_string(action_index);
  return key;
}

// WalActionKey -> rows affected, for crediting logical write counters
// when a deduplicated action is skipped.
using WalActionMap = std::unordered_map<std::string, uint32_t>;

class Wal {
 public:
  // Opens the log in `dir` (created if missing), scans existing
  // segments, truncates a torn tail in the final segment, and collects
  // the executed-action dedup map. Fails on corruption anywhere before
  // the final segment's tail.
  static Result<std::unique_ptr<Wal>> Open(std::string dir,
                                           WalOptions options = {});

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Appends one record, assigning and returning its LSN. Thread-safe.
  // Records are buffered in memory (unless the fsync policy is
  // kEveryAppend) so a run of appends costs one write(): callers mark
  // durability points with Sync().
  Result<uint64_t> Append(WalRecord record);

  // Flushes and fsyncs everything appended so far. Thread-safe.
  Status Sync();

  // Invokes `fn` for every record with lsn > after_lsn, in LSN order.
  // Thread-safe with respect to concurrent Append.
  Status Replay(uint64_t after_lsn,
                const std::function<Status(const WalRecord&)>& fn) const;

  // Highest LSN appended (or recovered), 0 when empty. Thread-safe.
  uint64_t last_lsn() const;
  // Total bytes across all segments after the last append. Thread-safe.
  uint64_t total_bytes() const;

  // State found by the Open() scan (immutable afterwards).
  uint64_t recovered_lsn() const { return recovered_lsn_; }
  const WalActionMap& recovered_actions() const { return recovered_actions_; }

  const std::string& dir() const { return dir_; }

 private:
  Wal(std::string dir, WalOptions options);

  Status ScanExisting();          // Open-time validation + torn-tail trim.
  // Creates a fresh segment file. Const because rotation happens from
  // const flush paths; only touches mutable append state.
  Status OpenSegment(uint64_t first_lsn) const;
  Status RotateLocked() const;
  Status FlushLocked() const;
  Status SyncLocked() const;

  const std::string dir_;
  const WalOptions options_;

  uint64_t recovered_lsn_ = 0;
  WalActionMap recovered_actions_;

  // Append state is mutable so const readers (Replay, total_bytes) can
  // flush the append buffer under mu_ before looking at the files.
  mutable std::mutex mu_;
  mutable int fd_ = -1;           // Current segment, append-only.
  mutable std::string segment_path_;
  mutable std::string buffer_;    // Encoded frames not yet written.
  mutable uint64_t segment_bytes_ = 0;  // Current segment incl. buffer.
  mutable uint64_t sealed_bytes_ = 0;   // Total size of sealed segments.
  mutable uint64_t next_lsn_ = 1;
  mutable Status io_error_;       // Sticky first write failure.
};

// Replays every logged SQL statement with lsn > after_lsn into `db`,
// rebuilding store contents; kProcedure/kAlarm records advance the
// cursor without re-invoking anything. Returns the last visited LSN
// (or `after_lsn` when the log holds nothing newer, which makes a
// second replay with the returned cursor a no-op).
Result<uint64_t> ReplayWalIntoDatabase(const Wal& wal, Database* db,
                                       uint64_t after_lsn = 0);

}  // namespace rfidcep::store

#endif  // RFIDCEP_STORE_WAL_H_
