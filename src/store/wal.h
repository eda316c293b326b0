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
// they form a dedup key (WalActionSet): after a restore, the engine
// re-derives post-checkpoint firings deterministically, and the
// dispatcher skips any action whose key already appears in the recovered
// log. This is what makes effects exactly-once across a crash
// (docs/recovery.md "Exactly-once effects").
//
// Recovery is one walk over the log: Open() reads each segment once,
// checks every record's CRC and LSN continuity, decodes it once, adds
// its key to the dedup set and, given a store, replays it there.
//
// Crash tolerance: a torn write can only damage the tail of the final
// segment. Open() validates every record, truncates a torn or corrupt
// tail in the last segment, and treats corruption in any earlier
// segment — or a segment it cannot read in full — as an unrecoverable
// error.

#ifndef RFIDCEP_STORE_WAL_H_
#define RFIDCEP_STORE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
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

// The executed-action dedup set recovered from the log. A key is rule
// id + per-rule firing sequence + action index. The sequence is per
// rule (the rule's fired ordinal, which snapshots carry); logs written
// by older sharded builds, whose only layout-independent order was per
// rule, key their records the same way. Each rule id is stored once,
// with its keys sorted; each key keeps the rows its logged execution
// affected (the last record's, if the log holds the key twice), for
// crediting logical write counters when a deduplicated action is
// skipped.
class WalActionSet {
 public:
  struct Entry {
    uint64_t seq = 0;
    uint32_t index = 0;
    uint32_t affected = 0;
  };
  // One rule's entries, sorted by (seq, index), one per key.
  using RuleEntries = std::vector<Entry>;

  // The entries of `rule_id` when the log may hold a key of that
  // firing: null when the rule has no entries or `seq` is above its
  // highest recovered sequence.
  const RuleEntries* Candidates(std::string_view rule_id, uint64_t seq) const;
  // Rows affected by the logged action (seq, index) among `entries`;
  // nullopt when it is not there.
  static std::optional<uint32_t> Find(const RuleEntries& entries,
                                      uint64_t seq, uint32_t index);
  // Both steps: rows affected by the logged action, or nullopt.
  std::optional<uint32_t> Find(std::string_view rule_id, uint64_t seq,
                               uint32_t index) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  friend class Wal;

  // Builds the set from records added in LSN order; Seal() sorts each
  // rule's entries and keeps the last record of a repeated key.
  void Add(std::string_view rule_id, uint64_t seq, uint32_t index,
           uint32_t affected);
  void Seal();

  StringViewMap<RuleEntries> rules_;
  uint64_t max_seq_ = 0;  // Over every rule: a cheap first cut-off.
  size_t size_ = 0;
};

class Wal {
 public:
  // Opens the log in `dir` (created if missing) in one walk over its
  // segments: validates every record, truncates a torn tail in the
  // final segment, collects the executed-action dedup set and, when
  // `replay_into` is non-null, replays every logged SQL statement into
  // that store (the one-pass recovery; null only scans). Fails on
  // corruption anywhere before the final segment's tail, on a segment
  // it cannot read in full, and on a statement the store rejects — in
  // which case the store holds a prefix of the log.
  static Result<std::unique_ptr<Wal>> Open(std::string dir,
                                           WalOptions options = {},
                                           Database* replay_into = nullptr);

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
  const WalActionSet& recovered_actions() const { return recovered_actions_; }

  const std::string& dir() const { return dir_; }

 private:
  Wal(std::string dir, WalOptions options);

  // Open-time walk: validation, dedup set, optional store replay and
  // torn-tail trim.
  Status ScanExisting(Database* replay_into);
  // Creates a fresh segment file. Const because rotation happens from
  // const flush paths; only touches mutable append state.
  Status OpenSegment(uint64_t first_lsn) const;
  Status RotateLocked() const;
  Status FlushLocked() const;
  Status SyncLocked() const;

  const std::string dir_;
  const WalOptions options_;

  uint64_t recovered_lsn_ = 0;
  WalActionSet recovered_actions_;

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
// second replay with the returned cursor a no-op). Uses the same walker
// and statement cache as the one-pass Open().
Result<uint64_t> ReplayWalIntoDatabase(const Wal& wal, Database* db,
                                       uint64_t after_lsn = 0);

}  // namespace rfidcep::store

#endif  // RFIDCEP_STORE_WAL_H_
