#include "store/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/byte_codec.h"
#include "common/durable_file.h"
#include "store/database.h"
#include "store/sql_parser.h"

namespace rfidcep::store {
namespace {

namespace fs = std::filesystem;

constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".seg";
// Records are CRC frames (common/byte_codec.h). Generous per-record cap;
// anything larger is treated as corruption.
constexpr uint32_t kMaxPayloadBytes = 64u << 20;

std::string SegmentName(uint64_t first_lsn) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%020" PRIu64 "%s", kSegmentPrefix,
                first_lsn, kSegmentSuffix);
  return buf;
}

// Action parameters: u32 count, then per parameter in name order: u32-length
// name, u8 is_multi, then one value, or a u32 count and that many values,
// each in the store's value codec (PutValue, store/value.h).
//
// Minimum encoded sizes, the floors for decoded counts: a value is at
// least its tag; a parameter is a name length, the multi flag and a tag.
constexpr size_t kMinParamBytes = 4 + 1 + kMinValueBytes;

// Decoded parameters outweigh their encoding: a 1-byte NULL decodes to a
// sizeof(Value) (40-byte) value and a 6-byte parameter to a
// sizeof(ParamMap::value_type) (104-byte) entry. So beside the count
// floors, a record's decoded parameters, counted at those sizes, may take
// at most kMaxDecodeExpansion bytes per payload byte; a record past that
// bound is corrupt, and Append refuses to write one. Strings cost at most
// their encoded bytes, so decoding a forged record allocates at most about
// ten times its size. The string and time values bindings carry encode to
// 5 and 9 bytes or more, so records the engine writes stay inside.
constexpr size_t kMaxDecodeExpansion = 8;

size_t DecodeBudget(size_t payload_bytes) {
  return kMaxDecodeExpansion * payload_bytes;
}

// What decoding `params` takes, as the bound counts it.
size_t DecodedBytes(const ParamMap& params) {
  size_t bytes = params.size() * sizeof(ParamMap::value_type);
  for (const auto& [name, param] : params) {
    if (param.is_multi) bytes += param.values.size() * sizeof(Value);
  }
  return bytes;
}

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

// Replaces *out with the parameters decoded from a record of
// `payload_bytes`. Names arriving out of order or repeated come out
// sorted, the first of a name kept, as std::map::emplace kept them.
void GetParams(common::ByteReader& r, size_t payload_bytes, ParamMap* out) {
  const size_t budget = DecodeBudget(payload_bytes);
  size_t used = 0;
  // Takes n elements of `unit` bytes from the budget, or fails the read.
  auto charge = [&](size_t n, size_t unit) {
    if (n > (budget - used) / unit) {
      r.Fail("parameters past the record's decode bound");
      return false;
    }
    used += n * unit;
    return true;
  };
  const uint32_t count = r.Count(kMinParamBytes);
  if (!charge(count, sizeof(ParamMap::value_type))) return;
  std::vector<ParamMap::value_type> entries;
  entries.reserve(count);
  for (uint32_t i = 0; r.ok() && i < count; ++i) {
    auto& [name, param] = entries.emplace_back(std::string(r.Str32()),
                                               ParamValue{});
    param.is_multi = r.U8() != 0;
    if (param.is_multi) {
      const uint32_t n = r.Count(kMinValueBytes);
      if (!charge(n, sizeof(Value))) return;
      param.values.resize(n);
      for (Value& v : param.values) v = GetValue(r);
    } else {
      param.scalar = GetValue(r);
    }
  }
  if (r.ok()) *out = ParamMap(std::move(entries));
}

void EncodeRecord(const WalAppend& record, uint64_t lsn,
                  common::ByteWriter& w) {
  w.U8(static_cast<uint8_t>(record.kind));
  w.U64(lsn);
  w.U64(record.action_seq);
  w.U32(record.action_index);
  w.U32(record.affected);
  w.Str32(record.rule_id);
  w.Str32(record.sql);
  PutParams(w, record.params);
}

// Decodes into `*out`, reusing its string buffers across records.
bool DecodeRecord(std::string_view payload, WalRecord* out) {
  common::ByteReader r(payload);
  const uint8_t kind = r.U8();
  if (kind > static_cast<uint8_t>(WalRecordKind::kAlarm)) return false;
  out->kind = static_cast<WalRecordKind>(kind);
  out->lsn = r.U64();
  out->action_seq = r.U64();
  out->action_index = r.U32();
  out->affected = r.U32();
  out->rule_id.assign(r.Str32());
  out->sql.assign(r.Str32());
  GetParams(r, payload.size(), &out->params);
  return r.AtEnd();
}

using RecordFn = std::function<Status(const WalRecord&)>;

// The one walker: checks each record of one segment (frame bounds, CRC,
// LSN continuity), decodes it once into `*record` and hands it to
// `on_record`. `*valid` ends at the byte offset of the first invalid
// record (data.size() when the whole segment is valid);
// `*expected_lsn` advances past each valid record. A callback error
// stops the walk and is returned.
Status WalkSegment(std::string_view data, uint64_t* expected_lsn,
                   WalRecord* record, const RecordFn& on_record,
                   size_t* valid) {
  size_t offset = 0;
  while (offset < data.size()) {
    const common::ParsedFrame frame =
        common::ParseFrame(data.substr(offset), kMaxPayloadBytes);
    if (frame.check != common::FrameCheck::kFrame) break;
    if (!DecodeRecord(frame.payload, record)) break;
    if (record->lsn != *expected_lsn) break;
    ++*expected_lsn;
    RFIDCEP_RETURN_IF_ERROR(on_record(*record));
    offset += common::kFrameHeaderBytes + frame.length;
  }
  *valid = offset;
  return Status::Ok();
}

// The one SQL applier: re-executes logged kSql records against a store,
// parsing each distinct statement text once per walk. kProcedure and
// kAlarm records have no store effect.
class StoreReplayer {
 public:
  explicit StoreReplayer(Database* db) : db_(db) {}

  Status Apply(const WalRecord& record) {
    if (record.kind != WalRecordKind::kSql) return Status::Ok();
    auto it = statements_.find(std::string_view(record.sql));
    if (it == statements_.end()) {
      Result<SqlStatement> parsed = ParseSql(record.sql);
      if (!parsed.ok()) return Failed(record, parsed.status());
      it = statements_.emplace(record.sql, std::move(*parsed)).first;
    }
    Result<ExecResult> result = ExecuteSql(it->second, db_, record.params);
    if (!result.ok()) return Failed(record, result.status());
    return Status::Ok();
  }

 private:
  static Status Failed(const WalRecord& record, const Status& status) {
    return Status(status.code(), "replaying wal lsn " +
                                     std::to_string(record.lsn) + " (" +
                                     record.sql + "): " + status.message());
  }

  Database* db_;
  StringViewMap<SqlStatement> statements_;
};

// One segment file: its name and the LSN its name says it starts at.
struct Segment {
  std::string name;
  uint64_t first_lsn = 0;
};

// The segments in `dir`, in LSN order: the files named
// wal-<decimal LSN>.seg. A file named so whose name holds no LSN is an
// error, since the names carry the log's first LSN.
Status ListSegments(const std::string& dir, std::vector<Segment>* segments) {
  constexpr size_t kPrefix = sizeof(kSegmentPrefix) - 1;
  constexpr size_t kSuffix = sizeof(kSegmentSuffix) - 1;
  segments->clear();
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::string name = it->path().filename().string();
    if (name.size() < kPrefix + kSuffix ||
        name.compare(0, kPrefix, kSegmentPrefix) != 0 ||
        name.compare(name.size() - kSuffix, kSuffix, kSegmentSuffix) != 0) {
      continue;
    }
    const char* first = name.data() + kPrefix;
    const char* last = name.data() + name.size() - kSuffix;
    uint64_t lsn = 0;
    const auto [stop, error] = std::from_chars(first, last, lsn);
    if (error != std::errc() || stop != last || lsn == 0) {
      return Status::InvalidArgument("wal segment name " + dir + "/" + name +
                                     " holds no LSN");
    }
    segments->push_back(Segment{std::move(name), lsn});
  }
  if (ec) {
    return Status::Internal("cannot list wal directory " + dir + ": " +
                            ec.message());
  }
  std::sort(segments->begin(), segments->end(),
            [](const Segment& a, const Segment& b) {
              return a.first_lsn < b.first_lsn;
            });
  return Status::Ok();
}

// A segment must start where the one before it ended: a name past that
// means a segment between them is gone.
Status CheckSegmentStart(const std::string& path, const Segment& segment,
                         uint64_t expected_lsn) {
  if (segment.first_lsn == expected_lsn) return Status::Ok();
  return Status::InvalidArgument(
      "wal segment " + path + " starts at LSN " +
      std::to_string(segment.first_lsn) + " but the log continues at LSN " +
      std::to_string(expected_lsn));
}

bool KeyLess(const WalActionSet::Entry& a, const WalActionSet::Entry& b) {
  return a.seq != b.seq ? a.seq < b.seq : a.index < b.index;
}

}  // namespace

Wal::Wal(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {}

Wal::~Wal() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::unique_ptr<Wal>> Wal::Open(std::string dir, WalOptions options,
                                       Database* replay_into,
                                       uint64_t replay_after) {
  RFIDCEP_RETURN_IF_ERROR(common::CreateDirectories(dir));
  std::unique_ptr<Wal> wal(new Wal(std::move(dir), options));
  RFIDCEP_RETURN_IF_ERROR(wal->ScanExisting(replay_into, replay_after));
  return wal;
}

Result<uint64_t> Wal::FirstLsn(const std::string& dir) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) return uint64_t{1};
  std::vector<Segment> segments;
  RFIDCEP_RETURN_IF_ERROR(ListSegments(dir, &segments));
  return segments.empty() ? 1 : segments.front().first_lsn;
}

Status Wal::ScanExisting(Database* replay_into, uint64_t replay_after) {
  std::optional<StoreReplayer> store;
  if (replay_into != nullptr) store.emplace(replay_into);
  const RecordFn on_record = [&](const WalRecord& r) {
    recovered_actions_.Add(r.rule_id, r.action_seq, r.action_index,
                           r.affected);
    return store.has_value() && r.lsn > replay_after ? store->Apply(r)
                                                     : Status::Ok();
  };
  std::vector<Segment> segments;
  RFIDCEP_RETURN_IF_ERROR(ListSegments(dir_, &segments));
  // A trimmed log starts past 1; its first segment's name says where.
  uint64_t expected_lsn = segments.empty() ? 1 : segments[0].first_lsn;
  first_lsn_ = expected_lsn;
  std::string data;
  WalRecord record;
  for (size_t i = 0; i < segments.size(); ++i) {
    const std::string path = dir_ + "/" + segments[i].name;
    RFIDCEP_RETURN_IF_ERROR(CheckSegmentStart(path, segments[i], expected_lsn));
    RFIDCEP_RETURN_IF_ERROR(common::ReadFile(path, &data));
    const bool final_segment = i + 1 == segments.size();
    size_t valid = 0;
    RFIDCEP_RETURN_IF_ERROR(
        WalkSegment(data, &expected_lsn, &record, on_record, &valid));
    if (valid < data.size()) {
      if (!final_segment) {
        return Status::InvalidArgument(
            "wal segment " + path + " is corrupt at offset " +
            std::to_string(valid) + " before the final segment");
      }
      // Torn tail: trim the final segment back to its last valid record.
      std::error_code ec;
      fs::resize_file(path, valid, ec);
      if (ec) {
        return Status::Internal("cannot truncate torn wal tail in " + path +
                                ": " + ec.message());
      }
      data.resize(valid);
    }
    if (final_segment) {
      // Reopen the last segment for appending.
      fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
      if (fd_ < 0) return Errno("cannot reopen wal segment " + path);
      segment_path_ = path;
      segment_bytes_ = data.size();
    } else {
      sealed_bytes_ += data.size();
    }
  }
  recovered_actions_.Seal();
  recovered_lsn_ = expected_lsn - 1;
  next_lsn_ = expected_lsn;
  if (fd_ < 0) RFIDCEP_RETURN_IF_ERROR(OpenSegment(next_lsn_));
  return Status::Ok();
}

Status Wal::OpenSegment(uint64_t first_lsn) const {
  std::string path = dir_ + "/" + SegmentName(first_lsn);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("cannot create wal segment " + path);
  fd_ = fd;
  segment_path_ = std::move(path);
  segment_bytes_ = 0;
  // The segment's name is directory data: without this, a record synced
  // into the segment could vanish with its directory entry.
  return common::SyncDirectory(dir_);
}

Status Wal::FlushLocked() const {
  if (!io_error_.ok()) return io_error_;
  size_t written = 0;
  while (written < buffer_.size()) {
    ssize_t n =
        ::write(fd_, buffer_.data() + written, buffer_.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_error_ = Errno("write " + segment_path_);
      return io_error_;
    }
    written += static_cast<size_t>(n);
  }
  buffer_.clear();
  return Status::Ok();
}

Status Wal::RotateLocked() const {
  RFIDCEP_RETURN_IF_ERROR(FlushLocked());
  if (::fsync(fd_) != 0) {
    return Errno("fsync " + segment_path_);
  }
  ::close(fd_);
  fd_ = -1;
  sealed_bytes_ += segment_bytes_;
  return OpenSegment(next_lsn_);
}

Result<uint64_t> Wal::Append(const WalAppend& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!io_error_.ok()) return io_error_;
  if (segment_bytes_ >= options_.segment_bytes) {
    Status rotated = RotateLocked();
    if (!rotated.ok()) {
      io_error_ = rotated;
      return rotated;
    }
  }
  const uint64_t lsn = next_lsn_;
  const size_t start = common::BeginFrame(&buffer_);
  common::ByteWriter w(&buffer_);
  EncodeRecord(record, lsn, w);
  const size_t payload = buffer_.size() - start - common::kFrameHeaderBytes;
  if (payload > kMaxPayloadBytes ||
      DecodedBytes(record.params) > DecodeBudget(payload)) {
    buffer_.resize(start);
    return Status::InvalidArgument(
        "wal record of " + std::to_string(payload) + " bytes for rule '" +
        std::string(record.rule_id) +
        "' is past the size recovery reads back");
  }
  common::EndFrame(&buffer_, start);
  segment_bytes_ += buffer_.size() - start;
  ++next_lsn_;
  // Durability points come from callers via Sync(); the size cap just
  // bounds memory between them.
  constexpr size_t kMaxBufferBytes = 256u << 10;
  if (buffer_.size() >= kMaxBufferBytes) {
    RFIDCEP_RETURN_IF_ERROR(FlushLocked());
  }
  return lsn;
}

Status Wal::SyncLocked() const {
  RFIDCEP_RETURN_IF_ERROR(FlushLocked());
  if (fd_ >= 0 && ::fsync(fd_) != 0) {
    io_error_ = Errno("fsync " + segment_path_);
    return io_error_;
  }
  return Status::Ok();
}

Status Wal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

Status Wal::Replay(uint64_t after_lsn, const RecordFn& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  RFIDCEP_RETURN_IF_ERROR(FlushLocked());  // Replay reads the files.
  std::vector<Segment> segments;
  RFIDCEP_RETURN_IF_ERROR(ListSegments(dir_, &segments));
  const RecordFn after_cursor = [&](const WalRecord& r) {
    return r.lsn <= after_lsn ? Status::Ok() : fn(r);
  };
  uint64_t expected_lsn = segments.empty() ? 1 : segments[0].first_lsn;
  std::string data;
  WalRecord record;
  for (const Segment& segment : segments) {
    const std::string path = dir_ + "/" + segment.name;
    RFIDCEP_RETURN_IF_ERROR(CheckSegmentStart(path, segment, expected_lsn));
    RFIDCEP_RETURN_IF_ERROR(common::ReadFile(path, &data));
    size_t valid = 0;
    RFIDCEP_RETURN_IF_ERROR(
        WalkSegment(data, &expected_lsn, &record, after_cursor, &valid));
    if (valid < data.size()) {
      // Open() already trimmed torn tails, so mid-replay damage means the
      // files changed underneath us.
      return Status::Internal("wal segment " + path +
                              " became invalid at offset " +
                              std::to_string(valid) + " during replay");
    }
  }
  return Status::Ok();
}

Status Wal::Trim(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!io_error_.ok()) return io_error_;
  // Sealing moves appends to a new segment, named for the next LSN, so
  // every record so far sits in a sealed segment that can go, and the
  // new name keeps the LSN cursor when they all do.
  if (segment_bytes_ > 0) {
    Status rotated = RotateLocked();
    if (!rotated.ok()) {
      io_error_ = rotated;
      return rotated;
    }
  }
  std::vector<Segment> segments;
  RFIDCEP_RETURN_IF_ERROR(ListSegments(dir_, &segments));
  // Oldest first, each deletion synced before the next, so that a crash
  // midway leaves the log a suffix of itself. Segment i holds LSNs
  // [first_i, first_{i+1} - 1]; the last one takes appends and stays.
  for (size_t i = 0;
       i + 1 < segments.size() && segments[i + 1].first_lsn <= lsn + 1; ++i) {
    const std::string path = dir_ + "/" + segments[i].name;
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      return Errno("cannot stat wal segment " + path);
    }
    if (::unlink(path.c_str()) != 0) {
      return Errno("cannot delete wal segment " + path);
    }
    sealed_bytes_ -= static_cast<uint64_t>(st.st_size);
    first_lsn_ = segments[i + 1].first_lsn;
    RFIDCEP_RETURN_IF_ERROR(common::SyncDirectory(dir_));
  }
  return Status::Ok();
}

uint64_t Wal::first_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_lsn_;
}

uint64_t Wal::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_ - 1;
}

uint64_t Wal::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_bytes_ + segment_bytes_;
}

Result<uint64_t> ReplayWalIntoDatabase(const Wal& wal, Database* db,
                                       uint64_t after_lsn) {
  StoreReplayer store(db);
  uint64_t last = after_lsn;
  RFIDCEP_RETURN_IF_ERROR(wal.Replay(after_lsn, [&](const WalRecord& record) {
    RFIDCEP_RETURN_IF_ERROR(store.Apply(record));
    last = record.lsn;
    return Status::Ok();
  }));
  return last;
}

void WalActionSet::Add(std::string_view rule_id, uint64_t seq, uint32_t index,
                       uint32_t affected) {
  auto it = rules_.find(rule_id);
  if (it == rules_.end()) {
    it = rules_.emplace(std::string(rule_id), RuleEntries{}).first;
  }
  it->second.push_back(Entry{seq, index, affected});
}

void WalActionSet::Seal() {
  size_ = 0;
  max_seq_ = 0;
  for (auto& [rule_id, entries] : rules_) {
    // Per-rule emission order leaves a rule's records sorted already;
    // the stable sort is for logs that restarted a rule's numbering, and
    // keeps a repeated key's records in LSN order for the pass below.
    if (!std::is_sorted(entries.begin(), entries.end(), KeyLess)) {
      std::stable_sort(entries.begin(), entries.end(), KeyLess);
    }
    size_t kept = 0;
    for (const Entry& entry : entries) {
      if (kept > 0 && !KeyLess(entries[kept - 1], entry)) {
        entries[kept - 1] = entry;  // Repeated key: the last record wins.
      } else {
        entries[kept++] = entry;
      }
    }
    entries.resize(kept);
    entries.shrink_to_fit();
    size_ += kept;
    max_seq_ = std::max(max_seq_, entries.back().seq);
  }
}

const WalActionSet::RuleEntries* WalActionSet::Candidates(
    std::string_view rule_id, uint64_t seq) const {
  if (seq > max_seq_) return nullptr;  // Past every rule (or empty).
  auto it = rules_.find(rule_id);
  if (it == rules_.end() || seq > it->second.back().seq) return nullptr;
  return &it->second;
}

std::optional<uint32_t> WalActionSet::Find(const RuleEntries& entries,
                                           uint64_t seq, uint32_t index) {
  const Entry key{seq, index, 0};
  auto it = std::lower_bound(entries.begin(), entries.end(), key, KeyLess);
  if (it == entries.end() || KeyLess(key, *it)) return std::nullopt;
  return it->affected;
}

std::optional<uint32_t> WalActionSet::Find(std::string_view rule_id,
                                           uint64_t seq,
                                           uint32_t index) const {
  const RuleEntries* entries = Candidates(rule_id, seq);
  if (entries == nullptr) return std::nullopt;
  return Find(*entries, seq, index);
}

}  // namespace rfidcep::store
