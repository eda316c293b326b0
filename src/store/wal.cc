#include "store/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "common/crc32.h"
#include "store/database.h"

namespace rfidcep::store {
namespace {

namespace fs = std::filesystem;

constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".seg";
// Frame header: u32 payload length + u32 CRC32 of the payload.
constexpr size_t kFrameHeader = 8;
// Generous per-record cap; anything larger is treated as corruption.
constexpr uint32_t kMaxPayloadBytes = 64u << 20;

std::string SegmentName(uint64_t first_lsn) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%020" PRIu64 "%s", kSegmentPrefix,
                first_lsn, kSegmentSuffix);
  return buf;
}

using common::Crc32;

// Little-endian payload encoding, mirroring the snapshot codec style.
class Enc {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class Dec {
 public:
  explicit Dec(std::string_view data) : data_(data) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  std::string Str() {
    uint32_t n = U32();
    if (!Need(n)) return {};
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

void PutValue(Enc& enc, const Value& v) {
  enc.U8(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case ValueKind::kNull:
    case ValueKind::kUc:
      break;
    case ValueKind::kInt:
      enc.I64(v.AsInt());
      break;
    case ValueKind::kDouble:
      enc.U64(std::bit_cast<uint64_t>(v.AsDouble()));
      break;
    case ValueKind::kString:
      enc.Str(v.AsString());
      break;
    case ValueKind::kTime:
      enc.I64(v.AsTime());
      break;
  }
}

Value GetValue(Dec& dec) {
  switch (static_cast<ValueKind>(dec.U8())) {
    case ValueKind::kNull:
      return Value::Null();
    case ValueKind::kInt:
      return Value::Int(dec.I64());
    case ValueKind::kDouble:
      return Value::Double(std::bit_cast<double>(dec.U64()));
    case ValueKind::kString:
      return Value::String(dec.Str());
    case ValueKind::kTime:
      return Value::Time(dec.I64());
    case ValueKind::kUc:
      return Value::Uc();
  }
  return Value::Null();  // Dec flags the error via ok().
}

std::string EncodeRecord(const WalRecord& record) {
  Enc enc;
  enc.U8(static_cast<uint8_t>(record.kind));
  enc.U64(record.lsn);
  enc.U64(record.action_seq);
  enc.U32(record.action_index);
  enc.U32(record.affected);
  enc.Str(record.rule_id);
  enc.Str(record.sql);
  enc.U32(static_cast<uint32_t>(record.params.size()));
  for (const auto& [name, param] : record.params) {
    enc.Str(name);
    enc.U8(param.is_multi ? 1 : 0);
    if (param.is_multi) {
      enc.U32(static_cast<uint32_t>(param.values.size()));
      for (const Value& v : param.values) PutValue(enc, v);
    } else {
      PutValue(enc, param.scalar);
    }
  }
  return enc.Take();
}

bool DecodeRecord(std::string_view payload, WalRecord* out) {
  Dec dec(payload);
  uint8_t kind = dec.U8();
  if (kind > static_cast<uint8_t>(WalRecordKind::kAlarm)) return false;
  out->kind = static_cast<WalRecordKind>(kind);
  out->lsn = dec.U64();
  out->action_seq = dec.U64();
  out->action_index = dec.U32();
  out->affected = dec.U32();
  out->rule_id = dec.Str();
  out->sql = dec.Str();
  uint32_t nparams = dec.U32();
  out->params.clear();
  for (uint32_t i = 0; dec.ok() && i < nparams; ++i) {
    std::string name = dec.Str();
    if (dec.U8()) {
      uint32_t count = dec.U32();
      std::vector<Value> values;
      for (uint32_t j = 0; dec.ok() && j < count; ++j) {
        values.push_back(GetValue(dec));
      }
      out->params.emplace(std::move(name), ParamValue::Multi(std::move(values)));
    } else {
      out->params.emplace(std::move(name), ParamValue::Scalar(GetValue(dec)));
    }
  }
  return dec.AtEnd();
}

Status ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open wal segment " + path);
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return Status::Ok();
}

// Walks one segment's records. Returns the byte offset of the first
// invalid record (== data.size() when the whole segment is valid).
// `expected_lsn` advances past each valid record.
size_t WalkSegment(const std::string& data, uint64_t* expected_lsn,
                   const std::function<void(const WalRecord&)>& on_record) {
  size_t offset = 0;
  while (offset < data.size()) {
    if (data.size() - offset < kFrameHeader) return offset;
    Dec header(std::string_view(data).substr(offset, kFrameHeader));
    uint32_t len = header.U32();
    uint32_t crc = header.U32();
    if (len > kMaxPayloadBytes || data.size() - offset - kFrameHeader < len) {
      return offset;
    }
    std::string_view payload(data.data() + offset + kFrameHeader, len);
    if (Crc32(payload.data(), payload.size()) != crc) return offset;
    WalRecord record;
    if (!DecodeRecord(payload, &record)) return offset;
    if (record.lsn != *expected_lsn) return offset;
    ++*expected_lsn;
    if (on_record) on_record(record);
    offset += kFrameHeader + len;
  }
  return offset;
}

std::vector<std::string> ListSegments(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.rfind(kSegmentPrefix, 0) == 0 && name.size() > 4 &&
        name.compare(name.size() - 4, 4, kSegmentSuffix) == 0) {
      names.push_back(std::move(name));
    }
  }
  std::sort(names.begin(), names.end());  // Zero-padded LSN => LSN order.
  return names;
}

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

}  // namespace

Wal::Wal(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {}

Wal::~Wal() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
  if (fd_ >= 0) {
    if (options_.fsync != FsyncPolicy::kNone) ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::unique_ptr<Wal>> Wal::Open(std::string dir, WalOptions options) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create wal directory " + dir + ": " +
                            ec.message());
  }
  std::unique_ptr<Wal> wal(new Wal(std::move(dir), options));
  RFIDCEP_RETURN_IF_ERROR(wal->ScanExisting());
  return wal;
}

Status Wal::ScanExisting() {
  std::vector<std::string> names = ListSegments(dir_);
  uint64_t expected_lsn = 1;
  for (size_t i = 0; i < names.size(); ++i) {
    const std::string path = dir_ + "/" + names[i];
    std::string data;
    RFIDCEP_RETURN_IF_ERROR(ReadFile(path, &data));
    const bool final_segment = i + 1 == names.size();
    size_t valid = WalkSegment(data, &expected_lsn, [&](const WalRecord& r) {
      recovered_actions_[WalActionKey(r.rule_id, r.action_seq,
                                      r.action_index)] =
          r.affected;
    });
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
  return Status::Ok();
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
  if (options_.fsync != FsyncPolicy::kNone && ::fsync(fd_) != 0) {
    return Errno("fsync " + segment_path_);
  }
  ::close(fd_);
  fd_ = -1;
  sealed_bytes_ += segment_bytes_;
  return OpenSegment(next_lsn_);
}

Result<uint64_t> Wal::Append(WalRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!io_error_.ok()) return io_error_;
  if (segment_bytes_ >= options_.segment_bytes) {
    Status rotated = RotateLocked();
    if (!rotated.ok()) {
      io_error_ = rotated;
      return rotated;
    }
  }
  record.lsn = next_lsn_;
  std::string payload = EncodeRecord(record);
  Enc frame;
  frame.U32(static_cast<uint32_t>(payload.size()));
  frame.U32(Crc32(payload.data(), payload.size()));
  std::string bytes = frame.Take();
  bytes += payload;
  buffer_ += bytes;
  segment_bytes_ += bytes.size();
  ++next_lsn_;
  // Durability points come from callers via Sync(); the size cap just
  // bounds memory between them.
  constexpr size_t kMaxBufferBytes = 256u << 10;
  if (options_.fsync == FsyncPolicy::kEveryAppend) {
    RFIDCEP_RETURN_IF_ERROR(SyncLocked());
  } else if (buffer_.size() >= kMaxBufferBytes) {
    RFIDCEP_RETURN_IF_ERROR(FlushLocked());
  }
  return record.lsn;
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

Status Wal::Replay(uint64_t after_lsn,
                   const std::function<Status(const WalRecord&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  RFIDCEP_RETURN_IF_ERROR(FlushLocked());  // Replay reads the files.
  std::vector<std::string> names = ListSegments(dir_);
  uint64_t expected_lsn = 1;
  for (const std::string& name : names) {
    const std::string path = dir_ + "/" + name;
    std::string data;
    RFIDCEP_RETURN_IF_ERROR(ReadFile(path, &data));
    Status status;
    size_t valid = WalkSegment(data, &expected_lsn, [&](const WalRecord& r) {
      if (!status.ok() || r.lsn <= after_lsn) return;
      status = fn(r);
    });
    RFIDCEP_RETURN_IF_ERROR(status);
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
  uint64_t last = after_lsn;
  Status replayed = wal.Replay(after_lsn, [&](const WalRecord& record) {
    if (record.kind != WalRecordKind::kSql) {
      // Procedure/alarm frames have no store effect; their keys matter
      // only for dedup, which AttachWal reads from recovered_actions().
      last = record.lsn;
      return Status::Ok();
    }
    Result<ExecResult> result = ExecuteSql(record.sql, db, record.params);
    if (!result.ok()) {
      return Status(result.status().code(),
                    "replaying wal lsn " + std::to_string(record.lsn) + " (" +
                        record.sql + "): " + result.status().message());
    }
    last = record.lsn;
    return Status::Ok();
  });
  RFIDCEP_RETURN_IF_ERROR(replayed);
  return last;
}

}  // namespace rfidcep::store
