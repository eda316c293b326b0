#include "store/store_image.h"

#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/byte_codec.h"
#include "common/durable_file.h"
#include "common/strings.h"

namespace rfidcep::store {
namespace {

// The WAL's frame cap. The writer closes a row frame once it passes
// kRowFrameBytes, so only a single row longer than that makes a larger
// frame.
constexpr uint32_t kMaxFrameBytes = 64u << 20;
constexpr size_t kRowFrameBytes = 64u << 10;

// Minimum encoded sizes, the floors for decoded counts: a column is a
// name length and a type tag; an index a column position; a table its
// frame header, name length, one column, index count and row count.
constexpr size_t kMinColumnBytes = 4 + 1;
constexpr size_t kMinIndexBytes = 4;
constexpr size_t kMinTableBytes =
    common::kFrameHeaderBytes + 4 + 4 + kMinColumnBytes + 4 + 8;

Status Damaged(const std::string& what) {
  return Status::InvalidArgument("store image: " + what);
}

// Why a reader stopped: its latched failure, or bytes it did not read.
std::string ReaderProblem(const common::ByteReader& r) {
  return r.ok() ? "trailing bytes" : r.error();
}

const char* FrameProblem(common::FrameCheck check) {
  switch (check) {
    case common::FrameCheck::kFrame:
      break;
    case common::FrameCheck::kNeedMore:
      return "truncated frame";
    case common::FrameCheck::kEmpty:
      return "empty frame";
    case common::FrameCheck::kOversized:
      return "frame past the size cap";
    case common::FrameCheck::kCrcMismatch:
      return "CRC mismatch";
  }
  return "bad frame";
}

// Closes the frame begun at `start`, refusing one the reader would not
// accept.
Status EndImageFrame(std::string* out, size_t start) {
  const size_t payload = out->size() - start - common::kFrameHeaderBytes;
  if (payload > kMaxFrameBytes) {
    return Status::InvalidArgument("store image frame of " +
                                   std::to_string(payload) +
                                   " bytes is past the size recovery reads");
  }
  common::EndFrame(out, start);
  return Status::Ok();
}

Status EncodeTable(const Table& table, std::string* out) {
  common::ByteWriter w(out);
  const Schema& schema = table.schema();
  const size_t start = common::BeginFrame(out);
  w.Str32(table.name());
  w.U32(static_cast<uint32_t>(schema.num_columns()));
  for (const Column& column : schema.columns()) {
    w.Str32(column.name);
    w.U8(static_cast<uint8_t>(column.type));
  }
  const std::vector<size_t> indexed = table.IndexedColumns();
  w.U32(static_cast<uint32_t>(indexed.size()));
  for (size_t column : indexed) w.U32(static_cast<uint32_t>(column));
  w.U64(table.size());
  RFIDCEP_RETURN_IF_ERROR(EndImageFrame(out, start));

  size_t frame = 0;  // Start of the open row frame, when rows > 0.
  uint32_t rows = 0;
  Status status;
  auto close_frame = [&] {
    const size_t count_at = frame + common::kFrameHeaderBytes;
    for (int i = 0; i < 4; ++i) {
      (*out)[count_at + i] = static_cast<char>(rows >> (8 * i));
    }
    if (status.ok()) status = EndImageFrame(out, frame);
    rows = 0;
  };
  table.Scan([&](const Row& row) {
    if (rows == 0) {
      frame = common::BeginFrame(out);
      w.U32(0);  // The row count, filled in by close_frame.
    }
    for (const Value& v : row) PutValue(w, v);
    ++rows;
    if (out->size() - frame >= kRowFrameBytes) close_frame();
  });
  if (rows > 0) close_frame();
  return status;
}

}  // namespace

Result<std::string> EncodeStoreImage(const Database& db, uint64_t lsn) {
  const std::vector<const Table*> tables = db.Tables();
  std::string out;
  common::ByteWriter w(&out);
  const size_t start = common::BeginFrame(&out);
  w.Bytes(kStoreImageMagic);
  w.U32(kStoreImageVersion);
  w.U64(lsn);
  w.U32(static_cast<uint32_t>(tables.size()));
  common::EndFrame(&out, start);
  for (const Table* table : tables) {
    RFIDCEP_RETURN_IF_ERROR(EncodeTable(*table, &out));
  }
  return out;
}

Result<StoreImage> DecodeStoreImage(std::string_view bytes) {
  size_t pos = 0;
  // The payload of the frame at `pos`, which then moves past it.
  auto next_frame = [&](std::string_view* payload) {
    const common::ParsedFrame frame =
        common::ParseFrame(bytes.substr(pos), kMaxFrameBytes);
    if (frame.check != common::FrameCheck::kFrame) {
      return Damaged(std::string(FrameProblem(frame.check)) + " at offset " +
                     std::to_string(pos));
    }
    pos += common::kFrameHeaderBytes + frame.length;
    *payload = frame.payload;
    return Status::Ok();
  };

  std::string_view payload;
  RFIDCEP_RETURN_IF_ERROR(next_frame(&payload));
  common::ByteReader header(payload);
  if (header.Bytes(kStoreImageMagic.size()) != kStoreImageMagic) {
    return Status::FailedPrecondition(
        "store image: bad magic (not a store image)");
  }
  const uint32_t version = header.U32();
  if (header.ok() && version != kStoreImageVersion) {
    return Status::FailedPrecondition(
        "store image: format version " + std::to_string(version) +
        " (this build reads " + std::to_string(kStoreImageVersion) + ")");
  }
  StoreImage image;
  image.lsn = header.U64();
  const uint32_t table_count = header.U32();
  if (!header.AtEnd()) return Damaged("header: " + ReaderProblem(header));
  if (table_count > (bytes.size() - pos) / kMinTableBytes) {
    return Damaged("table count " + std::to_string(table_count) +
                   " past what the image holds");
  }

  image.tables.reserve(table_count);
  std::unordered_set<std::string> names;  // Lowercase, as Database keys.
  for (uint32_t t = 0; t < table_count; ++t) {
    RFIDCEP_RETURN_IF_ERROR(next_frame(&payload));
    common::ByteReader r(payload);
    const std::string name(r.Str32());
    std::vector<Column> columns(r.Count(kMinColumnBytes));
    for (Column& column : columns) {
      column.name = std::string(r.Str32());
      const uint8_t type = r.U8();
      if (type > static_cast<uint8_t>(ColumnType::kTime)) {
        r.Fail("unknown column type");
      }
      column.type = static_cast<ColumnType>(type);
    }
    std::vector<size_t> indexed(r.Count(kMinIndexBytes));
    for (size_t& column : indexed) {
      column = r.U32();
      if (column >= columns.size()) r.Fail("index on a column it lacks");
    }
    const uint64_t rows = r.U64();
    if (!r.AtEnd()) {
      return Damaged("table " + std::to_string(t) + ": " + ReaderProblem(r));
    }
    const size_t width = columns.size();
    if (width == 0) return Damaged("table '" + name + "' has no column");
    if (!names.insert(AsciiLower(name)).second) {
      return Damaged("table '" + name + "' twice");
    }
    if (rows > (bytes.size() - pos) / (width * kMinValueBytes)) {
      return Damaged("table '" + name + "': row count " +
                     std::to_string(rows) + " past what the image holds");
    }
    auto table = std::make_unique<Table>(name, Schema(std::move(columns)));
    for (size_t column : indexed) {
      RFIDCEP_RETURN_IF_ERROR(
          table->CreateIndex(table->schema().columns()[column].name));
    }
    for (uint64_t loaded = 0; loaded < rows;) {
      RFIDCEP_RETURN_IF_ERROR(next_frame(&payload));
      common::ByteReader rr(payload);
      const uint32_t n = rr.Count(width * kMinValueBytes);
      if (rr.ok() && (n == 0 || n > rows - loaded)) {
        rr.Fail("row count past the table's");
      }
      for (uint32_t i = 0; rr.ok() && i < n; ++i) {
        Row row;
        row.reserve(width);
        for (size_t c = 0; c < width; ++c) row.push_back(GetValue(rr));
        if (!rr.ok()) break;
        if (Status s = table->Insert(std::move(row)); !s.ok()) {
          return Damaged("table '" + name + "' row " +
                         std::to_string(loaded + i) + ": " + s.message());
        }
      }
      if (!rr.AtEnd()) {
        return Damaged("table '" + name + "' rows: " + ReaderProblem(rr));
      }
      loaded += n;
    }
    image.tables.push_back(std::move(table));
  }
  if (pos != bytes.size()) return Damaged("trailing bytes after the tables");
  return image;
}

Status WriteStoreImage(const std::string& path, const Database& db,
                       uint64_t lsn) {
  RFIDCEP_ASSIGN_OR_RETURN(std::string bytes, EncodeStoreImage(db, lsn));
  return common::ReplaceFile(path, bytes);
}

Result<StoreImage> LoadStoreImage(const std::string& path) {
  std::string bytes;
  RFIDCEP_RETURN_IF_ERROR(common::ReadFile(path, &bytes));
  Result<StoreImage> image = DecodeStoreImage(bytes);
  if (!image.ok()) {
    return Status(image.status().code(),
                  "'" + path + "': " + image.status().message());
  }
  return image;
}

}  // namespace rfidcep::store
