// Store images: the whole RFID data store as of one WAL LSN.
//
// A store-backed checkpoint (engine/state_dir.h) writes one after its
// snapshot, at the snapshot's durable LSN, and then trims the WAL
// segments it covers; recovery loads the live rows instead of replaying
// every action the log ever held (docs/recovery.md "The store image").
//
// Layout: a sequence of CRC frames (common/byte_codec.h), little-endian:
//
//   header  magic "RCEDSIMG", u32 version (1), u64 LSN, u32 table count
//   per table, in lowercase-name order:
//     table  u32-len name; u32 column count, then each column's u32-len
//            name and u8 ColumnType; u32 index count, then each indexed
//            column's u32 position, in index creation order; u64 row
//            count
//     rows   as many frames as it takes: u32 row count, then each row's
//            values in the store value codec (PutValue, store/value.h)
//
// Only live rows are written, in slot order: tombstones and the slot
// numbers they leave are not state a scan, a keyed visit or a later
// statement can see.
//
// Decoding is bounded like the WAL's: every count is refused unless that
// many elements of its minimum encoded size fit in what is left (a value
// is at least its 1-byte tag), before anything is sized from it.

#ifndef RFIDCEP_STORE_STORE_IMAGE_H_
#define RFIDCEP_STORE_STORE_IMAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "store/database.h"

namespace rfidcep::store {

inline constexpr std::string_view kStoreImageMagic = "RCEDSIMG";
inline constexpr uint32_t kStoreImageVersion = 1;

// A decoded image: its tables, built and indexed, ready to install with
// Database::ReplaceTables.
struct StoreImage {
  uint64_t lsn = 0;
  std::vector<std::unique_ptr<Table>> tables;  // Lowercase-name order.
};

// The image of every table of `db`, stamped with `lsn`. Fails with
// kInvalidArgument when a frame would pass the reader's cap.
Result<std::string> EncodeStoreImage(const Database& db, uint64_t lsn);

// Decodes a whole image. Fails with kFailedPrecondition on a bad magic
// or a version this build does not read, and with kInvalidArgument on
// damage: a bad CRC, truncated or trailing bytes, a count past what is
// left, an unknown column type or value kind, a table twice, an index on
// a column the table lacks, and a row that does not fit its table.
Result<StoreImage> DecodeStoreImage(std::string_view bytes);

// EncodeStoreImage written to `path` through common::ReplaceFile: after
// a crash `path` holds the previous image or this one.
Status WriteStoreImage(const std::string& path, const Database& db,
                       uint64_t lsn);

// Reads the image at `path` (common::ReadFile) and decodes it, freeing
// the bytes before it returns. Every error names the file.
Result<StoreImage> LoadStoreImage(const std::string& path);

}  // namespace rfidcep::store

#endif  // RFIDCEP_STORE_STORE_IMAGE_H_
