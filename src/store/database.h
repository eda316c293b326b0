// The RFID data store: a named collection of tables (paper Fig. 2).

#ifndef RFIDCEP_STORE_DATABASE_H_
#define RFIDCEP_STORE_DATABASE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "store/table.h"

namespace rfidcep::store {

class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Creates a table; fails with kAlreadyExists on a duplicate name
  // (case-insensitive) and kInvalidArgument on a schema with no column.
  Status CreateTable(std::string name, Schema schema);

  // Drops a table; fails with kNotFound if absent.
  Status DropTable(std::string_view name);

  // Case-insensitive lookup; nullptr if absent.
  Table* GetTable(std::string_view name);
  const Table* GetTable(std::string_view name) const;

  bool HasTable(std::string_view name) const {
    return GetTable(name) != nullptr;
  }

  // Every table, ordered by lowercase name.
  std::vector<const Table*> Tables() const;

  // Replaces every table with `tables`, whose names must be distinct
  // case-insensitively (a store image's, store/store_image.h).
  void ReplaceTables(std::vector<std::unique_ptr<Table>> tables);

  // Identifies this database's set of tables: it changes when a table is
  // created or dropped, and no two databases in a process share one. A
  // SQL statement resolved against a version reuses that resolution
  // while the version holds (SqlStatement::bound).
  uint64_t schema_version() const { return schema_version_; }

  // Creates the three relations the paper's rules target, with hash
  // indexes on the object EPC columns:
  //   OBSERVATION(reader STRING, object STRING, ts TIME)
  //   OBJECTLOCATION(object_epc STRING, loc_id STRING, tstart TIME, tend TIME)
  //   OBJECTCONTAINMENT(object_epc STRING, parent_epc STRING,
  //                     tstart TIME, tend TIME)
  // Idempotent: existing tables are left untouched.
  Status InstallRfidSchema();

 private:
  static uint64_t NextSchemaVersion();

  // Keyed by lowercase name.
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  uint64_t schema_version_ = NextSchemaVersion();
};

}  // namespace rfidcep::store

#endif  // RFIDCEP_STORE_DATABASE_H_
