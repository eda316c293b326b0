#include "store/database.h"

#include <algorithm>
#include <atomic>

#include "common/strings.h"

namespace rfidcep::store {

uint64_t Database::NextSchemaVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Status Database::CreateTable(std::string name, Schema schema) {
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("table '" + name + "' has no column");
  }
  std::string key = AsciiLower(name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  tables_.emplace(std::move(key),
                  std::make_unique<Table>(std::move(name), std::move(schema)));
  schema_version_ = NextSchemaVersion();
  return Status::Ok();
}

Status Database::DropTable(std::string_view name) {
  if (tables_.erase(AsciiLower(name)) == 0) {
    return Status::NotFound("no table '" + std::string(name) + "'");
  }
  schema_version_ = NextSchemaVersion();
  return Status::Ok();
}

Table* Database::GetTable(std::string_view name) {
  auto it = tables_.find(AsciiLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::GetTable(std::string_view name) const {
  auto it = tables_.find(AsciiLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<const Table*> Database::Tables() const {
  std::vector<std::pair<std::string_view, const Table*>> keyed;
  keyed.reserve(tables_.size());
  for (const auto& [key, table] : tables_) keyed.emplace_back(key, table.get());
  std::sort(keyed.begin(), keyed.end());
  std::vector<const Table*> out;
  out.reserve(keyed.size());
  for (const auto& [key, table] : keyed) out.push_back(table);
  return out;
}

void Database::ReplaceTables(std::vector<std::unique_ptr<Table>> tables) {
  tables_.clear();
  for (std::unique_ptr<Table>& table : tables) {
    std::string key = AsciiLower(table->name());
    tables_.emplace(std::move(key), std::move(table));
  }
  schema_version_ = NextSchemaVersion();
}

Status Database::InstallRfidSchema() {
  if (!HasTable("OBSERVATION")) {
    RFIDCEP_RETURN_IF_ERROR(CreateTable(
        "OBSERVATION", Schema({{"reader", ColumnType::kString},
                               {"object", ColumnType::kString},
                               {"ts", ColumnType::kTime}})));
    RFIDCEP_RETURN_IF_ERROR(GetTable("OBSERVATION")->CreateIndex("object"));
  }
  if (!HasTable("OBJECTLOCATION")) {
    RFIDCEP_RETURN_IF_ERROR(CreateTable(
        "OBJECTLOCATION", Schema({{"object_epc", ColumnType::kString},
                                  {"loc_id", ColumnType::kString},
                                  {"tstart", ColumnType::kTime},
                                  {"tend", ColumnType::kTime}})));
    RFIDCEP_RETURN_IF_ERROR(
        GetTable("OBJECTLOCATION")->CreateIndex("object_epc"));
  }
  if (!HasTable("OBJECTCONTAINMENT")) {
    RFIDCEP_RETURN_IF_ERROR(CreateTable(
        "OBJECTCONTAINMENT", Schema({{"object_epc", ColumnType::kString},
                                     {"parent_epc", ColumnType::kString},
                                     {"tstart", ColumnType::kTime},
                                     {"tend", ColumnType::kTime}})));
    RFIDCEP_RETURN_IF_ERROR(
        GetTable("OBJECTCONTAINMENT")->CreateIndex("object_epc"));
  }
  return Status::Ok();
}

}  // namespace rfidcep::store
