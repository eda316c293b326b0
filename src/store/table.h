// In-memory table with tombstoned rows and optional single-column hash
// indexes.
//
// Rows live in a slotted vector; DELETE tombstones the slot and compaction
// runs automatically once more than half the slots are dead. Hash indexes
// map an encoded column value to the slots holding it and are maintained
// incrementally on insert/update/delete.

#ifndef RFIDCEP_STORE_TABLE_H_
#define RFIDCEP_STORE_TABLE_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "store/schema.h"

namespace rfidcep::store {

using Row = std::vector<Value>;

class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  // Live row count.
  size_t size() const { return live_count_; }

  // Appends a row after schema coercion. The row must have exactly
  // schema().num_columns() values.
  Status Insert(Row row);

  // Visits every live row. The visitor may not mutate the table.
  void Scan(const std::function<void(const Row&)>& visitor) const;

  // Collects live rows satisfying `pred` (nullptr = all rows).
  std::vector<Row> SelectWhere(
      const std::function<bool(const Row&)>& pred) const;

  // Indexed lookup: rows whose `column_index` value SQL-equals `key`.
  // Falls back to a scan when the column has no index.
  std::vector<Row> Lookup(size_t column_index, const Value& key) const;

  // Keyed variants visiting only rows whose indexed `column_index` value
  // equals `key` (requires HasIndex(column_index)); the residual `pred`
  // is applied on top. These are what makes per-event rule actions like
  // `UPDATE ... WHERE object_epc = o` O(1) instead of O(table).
  std::vector<Row> SelectWhereKeyed(
      size_t column_index, const Value& key,
      const std::function<bool(const Row&)>& pred) const;
  Result<size_t> UpdateWhereKeyed(size_t column_index, const Value& key,
                                  const std::function<bool(const Row&)>& pred,
                                  const std::function<void(Row*)>& mutate);
  size_t DeleteWhereKeyed(size_t column_index, const Value& key,
                          const std::function<bool(const Row&)>& pred);

  // Updates rows matching `pred` via `mutate` (which edits the row in
  // place); re-coerces and re-indexes changed rows. Returns rows updated.
  Result<size_t> UpdateWhere(const std::function<bool(const Row&)>& pred,
                             const std::function<void(Row*)>& mutate);

  // Deletes rows matching `pred`; returns rows deleted.
  size_t DeleteWhere(const std::function<bool(const Row&)>& pred);

  // Builds a hash index on `column_name`. Idempotent.
  Status CreateIndex(std::string_view column_name);
  bool HasIndex(size_t column_index) const {
    return indexes_.count(column_index) > 0;
  }

 private:
  struct Slot {
    Row row;
    bool alive = false;
  };
  using Index = std::unordered_map<std::string, std::vector<size_t>>;

  void IndexInsert(size_t slot);
  void IndexErase(size_t slot);
  void MaybeCompact();

  std::string name_;
  Schema schema_;
  std::vector<Slot> slots_;
  size_t live_count_ = 0;
  std::unordered_map<size_t, Index> indexes_;  // column index -> index
};

}  // namespace rfidcep::store

#endif  // RFIDCEP_STORE_TABLE_H_
