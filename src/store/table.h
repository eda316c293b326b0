// In-memory table with tombstoned rows and optional single-column hash
// indexes.
//
// Rows live in a slotted vector; DELETE tombstones the slot and compaction
// runs automatically once more than half the slots are dead. A hash index
// is a common::ChainTable from a value's 64-bit Value::HashSql to the
// first and last row slot of that hash's chain; the chain links run
// through the row slots, one pair per slot and index, in slot order. So a
// keyed visit meets rows in the order a scan does, and keyed results
// re-check EqualsSql, which separates values that merely share a hash.
// Indexes are maintained incrementally on insert/update/delete and
// rebuilt on compaction.

#ifndef RFIDCEP_STORE_TABLE_H_
#define RFIDCEP_STORE_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/chain_table.h"
#include "common/status.h"
#include "store/schema.h"

namespace rfidcep::store {

using Row = std::vector<Value>;

// Restricts a table visit to the rows whose `column` value SQL-equals
// `*value`, met by walking that column's index chain when the column is
// indexed and by a filtering scan otherwise; in slot order either way. A
// null `value` restricts nothing. Keys make per-event rule actions like
// `UPDATE ... WHERE object_epc = o` O(1) instead of O(table).
struct ColumnKey {
  size_t column = 0;
  const Value* value = nullptr;
};

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

  // Visits every live row in slot order. The visitor may not mutate the
  // table.
  void Scan(const std::function<void(const Row&)>& visitor) const;

  // Collects live rows within `key` satisfying `pred` (nullptr = all).
  std::vector<Row> SelectWhere(const std::function<bool(const Row&)>& pred,
                               ColumnKey key = {}) const;

  // SelectWhere(nullptr, {column_index, &key}).
  std::vector<Row> Lookup(size_t column_index, const Value& key) const;

  // Updates rows within `key` matching `pred` via `mutate` (which edits
  // the row in place); re-coerces and re-indexes changed rows. Returns
  // rows updated.
  Result<size_t> UpdateWhere(const std::function<bool(const Row&)>& pred,
                             const std::function<void(Row*)>& mutate,
                             ColumnKey key = {});

  // Deletes rows within `key` matching `pred`; returns rows deleted.
  size_t DeleteWhere(const std::function<bool(const Row&)>& pred,
                     ColumnKey key = {});

  // Builds a hash index on `column_name`. Idempotent.
  Status CreateIndex(std::string_view column_name);
  bool HasIndex(size_t column_index) const {
    return FindIndex(column_index) != nullptr;
  }
  // The indexed columns, in the order their indexes were created.
  std::vector<size_t> IndexedColumns() const;

 private:
  using SlotIndex = common::ChainTable::Index;
  static constexpr SlotIndex kNone = common::ChainTable::kNone;

  struct Slot {
    Row row;
    bool alive = false;
  };

  // One column's hash index.
  class HashIndex {
   public:
    explicit HashIndex(size_t column) : column_(column) {}

    size_t column() const { return column_; }
    // First slot of `hash`'s chain, or kNone; then the next one.
    SlotIndex Head(uint64_t hash) const {
      const size_t s = chains_.Find(hash);
      return s == common::ChainTable::kNoSlot ? kNone : chains_[s].head;
    }
    SlotIndex Next(SlotIndex slot) const { return links_[slot].next; }

    // Links `slot` into `hash`'s chain at its place in slot order.
    void Link(SlotIndex slot, uint64_t hash);
    // Unlinks `slot` from the chain it is on.
    void Unlink(SlotIndex slot);
    // Moves `slot` to `hash`'s chain when it is on another one.
    void Relink(SlotIndex slot, uint64_t hash) {
      if (links_[slot].hash != hash) {
        Unlink(slot);
        Link(slot, hash);
      }
    }
    // Drops every chain and links the live rows of `slots` in order.
    void Rebuild(const std::vector<Slot>& slots);

   private:
    struct Links {
      uint64_t hash = 0;  // The hash the slot is chained under.
      SlotIndex prev = kNone;
      SlotIndex next = kNone;
    };

    size_t column_;
    common::ChainTable chains_;
    std::vector<Links> links_;  // One per row slot.
  };

  const HashIndex* FindIndex(size_t column) const;
  // Calls visit(i) on each live slot i within `key` whose row satisfies
  // `pred`, in slot order, until visit returns an error. visit may
  // re-chain or kill slot i, and no other.
  template <typename Visit>
  Status VisitWhere(const ColumnKey& key,
                    const std::function<bool(const Row&)>& pred,
                    Visit&& visit) const;
  // Re-coerces slot `i` after `mutate` edited it and re-chains it under
  // the hashes of its new values.
  Status FinishUpdate(SlotIndex i);
  void Kill(SlotIndex i);
  void MaybeCompact();

  std::string name_;
  Schema schema_;
  std::vector<Slot> slots_;
  size_t live_count_ = 0;
  std::vector<HashIndex> indexes_;  // One per indexed column.
};

}  // namespace rfidcep::store

#endif  // RFIDCEP_STORE_TABLE_H_
