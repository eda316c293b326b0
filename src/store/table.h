// In-memory table with tombstoned rows and optional single-column hash
// indexes.
//
// Rows live in a slotted vector; DELETE tombstones the slot and compaction
// runs automatically once more than half the slots are dead. A hash index
// is one flat open-addressing table (linear probing, backward-shift
// deletion) from a value's 64-bit Value::HashSql to the first and last
// row slot of that hash's chain; the chain links run through the row
// slots, one pair per slot and index, in slot order. So a keyed visit
// meets rows in the order a scan does, and keyed results re-check
// EqualsSql, which separates values that merely share a hash. Indexes are
// maintained incrementally on insert/update/delete and rebuilt on
// compaction.

#ifndef RFIDCEP_STORE_TABLE_H_
#define RFIDCEP_STORE_TABLE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
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

  // Visits every live row in slot order. The visitor may not mutate the
  // table.
  void Scan(const std::function<void(const Row&)>& visitor) const;

  // Collects live rows satisfying `pred` (nullptr = all rows).
  std::vector<Row> SelectWhere(
      const std::function<bool(const Row&)>& pred) const;

  // Indexed lookup: rows whose `column_index` value SQL-equals `key`, in
  // slot order. Falls back to a scan when the column has no index.
  std::vector<Row> Lookup(size_t column_index, const Value& key) const;

  // Keyed variants visiting only rows whose `column_index` value
  // SQL-equals `key`, in slot order; the residual `pred` is applied on
  // top. Without an index on the column they fall back to the scanning
  // variants. These are what makes per-event rule actions like
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
    return FindIndex(column_index) != nullptr;
  }

 private:
  using SlotIndex = uint32_t;
  static constexpr SlotIndex kNone = std::numeric_limits<SlotIndex>::max();

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
    SlotIndex Head(uint64_t hash) const;
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
    struct Bucket {
      uint64_t hash = 0;
      SlotIndex head = kNone;  // kNone: the bucket is empty.
      SlotIndex tail = kNone;
    };
    struct Links {
      uint64_t hash = 0;  // The hash the slot is chained under.
      SlotIndex prev = kNone;
      SlotIndex next = kNone;
    };

    size_t FindBucket(uint64_t hash) const;  // buckets_.size() when absent.
    size_t FindOrClaimBucket(uint64_t hash);
    void Grow();
    void EraseBucket(size_t b);

    size_t column_;
    std::vector<Bucket> buckets_;  // Empty, or a power of two, half full.
    std::vector<Links> links_;     // One per row slot.
    size_t used_ = 0;              // Occupied buckets.
  };

  const HashIndex* FindIndex(size_t column) const;
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
