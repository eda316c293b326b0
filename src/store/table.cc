#include "store/table.h"

#include <algorithm>
#include <cassert>

namespace rfidcep::store {

namespace {

constexpr size_t kMinBuckets = 8;

}  // namespace

// --- HashIndex --------------------------------------------------------------

Table::SlotIndex Table::HashIndex::Head(uint64_t hash) const {
  const size_t b = FindBucket(hash);
  return b == buckets_.size() ? kNone : buckets_[b].head;
}

void Table::HashIndex::Link(SlotIndex slot, uint64_t hash) {
  if (slot >= links_.size()) links_.resize(static_cast<size_t>(slot) + 1);
  Bucket& bucket = buckets_[FindOrClaimBucket(hash)];
  Links& link = links_[slot];
  link.hash = hash;
  if (bucket.head == kNone) {
    bucket.hash = hash;
    bucket.head = bucket.tail = slot;
    link.prev = link.next = kNone;
    ++used_;
    return;
  }
  // The last chained slot before `slot`: a new row, the common case, is
  // past the tail and stops at once; a row an update moved here walks
  // back to its place in slot order.
  SlotIndex before = bucket.tail;
  while (before != kNone && before > slot) before = links_[before].prev;
  link.prev = before;
  if (before == kNone) {
    link.next = bucket.head;
    links_[bucket.head].prev = slot;
    bucket.head = slot;
    return;
  }
  link.next = links_[before].next;
  links_[before].next = slot;
  if (link.next == kNone) {
    bucket.tail = slot;
  } else {
    links_[link.next].prev = slot;
  }
}

void Table::HashIndex::Unlink(SlotIndex slot) {
  Links& link = links_[slot];
  if (link.prev == kNone || link.next == kNone) {
    const size_t b = FindBucket(link.hash);
    assert(b < buckets_.size());
    Bucket& bucket = buckets_[b];
    if (link.prev == kNone) bucket.head = link.next;
    if (link.next == kNone) bucket.tail = link.prev;
    if (bucket.head == kNone) EraseBucket(b);
  }
  if (link.prev != kNone) links_[link.prev].next = link.next;
  if (link.next != kNone) links_[link.next].prev = link.prev;
  link.prev = link.next = kNone;
}

void Table::HashIndex::Rebuild(const std::vector<Slot>& slots) {
  buckets_.clear();
  used_ = 0;
  links_.assign(slots.size(), Links{});
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].alive) {
      Link(static_cast<SlotIndex>(i), slots[i].row[column_].HashSql());
    }
  }
}

size_t Table::HashIndex::FindBucket(uint64_t hash) const {
  if (buckets_.empty()) return 0;
  const size_t mask = buckets_.size() - 1;
  // At most half full, so every probe reaches an empty bucket.
  for (size_t b = hash & mask;; b = (b + 1) & mask) {
    if (buckets_[b].head == kNone) return buckets_.size();
    if (buckets_[b].hash == hash) return b;
  }
}

size_t Table::HashIndex::FindOrClaimBucket(uint64_t hash) {
  if (2 * (used_ + 1) > buckets_.size()) {
    if (size_t b = FindBucket(hash); b < buckets_.size()) return b;
    Grow();
  }
  const size_t mask = buckets_.size() - 1;
  for (size_t b = hash & mask;; b = (b + 1) & mask) {
    if (buckets_[b].head == kNone || buckets_[b].hash == hash) return b;
  }
}

void Table::HashIndex::Grow() {
  std::vector<Bucket> old = std::move(buckets_);
  buckets_.assign(std::max(kMinBuckets, 2 * old.size()), Bucket{});
  const size_t mask = buckets_.size() - 1;
  for (const Bucket& bucket : old) {
    if (bucket.head == kNone) continue;
    size_t b = bucket.hash & mask;
    while (buckets_[b].head != kNone) b = (b + 1) & mask;
    buckets_[b] = bucket;
  }
}

void Table::HashIndex::EraseBucket(size_t b) {
  const size_t mask = buckets_.size() - 1;
  size_t hole = b;
  for (size_t next = (b + 1) & mask; buckets_[next].head != kNone;
       next = (next + 1) & mask) {
    // A bucket may move back into the hole only if its home is not inside
    // (hole, next]: otherwise its probe would start past the hole.
    const size_t home = buckets_[next].hash & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      buckets_[hole] = buckets_[next];
      hole = next;
    }
  }
  buckets_[hole] = Bucket{};
  --used_;
}

// --- Table ------------------------------------------------------------------

const Table::HashIndex* Table::FindIndex(size_t column) const {
  for (const HashIndex& index : indexes_) {
    if (index.column() == column) return &index;
  }
  return nullptr;
}

Status Table::Insert(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "table '" + name_ + "' expects " +
        std::to_string(schema_.num_columns()) + " values, got " +
        std::to_string(row.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    RFIDCEP_RETURN_IF_ERROR(schema_.CoerceValue(i, &row[i]));
  }
  assert(slots_.size() < kNone);
  const auto slot = static_cast<SlotIndex>(slots_.size());
  slots_.push_back(Slot{std::move(row), /*alive=*/true});
  ++live_count_;
  for (HashIndex& index : indexes_) {
    index.Link(slot, slots_[slot].row[index.column()].HashSql());
  }
  return Status::Ok();
}

void Table::Scan(const std::function<void(const Row&)>& visitor) const {
  for (const Slot& slot : slots_) {
    if (slot.alive) visitor(slot.row);
  }
}

std::vector<Row> Table::SelectWhere(
    const std::function<bool(const Row&)>& pred) const {
  std::vector<Row> out;
  for (const Slot& slot : slots_) {
    if (slot.alive && (!pred || pred(slot.row))) out.push_back(slot.row);
  }
  return out;
}

std::vector<Row> Table::Lookup(size_t column_index, const Value& key) const {
  return SelectWhereKeyed(column_index, key, nullptr);
}

std::vector<Row> Table::SelectWhereKeyed(
    size_t column_index, const Value& key,
    const std::function<bool(const Row&)>& pred) const {
  const HashIndex* index = FindIndex(column_index);
  if (index == nullptr) {
    return SelectWhere([&](const Row& row) {
      return row[column_index].EqualsSql(key) && (!pred || pred(row));
    });
  }
  std::vector<Row> out;
  for (SlotIndex i = index->Head(key.HashSql()); i != kNone;
       i = index->Next(i)) {
    const Row& row = slots_[i].row;
    if (row[column_index].EqualsSql(key) && (!pred || pred(row))) {
      out.push_back(row);
    }
  }
  return out;
}

Status Table::FinishUpdate(SlotIndex i) {
  Row& row = slots_[i].row;
  if (row.size() != schema_.num_columns()) {
    return Status::Internal("update changed arity of table '" + name_ + "'");
  }
  Status status;
  for (size_t c = 0; c < row.size() && status.ok(); ++c) {
    status = schema_.CoerceValue(c, &row[c]);
  }
  for (HashIndex& index : indexes_) {
    index.Relink(i, row[index.column()].HashSql());
  }
  return status;
}

Result<size_t> Table::UpdateWhereKeyed(
    size_t column_index, const Value& key,
    const std::function<bool(const Row&)>& pred,
    const std::function<void(Row*)>& mutate) {
  const HashIndex* index = FindIndex(column_index);
  if (index == nullptr) {
    return UpdateWhere(
        [&](const Row& row) {
          return row[column_index].EqualsSql(key) && (!pred || pred(row));
        },
        mutate);
  }
  size_t updated = 0;
  // An updated row that leaves the chain unlinks itself, not its
  // successor, so the successor is read first.
  for (SlotIndex i = index->Head(key.HashSql()); i != kNone;) {
    const SlotIndex next = index->Next(i);
    Row& row = slots_[i].row;
    if (row[column_index].EqualsSql(key) && (!pred || pred(row))) {
      mutate(&row);
      RFIDCEP_RETURN_IF_ERROR(FinishUpdate(i));
      ++updated;
    }
    i = next;
  }
  return updated;
}

void Table::Kill(SlotIndex i) {
  for (HashIndex& index : indexes_) index.Unlink(i);
  slots_[i].alive = false;
  slots_[i].row.clear();
  --live_count_;
}

size_t Table::DeleteWhereKeyed(size_t column_index, const Value& key,
                               const std::function<bool(const Row&)>& pred) {
  const HashIndex* index = FindIndex(column_index);
  if (index == nullptr) {
    return DeleteWhere([&](const Row& row) {
      return row[column_index].EqualsSql(key) && (!pred || pred(row));
    });
  }
  size_t deleted = 0;
  for (SlotIndex i = index->Head(key.HashSql()); i != kNone;) {
    const SlotIndex next = index->Next(i);
    const Row& row = slots_[i].row;
    if (row[column_index].EqualsSql(key) && (!pred || pred(row))) {
      Kill(i);
      ++deleted;
    }
    i = next;
  }
  if (deleted > 0) MaybeCompact();
  return deleted;
}

Result<size_t> Table::UpdateWhere(const std::function<bool(const Row&)>& pred,
                                  const std::function<void(Row*)>& mutate) {
  size_t updated = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (!slot.alive || (pred && !pred(slot.row))) continue;
    mutate(&slot.row);
    RFIDCEP_RETURN_IF_ERROR(FinishUpdate(static_cast<SlotIndex>(i)));
    ++updated;
  }
  return updated;
}

size_t Table::DeleteWhere(const std::function<bool(const Row&)>& pred) {
  size_t deleted = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].alive && (!pred || pred(slots_[i].row))) {
      Kill(static_cast<SlotIndex>(i));
      ++deleted;
    }
  }
  if (deleted > 0) MaybeCompact();
  return deleted;
}

Status Table::CreateIndex(std::string_view column_name) {
  int column = schema_.FindColumn(column_name);
  if (column < 0) {
    return Status::NotFound("no column '" + std::string(column_name) +
                            "' in table '" + name_ + "'");
  }
  const auto column_index = static_cast<size_t>(column);
  if (HasIndex(column_index)) return Status::Ok();
  indexes_.emplace_back(column_index);
  indexes_.back().Rebuild(slots_);
  return Status::Ok();
}

void Table::MaybeCompact() {
  if (slots_.size() < 64 || live_count_ * 2 > slots_.size()) return;
  std::vector<Slot> compacted;
  compacted.reserve(live_count_);
  for (Slot& slot : slots_) {
    if (slot.alive) compacted.push_back(std::move(slot));
  }
  slots_ = std::move(compacted);
  for (HashIndex& index : indexes_) index.Rebuild(slots_);
}

}  // namespace rfidcep::store
