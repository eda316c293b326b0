#include "store/table.h"

#include <algorithm>
#include <cassert>

namespace rfidcep::store {

// --- HashIndex --------------------------------------------------------------

void Table::HashIndex::Link(SlotIndex slot, uint64_t hash) {
  if (slot >= links_.size()) links_.resize(static_cast<size_t>(slot) + 1);
  common::ChainTable::Slot& chain = chains_[chains_.FindOrClaim(hash)];
  Links& link = links_[slot];
  link.hash = hash;
  if (chain.head == kNone) {
    chain.head = chain.tail = slot;
    link.prev = link.next = kNone;
    return;
  }
  // The last chained slot before `slot`: a new row, the common case, is
  // past the tail and stops at once; a row an update moved here walks
  // back to its place in slot order.
  SlotIndex before = chain.tail;
  while (before != kNone && before > slot) before = links_[before].prev;
  link.prev = before;
  if (before == kNone) {
    link.next = chain.head;
    links_[chain.head].prev = slot;
    chain.head = slot;
    return;
  }
  link.next = links_[before].next;
  links_[before].next = slot;
  if (link.next == kNone) {
    chain.tail = slot;
  } else {
    links_[link.next].prev = slot;
  }
}

void Table::HashIndex::Unlink(SlotIndex slot) {
  Links& link = links_[slot];
  chains_.Unlink(link.hash, link.prev, link.next);
  if (link.prev != kNone) links_[link.prev].next = link.next;
  if (link.next != kNone) links_[link.next].prev = link.prev;
  link.prev = link.next = kNone;
}

void Table::HashIndex::Rebuild(const std::vector<Slot>& slots) {
  chains_.Clear();
  links_.assign(slots.size(), Links{});
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].alive) {
      Link(static_cast<SlotIndex>(i), slots[i].row[column_].HashSql());
    }
  }
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

template <typename Visit>
Status Table::VisitWhere(const ColumnKey& key,
                         const std::function<bool(const Row&)>& pred,
                         Visit&& visit) const {
  auto within = [&](const Row& row) {
    return (key.value == nullptr || row[key.column].EqualsSql(*key.value)) &&
           (!pred || pred(row));
  };
  const HashIndex* index =
      key.value != nullptr ? FindIndex(key.column) : nullptr;
  if (index == nullptr) {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].alive && within(slots_[i].row)) {
        RFIDCEP_RETURN_IF_ERROR(visit(static_cast<SlotIndex>(i)));
      }
    }
    return Status::Ok();
  }
  // A visited slot that leaves the chain unlinks itself, not its
  // successor, so the successor is read first.
  for (SlotIndex i = index->Head(key.value->HashSql()); i != kNone;) {
    const SlotIndex next = index->Next(i);
    if (within(slots_[i].row)) RFIDCEP_RETURN_IF_ERROR(visit(i));
    i = next;
  }
  return Status::Ok();
}

std::vector<Row> Table::SelectWhere(
    const std::function<bool(const Row&)>& pred, ColumnKey key) const {
  std::vector<Row> out;
  (void)VisitWhere(key, pred, [&](SlotIndex i) {
    out.push_back(slots_[i].row);
    return Status::Ok();
  });
  return out;
}

std::vector<Row> Table::Lookup(size_t column_index, const Value& key) const {
  return SelectWhere(nullptr, {column_index, &key});
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

Result<size_t> Table::UpdateWhere(const std::function<bool(const Row&)>& pred,
                                  const std::function<void(Row*)>& mutate,
                                  ColumnKey key) {
  size_t updated = 0;
  RFIDCEP_RETURN_IF_ERROR(VisitWhere(key, pred, [&](SlotIndex i) {
    mutate(&slots_[i].row);
    RFIDCEP_RETURN_IF_ERROR(FinishUpdate(i));
    ++updated;
    return Status::Ok();
  }));
  return updated;
}

void Table::Kill(SlotIndex i) {
  for (HashIndex& index : indexes_) index.Unlink(i);
  slots_[i].alive = false;
  slots_[i].row.clear();
  --live_count_;
}

size_t Table::DeleteWhere(const std::function<bool(const Row&)>& pred,
                          ColumnKey key) {
  size_t deleted = 0;
  (void)VisitWhere(key, pred, [&](SlotIndex i) {
    Kill(i);
    ++deleted;
    return Status::Ok();
  });
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

std::vector<size_t> Table::IndexedColumns() const {
  std::vector<size_t> columns;
  columns.reserve(indexes_.size());
  for (const HashIndex& index : indexes_) columns.push_back(index.column());
  return columns;
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
