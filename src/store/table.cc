#include "store/table.h"

namespace rfidcep::store {

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
  slots_.push_back(Slot{std::move(row), /*alive=*/true});
  ++live_count_;
  IndexInsert(slots_.size() - 1);
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
  std::vector<Row> out;
  auto it = indexes_.find(column_index);
  if (it != indexes_.end()) {
    auto bucket = it->second.find(key.EncodeKey());
    if (bucket != it->second.end()) {
      for (size_t slot : bucket->second) {
        if (slot < slots_.size() && slots_[slot].alive &&
            slots_[slot].row[column_index].EqualsSql(key)) {
          out.push_back(slots_[slot].row);
        }
      }
    }
    return out;
  }
  for (const Slot& slot : slots_) {
    if (slot.alive && slot.row[column_index].EqualsSql(key)) {
      out.push_back(slot.row);
    }
  }
  return out;
}

std::vector<Row> Table::SelectWhereKeyed(
    size_t column_index, const Value& key,
    const std::function<bool(const Row&)>& pred) const {
  std::vector<Row> out;
  auto index_it = indexes_.find(column_index);
  if (index_it == indexes_.end()) return SelectWhere(pred);
  auto bucket = index_it->second.find(key.EncodeKey());
  if (bucket == index_it->second.end()) return out;
  for (size_t slot : bucket->second) {
    const Slot& s = slots_[slot];
    if (s.alive && s.row[column_index].EqualsSql(key) &&
        (!pred || pred(s.row))) {
      out.push_back(s.row);
    }
  }
  return out;
}

Result<size_t> Table::UpdateWhereKeyed(
    size_t column_index, const Value& key,
    const std::function<bool(const Row&)>& pred,
    const std::function<void(Row*)>& mutate) {
  auto index_it = indexes_.find(column_index);
  if (index_it == indexes_.end()) return UpdateWhere(pred, mutate);
  auto bucket = index_it->second.find(key.EncodeKey());
  if (bucket == index_it->second.end()) return size_t{0};
  // Mutation re-indexes rows, invalidating the bucket: snapshot first.
  std::vector<size_t> slots(bucket->second.begin(), bucket->second.end());
  size_t updated = 0;
  for (size_t i : slots) {
    Slot& slot = slots_[i];
    if (!slot.alive || !slot.row[column_index].EqualsSql(key)) continue;
    if (pred && !pred(slot.row)) continue;
    IndexErase(i);
    mutate(&slot.row);
    if (slot.row.size() != schema_.num_columns()) {
      return Status::Internal("update changed arity of table '" + name_ +
                              "'");
    }
    for (size_t c = 0; c < slot.row.size(); ++c) {
      RFIDCEP_RETURN_IF_ERROR(schema_.CoerceValue(c, &slot.row[c]));
    }
    IndexInsert(i);
    ++updated;
  }
  return updated;
}

size_t Table::DeleteWhereKeyed(size_t column_index, const Value& key,
                               const std::function<bool(const Row&)>& pred) {
  auto index_it = indexes_.find(column_index);
  if (index_it == indexes_.end()) return DeleteWhere(pred);
  auto bucket = index_it->second.find(key.EncodeKey());
  if (bucket == index_it->second.end()) return 0;
  std::vector<size_t> slots(bucket->second.begin(), bucket->second.end());
  size_t deleted = 0;
  for (size_t i : slots) {
    Slot& slot = slots_[i];
    if (!slot.alive || !slot.row[column_index].EqualsSql(key)) continue;
    if (pred && !pred(slot.row)) continue;
    IndexErase(i);
    slot.alive = false;
    slot.row.clear();
    --live_count_;
    ++deleted;
  }
  if (deleted > 0) MaybeCompact();
  return deleted;
}

Result<size_t> Table::UpdateWhere(const std::function<bool(const Row&)>& pred,
                                  const std::function<void(Row*)>& mutate) {
  size_t updated = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (!slot.alive || !pred(slot.row)) continue;
    IndexErase(i);
    mutate(&slot.row);
    if (slot.row.size() != schema_.num_columns()) {
      return Status::Internal("update changed arity of table '" + name_ + "'");
    }
    for (size_t c = 0; c < slot.row.size(); ++c) {
      RFIDCEP_RETURN_IF_ERROR(schema_.CoerceValue(c, &slot.row[c]));
    }
    IndexInsert(i);
    ++updated;
  }
  return updated;
}

size_t Table::DeleteWhere(const std::function<bool(const Row&)>& pred) {
  size_t deleted = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.alive && pred(slot.row)) {
      IndexErase(i);
      slot.alive = false;
      slot.row.clear();
      --live_count_;
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
  size_t column_index = static_cast<size_t>(column);
  if (indexes_.count(column_index) > 0) return Status::Ok();
  Index& index = indexes_[column_index];
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].alive) {
      index[slots_[i].row[column_index].EncodeKey()].push_back(i);
    }
  }
  return Status::Ok();
}

void Table::IndexInsert(size_t slot) {
  for (auto& [column, index] : indexes_) {
    index[slots_[slot].row[column].EncodeKey()].push_back(slot);
  }
}

void Table::IndexErase(size_t slot) {
  for (auto& [column, index] : indexes_) {
    auto it = index.find(slots_[slot].row[column].EncodeKey());
    if (it == index.end()) continue;
    std::erase(it->second, slot);
    if (it->second.empty()) index.erase(it);
  }
}

void Table::MaybeCompact() {
  if (slots_.size() < 64 || live_count_ * 2 > slots_.size()) return;
  std::vector<Slot> compacted;
  compacted.reserve(live_count_);
  for (Slot& slot : slots_) {
    if (slot.alive) compacted.push_back(std::move(slot));
  }
  slots_ = std::move(compacted);
  for (auto& [column, index] : indexes_) {
    index.clear();
    for (size_t i = 0; i < slots_.size(); ++i) {
      index[slots_[i].row[column].EncodeKey()].push_back(i);
    }
  }
}

}  // namespace rfidcep::store
