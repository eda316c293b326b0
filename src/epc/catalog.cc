#include "epc/catalog.h"

namespace rfidcep::epc {

Status ProductCatalog::RegisterItemClass(uint64_t company_prefix,
                                         int company_digits,
                                         uint64_t item_reference,
                                         std::string type_name) {
  RFIDCEP_ASSIGN_OR_RETURN(
      Epc epc, Epc::MakeSgtin(/*filter=*/0, company_prefix, company_digits,
                              item_reference, /*serial=*/0));
  by_class_[epc.ClassKey()] = std::move(type_name);
  return Status::Ok();
}

void ProductCatalog::RegisterExact(std::string epc, std::string type_name) {
  exact_[std::move(epc)] = std::move(type_name);
}

std::string ProductCatalog::TypeOf(std::string_view epc) const {
  return std::string(TypeViewOf(epc));
}

std::string_view ProductCatalog::TypeViewOf(std::string_view epc) const {
  if (auto it = exact_.find(epc); it != exact_.end()) {
    return it->second;
  }
  Result<Epc> parsed = Epc::FromUri(epc);
  if (parsed.ok()) {
    if (auto it = by_class_.find(parsed->ClassKey()); it != by_class_.end()) {
      return it->second;
    }
  }
  return {};
}

void ReaderRegistry::RegisterReader(std::string reader_epc, std::string group,
                                    std::string location_id) {
  auto [it, inserted] = readers_.try_emplace(reader_epc);
  it->second = ReaderInfo{std::move(group), std::move(location_id)};
  if (inserted) registration_order_.push_back(std::move(reader_epc));
  ++generation_;
}

std::string ReaderRegistry::GroupOf(std::string_view reader_epc) const {
  return std::string(GroupViewOf(reader_epc));
}

std::string ReaderRegistry::LocationOf(std::string_view reader_epc) const {
  return std::string(LocationViewOf(reader_epc));
}

std::string_view ReaderRegistry::GroupViewOf(std::string_view reader_epc) const {
  const ReaderInfo* info = Find(reader_epc);
  return info != nullptr ? std::string_view(info->group) : reader_epc;
}

std::string_view ReaderRegistry::LocationViewOf(
    std::string_view reader_epc) const {
  const ReaderInfo* info = Find(reader_epc);
  return info != nullptr ? std::string_view(info->location_id)
                         : std::string_view();
}

std::vector<std::string> ReaderRegistry::ReadersInGroup(
    std::string_view group) const {
  std::vector<std::string> out;
  for (const std::string& reader : registration_order_) {
    auto it = readers_.find(reader);
    if (it != readers_.end() && it->second.group == group) {
      out.push_back(reader);
    }
  }
  return out;
}

}  // namespace rfidcep::epc
