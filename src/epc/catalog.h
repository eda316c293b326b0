// User-defined mapping functions over EPC attributes (paper §2.1):
//
//   * type(o)  — the object type of a tag EPC, resolved either from the
//     EPC's item class (SGTIN company prefix + item reference) or from an
//     exact per-EPC override ("specified by a user with a mapping function").
//   * group(r) — the reader group a reader EPC belongs to. Readers with no
//     registered group default to a singleton group named by the reader EPC
//     itself, matching the paper's default
//     E = observation('r', o, t)  <=>  group(r) = 'r'.
//
// Both catalogs are plain string-keyed maps so applications can also use
// opaque (non-TDS) identifiers such as "r1" or "case1" — the paper's
// examples do exactly that.

#ifndef RFIDCEP_EPC_CATALOG_H_
#define RFIDCEP_EPC_CATALOG_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "epc/epc.h"

namespace rfidcep::epc {

class ProductCatalog {
 public:
  // Associates every serial of the SGTIN item class identified by
  // (company_prefix, company_digits, item_reference) with `type_name`.
  Status RegisterItemClass(uint64_t company_prefix, int company_digits,
                           uint64_t item_reference, std::string type_name);

  // Associates one exact EPC string with `type_name`, overriding any item
  // class mapping. Accepts arbitrary identifiers.
  void RegisterExact(std::string epc, std::string type_name);

  // Resolves type(o). Resolution order: exact override, then SGTIN item
  // class (when `epc` parses as an EPC URI), then "" (unknown).
  std::string TypeOf(std::string_view epc) const;

  // Allocation-free variant for the per-observation path. The returned
  // view aliases the catalog (valid until the next registration) and is
  // empty for unknown EPCs.
  std::string_view TypeViewOf(std::string_view epc) const;

  size_t size() const { return by_class_.size() + exact_.size(); }

 private:
  StringViewMap<std::string> by_class_;  // ClassKey -> type
  StringViewMap<std::string> exact_;     // EPC -> type
};

class ReaderRegistry {
 public:
  struct ReaderInfo {
    std::string group;        // Reader group for group(r).
    std::string location_id;  // Symbolic location the reader signals.
  };

  // Registers a reader with its group and the symbolic location it covers.
  // Re-registering a reader overwrites its entry. Either way the
  // generation moves on.
  void RegisterReader(std::string reader_epc, std::string group,
                      std::string location_id);

  // The entry of a registered reader, or nullptr. Valid until the next
  // registration.
  const ReaderInfo* Find(std::string_view reader_epc) const {
    auto it = readers_.find(reader_epc);
    return it != readers_.end() ? &it->second : nullptr;
  }

  // Counts registrations. Whatever a caller resolved from the registry
  // (a group view, a location) stays current while this stays the same.
  uint64_t generation() const { return generation_; }

  // group(r): the registered group, or `reader_epc` itself if unregistered
  // (the paper's default).
  std::string GroupOf(std::string_view reader_epc) const;

  // The symbolic location of a reader, or "" if unregistered.
  std::string LocationOf(std::string_view reader_epc) const;

  // Allocation-free variants for the per-observation path. The returned
  // views alias either the registry (valid until re-registration) or
  // `reader_epc` itself (GroupViewOf's unregistered default).
  std::string_view GroupViewOf(std::string_view reader_epc) const;
  std::string_view LocationViewOf(std::string_view reader_epc) const;

  // All readers registered in `group`, in registration order.
  std::vector<std::string> ReadersInGroup(std::string_view group) const;

  size_t size() const { return readers_.size(); }

 private:
  StringViewMap<ReaderInfo> readers_;
  std::vector<std::string> registration_order_;
  uint64_t generation_ = 0;
};

}  // namespace rfidcep::epc

#endif  // RFIDCEP_EPC_CATALOG_H_
