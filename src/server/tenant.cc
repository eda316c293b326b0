#include "server/tenant.h"

#include <filesystem>
#include <sstream>
#include <utility>

#include "common/durable_file.h"
#include "events/event_type.h"

namespace rfidcep::server {
namespace {

namespace fs = std::filesystem;

Status ParseBool(const std::string& key, const std::string& value, bool* out) {
  if (value == "0" || value == "false" || value == "off") {
    *out = false;
    return Status::Ok();
  }
  if (value == "1" || value == "true" || value == "on") {
    *out = true;
    return Status::Ok();
  }
  return Status::InvalidArgument("tenant config: bad boolean " + key + "=" +
                                 value);
}

}  // namespace

Result<std::vector<TenantConfig>> ParseTenantConfigText(
    std::string_view text, const std::string& base_dir) {
  std::vector<TenantConfig> tenants;
  std::istringstream in{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::string word;
    if (!(fields >> word) || word[0] == '#') continue;
    const std::string at = " (line " + std::to_string(line_no) + ")";
    if (word != "tenant") {
      return Status::InvalidArgument("tenant config: expected 'tenant', got '" +
                                     word + "'" + at);
    }
    TenantConfig config;
    if (!(fields >> config.name)) {
      return Status::InvalidArgument("tenant config: missing tenant name" + at);
    }
    for (const TenantConfig& existing : tenants) {
      if (existing.name == config.name) {
        return Status::InvalidArgument("tenant config: duplicate tenant '" +
                                       config.name + "'" + at);
      }
    }
    while (fields >> word) {
      const size_t eq = word.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("tenant config: expected key=value, "
                                       "got '" +
                                       word + "'" + at);
      }
      const std::string key = word.substr(0, eq);
      const std::string value = word.substr(eq + 1);
      if (key == "rules") {
        fs::path p(value);
        config.rules_file =
            p.is_absolute() || base_dir.empty()
                ? value
                : (fs::path(base_dir) / p).string();
      } else if (key == "store") {
        RFIDCEP_RETURN_IF_ERROR(ParseBool(key, value, &config.store));
      } else if (key == "tolerate_out_of_order") {
        RFIDCEP_RETURN_IF_ERROR(
            ParseBool(key, value, &config.tolerate_out_of_order));
      } else {
        return Status::InvalidArgument("tenant config: unknown key '" + key +
                                       "'" + at);
      }
    }
    if (config.rules_file.empty()) {
      return Status::InvalidArgument("tenant config: tenant '" + config.name +
                                     "' has no rules= file" + at);
    }
    tenants.push_back(std::move(config));
  }
  if (tenants.empty()) {
    return Status::InvalidArgument("tenant config: no tenants defined");
  }
  return tenants;
}

Result<std::vector<TenantConfig>> ParseTenantConfigFile(
    const std::string& path) {
  std::string text;
  RFIDCEP_RETURN_IF_ERROR(common::ReadFile(path, &text));
  return ParseTenantConfigText(text, fs::path(path).parent_path().string());
}

Result<std::unique_ptr<Tenant>> Tenant::Open(TenantConfig config,
                                             const std::string& state_dir) {
  std::string rules = config.rules_text;
  if (rules.empty()) {
    RFIDCEP_RETURN_IF_ERROR(common::ReadFile(config.rules_file, &rules));
  }
  const std::string tenant_dir = (fs::path(state_dir) / config.name).string();
  std::unique_ptr<Tenant> tenant(new Tenant(std::move(config), tenant_dir));

  // Recovery order (docs/recovery.md): the store image, if any, and one
  // walk over the WAL past it rebuild a fresh store and collect the dedup
  // set; attaching the WAL hands that set to the dispatcher; then compile
  // and restore the snapshot. Any suffix the checkpoint missed is
  // re-derived when clients resend unacknowledged frames.
  if (tenant->config_.store) {
    tenant->db_ = std::make_unique<store::Database>();
    RFIDCEP_RETURN_IF_ERROR(tenant->db_->InstallRfidSchema());
  }
  engine::EngineOptions options;
  options.detector.tolerate_out_of_order =
      tenant->config_.tolerate_out_of_order;
  tenant->engine_ = std::make_unique<engine::RcedaEngine>(
      tenant->db_.get(), events::Environment{}, options);
  RFIDCEP_RETURN_IF_ERROR(tenant->engine_->AddRulesFromText(rules));
  RFIDCEP_ASSIGN_OR_RETURN(engine::StateDir::Recovered recovered,
                           tenant->state_.Recover(*tenant->engine_));
  tenant->wal_ = std::move(recovered.wal);
  tenant->restored_ = recovered.restored;
  return tenant;
}

Status Tenant::Checkpoint() { return state_.Checkpoint(*engine_); }

}  // namespace rfidcep::server
