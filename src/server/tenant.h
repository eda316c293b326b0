// Tenants: one named RCEDA engine per site behind the daemon.
//
// A tenant owns the full durable stack for one deployment — in-memory
// RFID store, store WAL, compiled engine — plus its slice of the state
// directory. Open() rebuilds the stack in recovery order (one walk over
// the WAL replays it into a fresh store and collects the dedup set,
// then attach, compile, snapshot restore), so a restarted daemon
// resumes exactly where the last checkpoint left it (docs/recovery.md).
// The server drives a tenant only through the narrow
// engine::EngineFrontend surface and the checkpoint entry point; one
// mutex per tenant serializes connections feeding the same engine. Each
// engine call runs to completion on the calling connection thread,
// which acks the frame only after it returns.

#ifndef RFIDCEP_SERVER_TENANT_H_
#define RFIDCEP_SERVER_TENANT_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "store/database.h"
#include "store/wal.h"

namespace rfidcep::server {

struct TenantConfig {
  std::string name;
  // Exactly one of the two: a rule program file, or inline rule text
  // (tests and embedders).
  std::string rules_file;
  std::string rules_text;
  // When true (default) the tenant gets an RFID store + WAL; rules with
  // SQL actions require it.
  bool store = true;
  bool tolerate_out_of_order = false;
};

// Parses the daemon's tenant config: one tenant per line,
//   tenant <name> rules=<file> [store=0|1]
//          [tolerate_out_of_order=0|1]
// Blank lines and '#' comments are skipped. Relative rules paths
// resolve against the config file's directory.
Result<std::vector<TenantConfig>> ParseTenantConfigFile(
    const std::string& path);
Result<std::vector<TenantConfig>> ParseTenantConfigText(
    std::string_view text, const std::string& base_dir);

class Tenant {
 public:
  // Builds and recovers the tenant under `state_dir/<name>/`:
  // wal/ holds the store WAL, checkpoint.snap the latest snapshot.
  static Result<std::unique_ptr<Tenant>> Open(TenantConfig config,
                                              const std::string& state_dir);

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  const std::string& name() const { return config_.name; }
  const TenantConfig& config() const { return config_; }

  // The daemon-facing surface. Callers hold mu() around streaming and
  // checkpoint calls; the engine itself is single-caller.
  engine::EngineFrontend& frontend() { return *engine_; }
  // Full engine access for in-process embedders (tests register
  // procedures, inspect layout); the daemon itself stays on frontend().
  engine::RcedaEngine& engine() { return *engine_; }
  // The tenant's RFID store; null when the config disables it. Callers
  // hold mu() while reading it under a live server.
  store::Database* db() { return db_.get(); }

  std::mutex& mu() { return mu_; }

  // Serializes engine state (which syncs the WAL first) and atomically
  // replaces checkpoint.snap. The durability point of the SIGTERM path.
  Status Checkpoint();

  // True when Open() found and restored a previous checkpoint.
  bool restored() const { return restored_; }
  const std::string& checkpoint_path() const { return checkpoint_path_; }

 private:
  explicit Tenant(TenantConfig config) : config_(std::move(config)) {}

  const TenantConfig config_;
  std::string checkpoint_path_;
  bool restored_ = false;
  std::mutex mu_;
  // Destruction order matters: the engine holds pointers to the WAL and
  // the database, so it must die before the WAL, which must die before
  // the database it logically belongs to.
  std::unique_ptr<store::Database> db_;
  std::unique_ptr<store::Wal> wal_;
  std::unique_ptr<engine::RcedaEngine> engine_;
};

}  // namespace rfidcep::server

#endif  // RFIDCEP_SERVER_TENANT_H_
