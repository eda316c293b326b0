#include "engine/state_dir.h"

#include <filesystem>
#include <optional>
#include <utility>

#include "common/durable_file.h"
#include "store/store_image.h"

namespace rfidcep::engine {

namespace fs = std::filesystem;

StateDir::StateDir(const std::string& dir)
    : dir_(dir),
      snapshot_path_((fs::path(dir) / "checkpoint.snap").string()),
      image_path_((fs::path(dir) / "store.img").string()),
      wal_dir_((fs::path(dir) / "wal").string()) {}

Result<StateDir::Recovered> StateDir::Recover(
    RcedaEngine& engine, store::WalOptions wal_options) const {
  RFIDCEP_RETURN_IF_ERROR(common::CreateDirectories(dir_));
  const bool has_snapshot = fs::exists(snapshot_path_);
  Recovered out;
  if (store::Database* db = engine.db(); db != nullptr) {
    RFIDCEP_ASSIGN_OR_RETURN(const uint64_t first_lsn,
                             store::Wal::FirstLsn(wal_dir_));
    std::optional<store::StoreImage> image;
    if (fs::exists(image_path_)) {
      RFIDCEP_ASSIGN_OR_RETURN(image, store::LoadStoreImage(image_path_));
      // The image stands for a trimmed log only together with the
      // snapshot taken at its LSN: without one the engine would restart
      // its firings from scratch and repeat the effects the image holds.
      if (!has_snapshot) {
        return Status::FailedPrecondition(
            "store image " + image_path_ + " holds the store at LSN " +
            std::to_string(image->lsn) + " and the WAL starts at LSN " +
            std::to_string(first_lsn) + ", but there is no checkpoint " +
            snapshot_path_);
      }
    }
    const uint64_t image_lsn = image.has_value() ? image->lsn : 0;
    if (first_lsn > image_lsn + 1) {
      const std::string covered =
          image.has_value() ? "store image " + image_path_ + " holds LSN " +
                                  std::to_string(image_lsn)
                            : "there is no store image (LSN 0)";
      return Status::FailedPrecondition(
          "WAL " + wal_dir_ + " starts at LSN " + std::to_string(first_lsn) +
          " but " + covered + ": the records between them are gone");
    }
    if (image.has_value()) db->ReplaceTables(std::move(image->tables));
    RFIDCEP_ASSIGN_OR_RETURN(
        out.wal, store::Wal::Open(wal_dir_, wal_options, db, image_lsn));
    RFIDCEP_RETURN_IF_ERROR(engine.AttachWal(out.wal.get()));
  }
  Status status = engine.Compile();
  if (status.ok() && has_snapshot) {
    status = engine.Restore(snapshot_path_);
    if (!status.ok()) {
      status = Status(status.code(), "restoring " + snapshot_path_ + ": " +
                                         status.message());
    }
    out.restored = status.ok();
  }
  if (!status.ok()) {
    // The WAL dies with `out`: the engine must not keep a pointer to it.
    engine.Decompile();
    (void)engine.AttachWal(nullptr);
    return status;
  }
  return out;
}

Status StateDir::Checkpoint(RcedaEngine& engine) const {
  RFIDCEP_RETURN_IF_ERROR(engine.Checkpoint(snapshot_path_));
  store::Wal* wal = engine.wal();
  if (wal == nullptr) return Status::Ok();
  // The snapshot's durable LSN: the engine's one caller is here, so
  // nothing has been appended since the snapshot read it.
  const uint64_t lsn = wal->last_lsn();
  if (Status s = store::WriteStoreImage(image_path_, *engine.db(), lsn);
      !s.ok()) {
    return Status(s.code(), "cannot write store image: " + s.message());
  }
  return wal->Trim(lsn);
}

}  // namespace rfidcep::engine
