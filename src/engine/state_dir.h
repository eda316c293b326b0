// The durable state of one engine in a directory, and the one checkpoint
// call and the one recovery call that write and read it
// (docs/recovery.md "The store image"):
//
//   <dir>/checkpoint.snap  the detector snapshot (engine/snapshot.h)
//   <dir>/store.img        the store at the snapshot's durable LSN
//                          (store/store_image.h)
//   <dir>/wal/             the store WAL from at most the record after
//                          the image (store/wal.h)
//
// A store-backed checkpoint writes the snapshot, then the image, then
// trims the WAL; recovery loads the image, replays only the log past it
// and restores the snapshot, so a relaunch costs the live store plus at
// most one checkpoint interval of log. A crash anywhere between those
// writes leaves files that recover exactly or that recovery refuses. An
// engine without a store keeps the snapshot alone.

#ifndef RFIDCEP_ENGINE_STATE_DIR_H_
#define RFIDCEP_ENGINE_STATE_DIR_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "engine/engine.h"
#include "store/wal.h"

namespace rfidcep::engine {

class StateDir {
 public:
  explicit StateDir(const std::string& dir);

  const std::string& snapshot_path() const { return snapshot_path_; }
  const std::string& image_path() const { return image_path_; }
  const std::string& wal_dir() const { return wal_dir_; }

  struct Recovered {
    std::unique_ptr<store::Wal> wal;  // Null for an engine without a store.
    bool restored = false;            // A checkpoint was found and restored.
  };

  // Recovers `engine`, which has its rules and is not compiled, creating
  // the directory if it is missing. For an engine with a store: loads
  // store.img into the store when there is one, opens wal/ replaying the
  // records past the image's LSN (the whole log without an image) and
  // attaches it. Then compiles, and restores checkpoint.snap when there
  // is one. The returned WAL must outlive the engine.
  //
  // Refuses with kFailedPrecondition, before it touches the store or the
  // engine, an image with no checkpoint beside it and a log that starts
  // past the image's LSN + 1: records the image does not cover are gone.
  // RcedaEngine::RestoreState refuses a log that starts past the
  // snapshot's durable LSN + 1. A failed restore leaves the engine
  // decompiled with no WAL attached.
  Result<Recovered> Recover(RcedaEngine& engine,
                            store::WalOptions wal_options = {}) const;

  // Checkpoints the compiled `engine`: replaces checkpoint.snap, then,
  // when a WAL is attached, replaces store.img with the store at the
  // snapshot's durable LSN and trims the WAL through that LSN.
  Status Checkpoint(RcedaEngine& engine) const;

 private:
  std::string dir_;
  std::string snapshot_path_;
  std::string image_path_;
  std::string wal_dir_;
};

}  // namespace rfidcep::engine

#endif  // RFIDCEP_ENGINE_STATE_DIR_H_
