// The order of the syscalls that make checkpoints and WAL segments
// durable. Power loss cannot be simulated in a test; instead this binary
// replaces fsync, rename and unlink (as alloc_budget_test replaces
// operator new), resolves each synced fd through /proc/self/fd, and
// checks the order a crash-safe write needs: a checkpoint's temporary
// file is synced, then renamed over the checkpoint, then its directory
// is synced; a new WAL segment's directory entry is synced before any
// record in it is; a created directory's entry is synced in its parent;
// a store-backed checkpoint replaces the snapshot, then the store image,
// then deletes the WAL segments the image covers, oldest first, each
// deletion synced before the next.

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/state_dir.h"
#include "server/tenant.h"
#include "store/wal.h"
#include "tests/engine/test_util.h"

namespace {

struct Call {
  enum Kind { kSyncFile, kSyncDir, kRename, kUnlink } kind;
  std::string path;                 // kRename: the target.
  std::string from;                 // kRename only.
  std::vector<std::string> listing;  // kSyncDir: the entries then.
};

std::vector<Call>& Calls() {
  static std::vector<Call> calls;
  return calls;
}

std::string FdPath(int fd) {
  char buf[PATH_MAX];
  const std::string link = "/proc/self/fd/" + std::to_string(fd);
  const ssize_t n = ::readlink(link.c_str(), buf, sizeof(buf));
  return n > 0 ? std::string(buf, static_cast<size_t>(n)) : std::string();
}

std::vector<std::string> Listing(const std::string& dir) {
  std::vector<std::string> names;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) names.push_back(entry->d_name);
    ::closedir(d);
  }
  return names;
}

}  // namespace

extern "C" int fsync(int fd) {
  struct stat st {};
  Call call;
  call.path = FdPath(fd);
  call.kind = ::fstat(fd, &st) == 0 && S_ISDIR(st.st_mode) ? Call::kSyncDir
                                                           : Call::kSyncFile;
  if (call.kind == Call::kSyncDir) call.listing = Listing(call.path);
  Calls().push_back(std::move(call));
  return static_cast<int>(::syscall(SYS_fsync, fd));
}

extern "C" int rename(const char* from, const char* to) noexcept {
  Calls().push_back(Call{Call::kRename, to, from, {}});
  return static_cast<int>(
      ::syscall(SYS_renameat2, AT_FDCWD, from, AT_FDCWD, to, 0));
}

extern "C" int unlink(const char* path) noexcept {
  Calls().push_back(Call{Call::kUnlink, path, {}, {}});
  return static_cast<int>(::syscall(SYS_unlinkat, AT_FDCWD, path, 0));
}

namespace rfidcep {
namespace {

namespace fs = std::filesystem;

class DurableWriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("durable_write_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    dir_ = fs::canonical(dir_);  // As /proc/self/fd spells it.
    Calls().clear();
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Index of the first call matching kind and path at or after `from`,
  // or -1.
  static int Find(Call::Kind kind, const std::string& path, int from = 0) {
    const std::vector<Call>& calls = Calls();
    for (size_t i = static_cast<size_t>(from); i < calls.size(); ++i) {
      if (calls[i].kind == kind && calls[i].path == path) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  // Expects each of `created` listed by a sync of its parent directory,
  // which therefore came after the mkdir.
  static void ExpectEntriesSynced(const std::vector<fs::path>& created) {
    for (const fs::path& path : created) {
      SCOPED_TRACE(path.string());
      const std::string name = path.filename().string();
      bool listed = false;
      for (const Call& call : Calls()) {
        listed = listed || (call.kind == Call::kSyncDir &&
                            call.path == path.parent_path().string() &&
                            std::count(call.listing.begin(),
                                       call.listing.end(), name) > 0);
      }
      EXPECT_TRUE(listed);
    }
  }

  fs::path dir_;
};

TEST_F(DurableWriteTest, CheckpointSyncsFileThenRenamesThenSyncsDirectory) {
  engine::testing::EngineHarness h;
  ASSERT_TRUE(h.AddRules("CREATE RULE x, a ON observation(r, o, t) IF true "
                         "DO INSERT INTO OBSERVATION VALUES (r, o, t)")
                  .ok());
  ASSERT_TRUE(h.ObserveAt("r", "o", 1).ok());
  const std::string path = (dir_ / "checkpoint.snap").string();
  const std::string tmp = path + ".tmp";
  // The first checkpoint creates the file; the second replaces it.
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    Calls().clear();
    ASSERT_TRUE(h.engine->Checkpoint(path).ok());
    const int synced = Find(Call::kSyncFile, tmp);
    ASSERT_GE(synced, 0);
    const int renamed = Find(Call::kRename, path, synced);
    ASSERT_GT(renamed, synced);
    EXPECT_EQ(Calls()[static_cast<size_t>(renamed)].from, tmp);
    EXPECT_GT(Find(Call::kSyncDir, dir_.string(), renamed), renamed);
    EXPECT_FALSE(fs::exists(tmp));
  }
  engine::testing::EngineHarness restored;
  ASSERT_TRUE(restored
                  .AddRules("CREATE RULE x, a ON observation(r, o, t) IF true "
                            "DO INSERT INTO OBSERVATION VALUES (r, o, t)")
                  .ok());
  ASSERT_TRUE(restored.engine->Compile().ok());
  EXPECT_TRUE(restored.engine->Restore(path).ok());
}

TEST_F(DurableWriteTest, EachNewWalSegmentSyncsTheDirectory) {
  store::WalOptions options;
  options.segment_bytes = 256;  // A few records per segment.
  Result<std::unique_ptr<store::Wal>> wal =
      store::Wal::Open(dir_.string(), options);
  ASSERT_TRUE(wal.ok()) << wal.status();
  const store::ParamMap params;
  for (uint64_t seq = 1; seq <= 40; ++seq) {
    ASSERT_TRUE((*wal)
                    ->Append(store::WalAppend(store::WalRecordKind::kSql, seq,
                                              0, 1, "rule",
                                              "INSERT INTO t VALUES (1)",
                                              params))
                    .ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  std::vector<std::string> segments;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    segments.push_back(entry.path().filename().string());
  }
  ASSERT_GE(segments.size(), 3u);
  int dir_syncs = 0;
  for (const Call& call : Calls()) {
    if (call.kind == Call::kSyncDir && call.path == dir_.string()) ++dir_syncs;
  }
  EXPECT_EQ(dir_syncs, static_cast<int>(segments.size()));
  for (const std::string& segment : segments) {
    SCOPED_TRACE(segment);
    // The first directory sync that lists the segment comes before the
    // first sync of a record in it.
    int listed = -1;
    for (size_t i = 0; i < Calls().size() && listed < 0; ++i) {
      const Call& call = Calls()[i];
      if (call.kind == Call::kSyncDir && call.path == dir_.string() &&
          std::count(call.listing.begin(), call.listing.end(), segment)) {
        listed = static_cast<int>(i);
      }
    }
    const int synced = Find(Call::kSyncFile, (dir_ / segment).string());
    ASSERT_GE(listed, 0);
    ASSERT_GE(synced, 0);
    EXPECT_LT(listed, synced);
  }
}

// Once a checkpoint trims the log, wal/ holds the only copy of the
// records past the image: the directories leading to it must survive a
// power loss, so each one created is synced into its parent.
TEST_F(DurableWriteTest, CreatedDirectoriesSyncTheirParents) {
  const fs::path wal = dir_ / "new" / "wal";
  ASSERT_TRUE(store::Wal::Open(wal.string()).ok());
  ExpectEntriesSynced({dir_ / "new", wal});

  Calls().clear();
  server::TenantConfig config;
  config.name = "t";
  config.rules_text =
      "CREATE RULE x, a ON observation(r, o, t) IF true "
      "DO INSERT INTO OBSERVATION VALUES (r, o, t)";
  const fs::path state = dir_ / "state";
  ASSERT_TRUE(server::Tenant::Open(config, state.string()).ok());
  ExpectEntriesSynced({state, state / "t", state / "t" / "wal"});
}

TEST_F(DurableWriteTest, StoreCheckpointWritesSnapshotThenImageThenTrims) {
  engine::testing::EngineHarness h;
  ASSERT_TRUE(h.AddRules("CREATE RULE x, a ON observation(r, o, t) IF true "
                         "DO INSERT INTO OBSERVATION VALUES (r, o, t)")
                  .ok());
  const engine::StateDir state(dir_.string());
  store::WalOptions options;
  options.segment_bytes = 256;  // A few records per segment.
  Result<engine::StateDir::Recovered> recovered =
      state.Recover(*h.engine, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  for (int i = 1; i <= 30; ++i) ASSERT_TRUE(h.ObserveAt("r", "o", i).ok());
  std::vector<std::string> segments;
  for (const auto& entry : fs::directory_iterator(state.wal_dir())) {
    segments.push_back(entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  ASSERT_GE(segments.size(), 3u);

  Calls().clear();
  ASSERT_TRUE(state.Checkpoint(*h.engine).ok());
  const int snapshot = Find(Call::kRename, state.snapshot_path());
  const int image = Find(Call::kRename, state.image_path());
  ASSERT_GE(snapshot, 0);
  EXPECT_GT(image, snapshot);
  EXPECT_GT(Find(Call::kSyncDir, dir_.string(), image), image);
  // Every segment there was goes, oldest first, each deletion synced
  // before the next one.
  int last = image;
  for (const std::string& segment : segments) {
    SCOPED_TRACE(segment);
    const int unlinked = Find(Call::kUnlink, segment, last);
    ASSERT_GT(unlinked, last);
    last = Find(Call::kSyncDir, state.wal_dir(), unlinked);
    ASSERT_GT(last, unlinked);
  }
  EXPECT_EQ(recovered->wal->first_lsn(), recovered->wal->last_lsn() + 1);
}

}  // namespace
}  // namespace rfidcep
