// engine::StateDir: the store-backed checkpoint (snapshot, store image,
// WAL trim) and the recovery that loads the image and replays only the
// log past it, with the refusals that close the crash windows between
// those writes (docs/recovery.md "The store image").

#include "engine/state_dir.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "store/csv.h"
#include "store/store_image.h"
#include "tests/engine/test_util.h"

namespace rfidcep::engine {
namespace {

namespace fs = std::filesystem;

// A location history (the UPDATE closes the open interval an INSERT
// opened: later rows depend on earlier ones) and an alarm procedure.
constexpr std::string_view kRules = R"(
  CREATE RULE loc, location history rule
  ON observation(r, o, t)
  IF true
  DO UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND
     tend = "UC";
     INSERT INTO OBJECTLOCATION VALUES (o, r, t, "UC")

  CREATE RULE dup, duplicate read rule
  ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
  IF true
  DO raise alarm
)";

std::vector<events::Observation> Trace(size_t n) {
  std::vector<events::Observation> trace;
  for (size_t i = 0; i < n; ++i) {
    trace.push_back({"dock" + std::to_string(i % 3),
                     "obj" + std::to_string(i % 7),
                     static_cast<TimePoint>(i) * kSecond});
  }
  return trace;
}

std::string DumpStore(const store::Database& db) {
  std::string out;
  for (const store::Table* table : db.Tables()) {
    out += table->name() + "\n" + store::TableToCsv(*table);
  }
  return out;
}

// An engine over its own store, with the rules but not compiled.
struct Rig {
  Rig() {
    EXPECT_TRUE(h.AddRules(kRules).ok());
    h.engine->RegisterProcedure(
        "raise alarm", [this](const RuleFiring&, const std::string&) {
          ++alarms;
        });
  }
  Status Process(const std::vector<events::Observation>& obs, size_t begin,
                 size_t end) {
    for (size_t i = begin; i < end; ++i) {
      RFIDCEP_RETURN_IF_ERROR(h.engine->Process(obs[i]));
    }
    return Status::Ok();
  }

  testing::EngineHarness h;
  int alarms = 0;
  std::unique_ptr<store::Wal> wal;
};

class StateDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("state_dir_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Recovers `rig` from the state dir, keeping its WAL.
  void RecoverOrDie(Rig* rig, bool expect_restored) {
    Result<StateDir::Recovered> recovered = state().Recover(*rig->h.engine);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovered->restored, expect_restored);
    rig->wal = std::move(recovered->wal);
  }

  StateDir state() const { return StateDir(dir_.string()); }

  std::vector<fs::path> WalFiles() const {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(state().wal_dir())) {
      files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  // Expects a refusal that names `lsns`, leaves the rig's store as it was
  // and its engine uncompiled without a WAL.
  void ExpectRefused(Rig* rig, const std::vector<uint64_t>& lsns,
                     StatusCode code = StatusCode::kFailedPrecondition) {
    const std::string before = DumpStore(rig->h.db);
    Result<StateDir::Recovered> recovered = state().Recover(*rig->h.engine);
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), code) << recovered.status();
    for (uint64_t lsn : lsns) {
      EXPECT_NE(recovered.status().message().find("LSN " +
                                                  std::to_string(lsn)),
                std::string::npos)
          << lsn << ": " << recovered.status().message();
    }
    EXPECT_EQ(DumpStore(rig->h.db), before);
    EXPECT_FALSE(rig->h.engine->compiled());
    EXPECT_EQ(rig->h.engine->wal(), nullptr);
  }

  fs::path dir_;
};

// Snapshot, image, trim; a crash after more logged work; recovery loads
// the image, replays only the log past it and continues exactly.
TEST_F(StateDirTest, RecoveryLoadsTheImageAndReplaysOnlyThePastLog) {
  const std::vector<events::Observation> trace = Trace(120);
  Rig reference;
  ASSERT_TRUE(reference.h.engine->Compile().ok());
  ASSERT_TRUE(reference.Process(trace, 0, trace.size()).ok());

  uint64_t checkpoint_lsn = 0;
  int alarms_before = 0;
  {
    Rig crashed;
    RecoverOrDie(&crashed, /*expect_restored=*/false);
    ASSERT_TRUE(crashed.Process(trace, 0, 60).ok());
    ASSERT_TRUE(state().Checkpoint(*crashed.h.engine).ok());
    checkpoint_lsn = crashed.wal->last_lsn();
    ASSERT_GT(checkpoint_lsn, 0u);
    EXPECT_TRUE(fs::exists(state().snapshot_path()));
    EXPECT_TRUE(fs::exists(state().image_path()));
    // The WAL holds nothing at or below the checkpoint: one empty
    // segment carries the LSN cursor.
    const std::vector<fs::path> files = WalFiles();
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(fs::file_size(files[0]), 0u);
    EXPECT_EQ(crashed.wal->first_lsn(), checkpoint_lsn + 1);
    // Logged after the checkpoint, then lost with the process.
    ASSERT_TRUE(crashed.Process(trace, 60, 90).ok());
    alarms_before = crashed.alarms;
    ASSERT_TRUE(crashed.wal->Sync().ok());
  }

  Rig recovered;
  RecoverOrDie(&recovered, /*expect_restored=*/true);
  EXPECT_EQ(recovered.wal->first_lsn(), checkpoint_lsn + 1);
  EXPECT_GT(recovered.wal->last_lsn(), checkpoint_lsn);
  ASSERT_TRUE(recovered.Process(trace, 60, trace.size()).ok());
  EXPECT_EQ(DumpStore(recovered.h.db), DumpStore(reference.h.db));
  for (const char* rule : {"loc", "dup"}) {
    EXPECT_EQ(recovered.h.engine->FiredCount(rule),
              reference.h.engine->FiredCount(rule))
        << rule;
  }
  // The logged alarms past the checkpoint were not raised again.
  EXPECT_EQ(alarms_before + recovered.alarms, reference.alarms);
  EXPECT_EQ(recovered.h.engine->stats().procedures_invoked,
            reference.h.engine->stats().procedures_invoked);
}

// The image stands for a trimmed log only beside the snapshot taken at
// its LSN.
TEST_F(StateDirTest, ImageWithoutCheckpointIsRefused) {
  const std::vector<events::Observation> trace = Trace(40);
  uint64_t lsn = 0;
  {
    Rig rig;
    RecoverOrDie(&rig, false);
    ASSERT_TRUE(rig.Process(trace, 0, trace.size()).ok());
    ASSERT_TRUE(state().Checkpoint(*rig.h.engine).ok());
    lsn = rig.wal->last_lsn();
  }
  fs::remove(state().snapshot_path());
  Rig rig;
  ASSERT_TRUE(rig.h.db.GetTable("OBSERVATION")
                  ->Insert({store::Value::String("r"),
                            store::Value::String("o"), store::Value::Time(1)})
                  .ok());  // So "untouched" means something.
  ExpectRefused(&rig, {lsn, lsn + 1});
}

// Records neither the image nor the log holds are gone: an image older
// than the trim, or a trimmed log with no image at all.
TEST_F(StateDirTest, LogStartingPastTheImageIsRefused) {
  const std::vector<events::Observation> trace = Trace(80);
  const fs::path first_image = dir_.string() + "-first.img";
  uint64_t first_lsn = 0;
  uint64_t second_lsn = 0;
  {
    Rig rig;
    RecoverOrDie(&rig, false);
    ASSERT_TRUE(rig.Process(trace, 0, 40).ok());
    ASSERT_TRUE(state().Checkpoint(*rig.h.engine).ok());
    first_lsn = rig.wal->last_lsn();
    fs::copy_file(state().image_path(), first_image,
                  fs::copy_options::overwrite_existing);
    ASSERT_TRUE(rig.Process(trace, 40, 80).ok());
    ASSERT_TRUE(state().Checkpoint(*rig.h.engine).ok());
    second_lsn = rig.wal->last_lsn();
  }
  ASSERT_GT(second_lsn, first_lsn);
  fs::copy_file(first_image, state().image_path(),
                fs::copy_options::overwrite_existing);
  fs::remove(first_image);
  {
    Rig rig;
    ExpectRefused(&rig, {second_lsn + 1, first_lsn});
  }
  fs::remove(state().image_path());
  Rig rig;
  ExpectRefused(&rig, {second_lsn + 1, 0});
}

TEST_F(StateDirTest, DamagedImageIsRefusedWithTheStoreUntouched) {
  {
    Rig rig;
    RecoverOrDie(&rig, false);
    ASSERT_TRUE(rig.Process(Trace(20), 0, 20).ok());
    ASSERT_TRUE(state().Checkpoint(*rig.h.engine).ok());
  }
  std::string image;
  ASSERT_TRUE(common::ReadFile(state().image_path(), &image).ok());
  image[image.size() - 1] ^= 0x40;  // Breaks the last frame's CRC.
  ASSERT_TRUE(common::ReplaceFile(state().image_path(), image).ok());
  Rig rig;
  ExpectRefused(&rig, {}, StatusCode::kInvalidArgument);
}

// RestoreState checks the attached log against the snapshot: a log that
// starts past its durable LSN + 1 lost records the dedup set needs, and
// the refused restore installs nothing.
TEST_F(StateDirTest, RestoreRefusesALogStartingPastTheCheckpoint) {
  const std::vector<events::Observation> trace = Trace(60);
  std::string snapshot;
  uint64_t durable = 0;
  uint64_t trimmed = 0;
  {
    Rig rig;
    RecoverOrDie(&rig, false);
    ASSERT_TRUE(rig.Process(trace, 0, 30).ok());
    ASSERT_TRUE(rig.h.engine->SerializeState(&snapshot).ok());
    durable = rig.wal->last_lsn();
    ASSERT_TRUE(rig.Process(trace, 30, 60).ok());
    trimmed = rig.wal->last_lsn();
    ASSERT_GT(trimmed, durable);
    ASSERT_TRUE(rig.wal->Trim(trimmed).ok());
  }
  Rig rig;
  Result<std::unique_ptr<store::Wal>> wal = store::Wal::Open(state().wal_dir());
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE(rig.h.engine->AttachWal(wal->get()).ok());
  ASSERT_TRUE(rig.h.engine->Compile().ok());
  std::string before;
  ASSERT_TRUE(rig.h.engine->SerializeState(&before).ok());
  const Status status = rig.h.engine->RestoreState(snapshot);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  EXPECT_NE(status.message().find("starts at LSN " +
                                  std::to_string(trimmed + 1)),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("durable LSN " + std::to_string(durable)),
            std::string::npos)
      << status.message();
  std::string after;
  ASSERT_TRUE(rig.h.engine->SerializeState(&after).ok());
  EXPECT_EQ(after, before);
  EXPECT_EQ(rig.h.engine->stats().detector.observations, 0u);
}

TEST_F(StateDirTest, EngineWithoutStoreKeepsTheSnapshotAlone) {
  auto make = [] {
    auto engine = std::make_unique<RcedaEngine>(nullptr, events::Environment{});
    EXPECT_TRUE(engine
                    ->AddRulesFromText("CREATE RULE d, dup ON WITHIN("
                                       "observation(r, o, t1); observation(r, "
                                       "o, t2), 5sec) IF true DO act")
                    .ok());
    return engine;
  };
  auto first = make();
  Result<StateDir::Recovered> opened = state().Recover(*first);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened->wal, nullptr);
  EXPECT_FALSE(opened->restored);
  ASSERT_TRUE(first->Process({"r", "o", 1}).ok());
  ASSERT_TRUE(first->Process({"r", "o", 2}).ok());
  ASSERT_TRUE(state().Checkpoint(*first).ok());
  EXPECT_FALSE(fs::exists(state().image_path()));
  EXPECT_FALSE(fs::exists(state().wal_dir()));

  auto second = make();
  Result<StateDir::Recovered> recovered = state().Recover(*second);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->restored);
  EXPECT_EQ(second->FiredCount("d"), first->FiredCount("d"));
}

}  // namespace
}  // namespace rfidcep::engine
