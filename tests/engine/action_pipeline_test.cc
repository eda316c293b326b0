// Rule actions + store WAL: exactly-once store effects across a
// simulated crash, and the refusal of older checkpoints that carry
// pending action firings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/snapshot.h"
#include "events/observation.h"
#include "store/csv.h"
#include "store/database.h"
#include "store/wal.h"
#include "tests/engine/test_util.h"

namespace rfidcep::engine {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kRules = R"(
  CREATE RULE loc, location update rule
  ON observation(r, o, t)
  IF true
  DO UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND tend = "UC";
     INSERT INTO OBJECTLOCATION VALUES (o, r, t, "UC")

  CREATE RULE dup, duplicate read rule
  ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
  IF true
  DO INSERT INTO OBSERVATION VALUES (r, o, t2)
)";

// A deterministic stream that exercises both rules: every observation
// fires `loc` (two SQL actions); the same (reader, object) pair recurs
// every 2.5 seconds, inside `dup`'s 5-second window.
std::vector<events::Observation> MakeStream(int count) {
  std::vector<events::Observation> stream;
  stream.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::string reader = "dock" + std::to_string(i % 5);
    std::string object = "obj" + std::to_string(i % 5);
    stream.push_back(events::Observation{
        reader, object, static_cast<TimePoint>(i) * (kSecond / 2)});
  }
  return stream;
}

struct Rig {
  explicit Rig(std::string_view rules = kRules) {
    EXPECT_TRUE(db.InstallRfidSchema().ok());
    engine = std::make_unique<RcedaEngine>(&db, events::Environment{});
    EXPECT_TRUE(engine->AddRulesFromText(rules).ok());
  }

  Status Run(const std::vector<events::Observation>& stream, size_t begin = 0,
             size_t end = SIZE_MAX) {
    if (!engine->compiled()) {
      RFIDCEP_RETURN_IF_ERROR(engine->Compile());
    }
    end = std::min(end, stream.size());
    for (size_t i = begin; i < end; ++i) {
      RFIDCEP_RETURN_IF_ERROR(engine->Process(stream[i]));
    }
    return Status::Ok();
  }

  store::Database db;
  std::unique_ptr<RcedaEngine> engine;
};

std::string DumpStore(store::Database* db) {
  std::string out;
  for (const char* table :
       {"OBSERVATION", "OBJECTLOCATION", "OBJECTCONTAINMENT"}) {
    out += table;
    out += "\n";
    out += store::TableToCsv(*db->GetTable(table));
  }
  return out;
}

class TempWalDir {
 public:
  explicit TempWalDir(const std::string& name)
      : dir_(fs::path(::testing::TempDir()) / name) {
    fs::remove_all(dir_);
  }
  ~TempWalDir() { fs::remove_all(dir_); }
  std::string str() const { return dir_.string(); }
  // Simulates a crash that loses everything past `keep_bytes` (tests use
  // the default 4MB segment size, so the log is one file).
  void TruncateAt(uint64_t keep_bytes) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      files.push_back(entry.path());
    }
    ASSERT_EQ(files.size(), 1u);
    ASSERT_GE(fs::file_size(files[0]), keep_bytes);
    fs::resize_file(files[0], keep_bytes);
  }

 private:
  fs::path dir_;
};

// Crash after a checkpoint: everything the WAL lost past the checkpoint
// is re-derived by reprocessing the suffix; store contents end up
// byte-identical to an uninterrupted run.
TEST(ActionPipelineTest, ExactlyOnceAcrossCrashWithLostTail) {
  std::vector<events::Observation> stream = MakeStream(200);
  const size_t kCut = 100;

  Rig reference;
  ASSERT_TRUE(reference.Run(stream).ok());
  ASSERT_TRUE(reference.engine->Flush().ok());
  std::string expected = DumpStore(&reference.db);

  TempWalDir wal_dir("action_pipeline_crash");
  std::string snapshot_bytes;
  uint64_t checkpoint_bytes = 0;
  {
    Result<std::unique_ptr<store::Wal>> wal = store::Wal::Open(wal_dir.str());
    ASSERT_TRUE(wal.ok()) << wal.status().message();
    Rig crashed;
    ASSERT_TRUE(crashed.engine->AttachWal(wal->get()).ok());
    ASSERT_TRUE(crashed.Run(stream, 0, kCut).ok());
    ASSERT_TRUE(crashed.engine->SerializeState(&snapshot_bytes).ok());
    checkpoint_bytes = (*wal)->total_bytes();  // Post-sync: all on disk.
    // Work past the checkpoint, then "crash": no Flush, engine torn down
    // mid-stream and the WAL tail discarded below.
    ASSERT_TRUE(crashed.Run(stream, kCut, 160).ok());
  }
  wal_dir.TruncateAt(checkpoint_bytes);

  Result<std::unique_ptr<store::Wal>> wal = store::Wal::Open(wal_dir.str());
  ASSERT_TRUE(wal.ok()) << wal.status().message();
  Rig recovered;
  Result<uint64_t> cursor = ReplayWalIntoDatabase(**wal, &recovered.db);
  ASSERT_TRUE(cursor.ok()) << cursor.status().message();
  ASSERT_TRUE(recovered.engine->AttachWal(wal->get()).ok());
  ASSERT_TRUE(recovered.engine->Compile().ok());
  ASSERT_TRUE(recovered.engine->RestoreState(snapshot_bytes).ok());
  ASSERT_TRUE(recovered.Run(stream, kCut).ok());
  ASSERT_TRUE(recovered.engine->Flush().ok());

  EXPECT_EQ(DumpStore(&recovered.db), expected);
  EXPECT_EQ(recovered.engine->stats().rules_fired,
            reference.engine->stats().rules_fired);
  EXPECT_EQ(recovered.engine->stats().sql_actions_executed,
            reference.engine->stats().sql_actions_executed);
  for (const char* rule : {"loc", "dup"}) {
    EXPECT_EQ(recovered.engine->FiredCount(rule),
              reference.engine->FiredCount(rule));
  }
}

// Crash where the WAL survived PAST the checkpoint (effects durable but
// unacknowledged): the re-derived firings deduplicate instead of
// double-writing, and the restored engine lands on the same totals.
TEST(ActionPipelineTest, DurableTailDeduplicates) {
  std::vector<events::Observation> stream = MakeStream(200);
  const size_t kCut = 100;

  Rig reference;
  ASSERT_TRUE(reference.Run(stream).ok());
  ASSERT_TRUE(reference.engine->Flush().ok());
  std::string expected = DumpStore(&reference.db);

  TempWalDir wal_dir("action_pipeline_dedup");
  std::string snapshot_bytes;
  {
    Result<std::unique_ptr<store::Wal>> wal = store::Wal::Open(wal_dir.str());
    ASSERT_TRUE(wal.ok()) << wal.status().message();
    Rig crashed;
    ASSERT_TRUE(crashed.engine->AttachWal(wal->get()).ok());
    ASSERT_TRUE(crashed.Run(stream, 0, kCut).ok());
    ASSERT_TRUE(crashed.engine->SerializeState(&snapshot_bytes).ok());
    ASSERT_TRUE(crashed.Run(stream, kCut, 160).ok());
    // The WAL destructor flushes, so the whole prefix (incl.
    // post-checkpoint records) is durable.
  }

  Result<std::unique_ptr<store::Wal>> wal = store::Wal::Open(wal_dir.str());
  ASSERT_TRUE(wal.ok()) << wal.status().message();
  Rig recovered;
  Result<uint64_t> cursor = ReplayWalIntoDatabase(**wal, &recovered.db);
  ASSERT_TRUE(cursor.ok()) << cursor.status().message();
  ASSERT_TRUE(recovered.engine->AttachWal(wal->get()).ok());
  ASSERT_TRUE(recovered.engine->Compile().ok());
  ASSERT_TRUE(recovered.engine->RestoreState(snapshot_bytes).ok());
  ASSERT_TRUE(recovered.Run(stream, kCut).ok());
  ASSERT_TRUE(recovered.engine->Flush().ok());

  EXPECT_EQ(DumpStore(&recovered.db), expected);
  EXPECT_EQ(recovered.engine->stats().sql_actions_executed,
            reference.engine->stats().sql_actions_executed);
  const std::map<std::string, uint64_t> exported =
      testing::ParseExposition(recovered.engine->ExportMetrics());
  EXPECT_GT(exported.at("actions_deduped_total"), 0u);
  EXPECT_EQ(exported.at("actions_deduped_total"),
            recovered.engine->stats().actions_deduped);
}

// Checkpoints written while actions ran on a worker thread carry the
// firings that worker had not yet confirmed. The committed fixture was
// captured from kPendingRules over MakeStream(8) with the worker held on
// the first `notify` call: all 16 firings are pending (8 SQL, 8
// procedure). Restore refuses the layout on the pending count, before it
// decodes any firing: no store row is written, no procedure is called,
// nothing is logged or counted.
TEST(ActionPipelineTest, OldCheckpointPendingActionsAreRefused) {
  const std::string bytes = testing::ReadFile(
      std::string(RFIDCEP_TESTDATA_DIR) +
      "/checkpoint_v2_pending_actions.snap");
  ASSERT_FALSE(bytes.empty()) << "missing fixture";

  TempWalDir wal_dir("action_pipeline_pending_fixture");
  Result<std::unique_ptr<store::Wal>> wal = store::Wal::Open(wal_dir.str());
  ASSERT_TRUE(wal.ok()) << wal.status().message();
  Rig restored(testing::kPendingRules);
  int invoked = 0;
  restored.engine->RegisterProcedure(
      "notify", [&](const RuleFiring&, const std::string&) { ++invoked; });
  ASSERT_TRUE(restored.engine->AttachWal(wal->get()).ok());
  ASSERT_TRUE(restored.engine->Compile().ok());
  const std::string empty_store = DumpStore(&restored.db);

  const Status status = restored.engine->RestoreState(bytes);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("16 pending action firings"),
            std::string::npos)
      << status.message();
  EXPECT_EQ(DumpStore(&restored.db), empty_store);
  EXPECT_EQ(invoked, 0);
  EXPECT_EQ((*wal)->last_lsn(), 0u);
  const EngineStats& stats = restored.engine->stats();
  EXPECT_EQ(stats.rules_fired, 0u);
  EXPECT_EQ(stats.sql_actions_executed, 0u);
  EXPECT_EQ(stats.procedures_invoked, 0u);
  EXPECT_EQ(restored.engine->FiredCount("alert"), 0u);
  EXPECT_EQ(restored.engine->FiredCount("log"), 0u);
}

TEST(ActionPipelineTest, WalGatesRejectMismatchedSnapshots) {
  std::vector<events::Observation> stream = MakeStream(20);

  // A version-1 snapshot (no durable-action section) is refused, here by
  // a WAL-attached engine.
  Rig source;
  ASSERT_TRUE(source.Run(stream).ok());
  std::string bytes;
  ASSERT_TRUE(source.engine->SerializeState(&bytes).ok());
  snapshot::EngineSnapshot snap;
  ASSERT_TRUE(snapshot::DecodeEngineSnapshot(bytes, &snap).ok());
  std::string v1_bytes = bytes;
  v1_bytes[8] = 1;  // The u32 version after the magic.
  v1_bytes[9] = v1_bytes[10] = v1_bytes[11] = 0;

  TempWalDir wal_dir("action_pipeline_gates");
  Result<std::unique_ptr<store::Wal>> wal = store::Wal::Open(wal_dir.str());
  ASSERT_TRUE(wal.ok());
  Rig gated;
  ASSERT_TRUE(gated.engine->AttachWal(wal->get()).ok());
  ASSERT_TRUE(gated.engine->Compile().ok());
  Status v1 = gated.engine->RestoreState(v1_bytes);
  EXPECT_EQ(v1.code(), StatusCode::kFailedPrecondition) << v1.message();

  // A snapshot whose durable LSN is ahead of the attached (empty) WAL is
  // from a different run: rejected.
  snap.durable_lsn = 7;
  Status ahead = gated.engine->RestoreState(snapshot::EncodeEngineSnapshot(snap));
  EXPECT_EQ(ahead.code(), StatusCode::kFailedPrecondition) << ahead.message();

  // The unmodified snapshot (durable LSN 0: no WAL at capture) restores.
  EXPECT_TRUE(gated.engine->RestoreState(bytes).ok());
}

}  // namespace
}  // namespace rfidcep::engine
