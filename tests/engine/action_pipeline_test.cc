// Rule actions + store WAL: exactly-once store effects across a
// simulated crash, and inline replay of the pending-action section that
// older checkpoints carry.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
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
  EXPECT_GT(
      recovered.engine->metrics_registry().GetCounter("actions_deduped_total")
          ->value(),
      0u);
}

// Checkpoints written while actions ran on a worker thread carry the
// firings that worker had not yet confirmed. The committed fixture was
// captured from kPendingRules over MakeStream(8) with the worker held on
// the first `notify` call: all 16 firings are pending (8 SQL, 8
// procedure) and no action is counted yet. RestoreState replays them
// inline: each SQL firing executes once — also when restored again over
// the WAL the first restore wrote — and procedure firings are credited
// but not invoked, since their event instances are gone.
TEST(ActionPipelineTest, OldCheckpointPendingActionsReplayOnce) {
  constexpr std::string_view kPendingRules = R"(
    CREATE RULE alert, alert rule
    ON observation(r, o, t)
    IF true
    DO notify(o)

    CREATE RULE log, log rule
    ON observation(r, o, t)
    IF true
    DO INSERT INTO OBSERVATION VALUES (r, o, t)
  )";
  // The capturing run's totals after its Flush().
  constexpr uint64_t kRulesFired = 16;
  constexpr uint64_t kSqlActions = 8;
  constexpr uint64_t kProcedures = 8;
  constexpr uint64_t kFiredPerRule = 8;

  const std::string bytes = testing::ReadFile(
      std::string(RFIDCEP_TESTDATA_DIR) +
      "/checkpoint_v2_pending_actions.snap");
  snapshot::EngineSnapshot snap;
  ASSERT_TRUE(snapshot::DecodeEngineSnapshot(bytes, &snap).ok());
  ASSERT_EQ(snap.version, 2u);
  EXPECT_EQ(snap.stats.sql_actions_executed, 0u);
  EXPECT_EQ(snap.stats.procedures_invoked, 0u);
  size_t pending_sql = 0;
  for (const auto& rec : snap.pending_actions) {
    if (rec.rule_id == "log") ++pending_sql;
  }
  ASSERT_EQ(pending_sql, kSqlActions);
  ASSERT_EQ(snap.pending_actions.size() - pending_sql, kProcedures);

  // The store an uninterrupted run leaves: one row per observation.
  Rig reference(kPendingRules);
  ASSERT_TRUE(reference.Run(MakeStream(8)).ok());
  ASSERT_TRUE(reference.engine->Flush().ok());
  const std::string expected = DumpStore(&reference.db);

  TempWalDir wal_dir("action_pipeline_pending_fixture");
  for (int attempt = 0; attempt < 2; ++attempt) {
    SCOPED_TRACE(attempt == 0 ? "fresh WAL" : "WAL from the first restore");
    Result<std::unique_ptr<store::Wal>> wal = store::Wal::Open(wal_dir.str());
    ASSERT_TRUE(wal.ok()) << wal.status().message();
    Rig restored(kPendingRules);
    Result<uint64_t> cursor = ReplayWalIntoDatabase(**wal, &restored.db);
    ASSERT_TRUE(cursor.ok()) << cursor.status().message();
    int invoked = 0;
    restored.engine->RegisterProcedure(
        "notify", [&](const RuleFiring&, const std::string&) { ++invoked; });
    ASSERT_TRUE(restored.engine->AttachWal(wal->get()).ok());
    ASSERT_TRUE(restored.engine->Compile().ok());
    ASSERT_TRUE(restored.engine->RestoreState(bytes).ok());
    ASSERT_TRUE(restored.engine->Flush().ok());

    EXPECT_EQ(DumpStore(&restored.db), expected);
    EXPECT_EQ(invoked, 0);
    const EngineStats& stats = restored.engine->stats();
    EXPECT_EQ(stats.rules_fired, kRulesFired);
    EXPECT_EQ(stats.sql_actions_executed, kSqlActions);
    EXPECT_EQ(stats.procedures_invoked, kProcedures);
    EXPECT_EQ(stats.unknown_procedures, 0u);
    EXPECT_EQ(stats.action_errors, 0u);
    EXPECT_EQ(restored.engine->FiredCount("alert"), kFiredPerRule);
    EXPECT_EQ(restored.engine->FiredCount("log"), kFiredPerRule);
    EXPECT_TRUE(restored.engine->first_deferred_error().ok())
        << restored.engine->first_deferred_error().message();
  }
}

TEST(ActionPipelineTest, WalGatesRejectMismatchedSnapshots) {
  std::vector<events::Observation> stream = MakeStream(20);

  // A version-1 snapshot (no durable-action section) cannot restore into
  // a WAL-attached engine.
  Rig source;
  ASSERT_TRUE(source.Run(stream).ok());
  std::string bytes;
  ASSERT_TRUE(source.engine->SerializeState(&bytes).ok());
  snapshot::EngineSnapshot snap;
  ASSERT_TRUE(snapshot::DecodeEngineSnapshot(bytes, &snap).ok());
  snap.version = 1;
  std::string v1_bytes = snapshot::EncodeEngineSnapshot(snap);

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
  snap.version = 2;
  snap.durable_lsn = 7;
  Status ahead = gated.engine->RestoreState(snapshot::EncodeEngineSnapshot(snap));
  EXPECT_EQ(ahead.code(), StatusCode::kFailedPrecondition) << ahead.message();

  // The unmodified snapshot (durable LSN 0: no WAL at capture) restores.
  EXPECT_TRUE(gated.engine->RestoreState(bytes).ok());
}

}  // namespace
}  // namespace rfidcep::engine
