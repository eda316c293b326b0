// Snapshot format contract (engine/snapshot.h): deterministic bytes,
// versioned header with explicit gates on magic / version / rule-set
// fingerprint, and golden on-disk fixtures
// (tests/engine/testdata/checkpoint_v<N>*.snap): one per format version
// this build reads, which every future build must keep restoring, and
// the retired layouts this build refuses.
//
// After an INTENTIONAL format bump, commit a fixture for the new version
// (the old ones stay and must keep restoring) via:
//   RFIDCEP_REGEN_GOLDEN=1 ./tests/snapshot_format_test

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/snapshot.h"
#include "tests/engine/test_util.h"

namespace rfidcep::engine {
namespace {

using ::rfidcep::engine::testing::EngineHarness;
using ::rfidcep::engine::testing::kFixtureRules;

std::vector<events::Observation> FixtureStream() {
  return {
      {"a", "x", 1 * kSecond},  {"b", "y", 2 * kSecond},
      {"a", "x", 3 * kSecond},  {"c", "z", 4 * kSecond},
      {"a", "w", 5 * kSecond},  {"b", "x", 6 * kSecond},
  };
}

std::vector<events::Observation> ContinuationStream() {
  return {
      {"b", "w", 8 * kSecond},  {"a", "v", 9 * kSecond},
      {"b", "v", 12 * kSecond}, {"c", "q", 14 * kSecond},
  };
}

std::string FixturePath(uint32_t version, const std::string& suffix = "") {
  return std::string(RFIDCEP_TESTDATA_DIR) + "/checkpoint_v" +
         std::to_string(version) + suffix + ".snap";
}

// Builds the fixture engine and feeds the fixture stream (no flush), so
// slot buffers, the NOT log, open runs, and pending pseudos are all live.
std::unique_ptr<EngineHarness> LoadedHarness() {
  auto h = std::make_unique<EngineHarness>();
  EXPECT_TRUE(h->AddRules(kFixtureRules).ok());
  EXPECT_TRUE(h->engine->Compile().ok());
  EXPECT_TRUE(h->engine->ProcessAll(FixtureStream()).ok());
  return h;
}

std::string Serialized(RcedaEngine* engine) {
  std::string bytes;
  EXPECT_TRUE(engine->SerializeState(&bytes).ok());
  return bytes;
}

// Per-rule (t_begin, t_end) spans of the matches recorded from index
// `from` on (a restored engine's log restarts empty at the checkpoint).
std::vector<std::string> MatchLog(const EngineHarness& h, size_t from = 0) {
  std::vector<std::string> out;
  for (size_t i = from; i < h.matches.size(); ++i) {
    const auto& m = h.matches[i];
    std::ostringstream line;
    line << m.rule_id << "[" << m.t_begin << "," << m.t_end << "]";
    out.push_back(line.str());
  }
  return out;
}

TEST(SnapshotFormatTest, HeaderLaysOutMagicVersionFingerprint) {
  auto h = LoadedHarness();
  std::string bytes = Serialized(h->engine.get());
  ASSERT_GE(bytes.size(), 20u);
  EXPECT_EQ(bytes.substr(0, 8), snapshot::kSnapshotMagic);
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  EXPECT_EQ(version, snapshot::kSnapshotVersion);
}

TEST(SnapshotFormatTest, SerializationIsDeterministic) {
  auto h1 = LoadedHarness();
  auto h2 = LoadedHarness();
  std::string bytes = Serialized(h1->engine.get());
  EXPECT_EQ(bytes, Serialized(h2->engine.get()));
  // Re-serializing after a restore round-trip is also byte-identical.
  ASSERT_TRUE(h1->engine->RestoreState(bytes).ok());
  EXPECT_EQ(Serialized(h1->engine.get()), bytes);
}

TEST(SnapshotFormatTest, BadMagicRejected) {
  auto h = LoadedHarness();
  std::string bytes = Serialized(h->engine.get());
  bytes[0] = 'X';
  Status status = h->engine->RestoreState(bytes);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST(SnapshotFormatTest, UnknownVersionRejected) {
  auto h = LoadedHarness();
  std::string bytes = Serialized(h->engine.get());
  uint32_t version = snapshot::kSnapshotVersion + 1;
  std::memcpy(&bytes[8], &version, sizeof(version));
  Status status = h->engine->RestoreState(bytes);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST(SnapshotFormatTest, FingerprintMismatchRejected) {
  auto h = LoadedHarness();
  std::string bytes = Serialized(h->engine.get());
  EngineHarness other;
  ASSERT_TRUE(
      other
          .AddRules("CREATE RULE different, a ON observation(r, o, t) "
                    "IF true DO send alarm")
          .ok());
  ASSERT_TRUE(other.engine->Compile().ok());
  Status status = other.engine->RestoreState(bytes);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos);
}

// The header is the 8-byte magic, a u32 version, then the u64 fingerprint.
uint64_t FingerprintOf(const std::string& bytes) {
  uint64_t fingerprint = 0;
  std::memcpy(&fingerprint, bytes.data() + 12, sizeof(fingerprint));
  return fingerprint;
}

TEST(SnapshotFormatTest, CheckpointsCarryTheRuleSetFingerprint) {
  auto h = LoadedHarness();
  std::string first = Serialized(h->engine.get());
  ASSERT_TRUE(h->engine->ProcessAll(ContinuationStream()).ok());
  std::string second = Serialized(h->engine.get());
  ASSERT_NE(first, second);
  Result<rules::RuleSet> set = rules::ParseRuleProgram(kFixtureRules);
  ASSERT_TRUE(set.ok());
  uint64_t expected =
      snapshot::ComputeFingerprint(ParameterContext::kChronicle, set->rules);
  EXPECT_EQ(FingerprintOf(first), expected);
  EXPECT_EQ(FingerprintOf(second), expected);
}

TEST(SnapshotFormatTest, RecompiledRuleSetRefusesOldSnapshot) {
  auto h = LoadedHarness();
  std::string old_bytes = Serialized(h->engine.get());
  ASSERT_TRUE(h->engine->RemoveRule("quiet").ok());
  ASSERT_TRUE(h->engine->Compile().ok());
  Status status = h->engine->RestoreState(old_bytes);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos);
  // The recompiled set's own checkpoints still restore.
  ASSERT_TRUE(h->engine->ProcessAll(ContinuationStream()).ok());
  std::string bytes = Serialized(h->engine.get());
  EXPECT_NE(FingerprintOf(bytes), FingerprintOf(old_bytes));
  EXPECT_TRUE(h->engine->RestoreState(bytes).ok());
}

TEST(SnapshotFormatTest, TruncationRejectedAtEveryPrefix) {
  auto h = LoadedHarness();
  std::string bytes = Serialized(h->engine.get());
  // Every proper prefix must be rejected, never crash or succeed.
  for (size_t len : {size_t{0}, size_t{4}, size_t{8}, size_t{19},
                     bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(h->engine->RestoreState(bytes.substr(0, len)).ok())
        << "prefix of " << len << " bytes";
  }
}

TEST(SnapshotFormatTest, TrailingBytesRejected) {
  auto h = LoadedHarness();
  std::string bytes = Serialized(h->engine.get());
  Status status = h->engine->RestoreState(bytes + '\0');
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("trailing"), std::string::npos);
}

TEST(SnapshotFormatTest, CheckpointFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "snapshot_roundtrip.snap";
  auto source = LoadedHarness();
  ASSERT_TRUE(source->engine->Checkpoint(path).ok());
  // Matches up to the checkpoint instant were already delivered on the
  // source; the restored engine only replays the stream from here on.
  const size_t at_checkpoint = source->matches.size();

  auto restored = std::make_unique<EngineHarness>();
  ASSERT_TRUE(restored->AddRules(kFixtureRules).ok());
  ASSERT_TRUE(restored->engine->Compile().ok());
  ASSERT_TRUE(restored->engine->Restore(path).ok());

  for (const events::Observation& obs : ContinuationStream()) {
    ASSERT_TRUE(source->engine->Process(obs).ok());
    ASSERT_TRUE(restored->engine->Process(obs).ok());
  }
  ASSERT_TRUE(source->engine->Flush().ok());
  ASSERT_TRUE(restored->engine->Flush().ok());
  EXPECT_EQ(MatchLog(*restored), MatchLog(*source, at_checkpoint));
  for (const char* rule : {"pair", "quiet", "run"}) {
    EXPECT_EQ(restored->engine->FiredCount(rule),
              source->engine->FiredCount(rule))
        << rule;
  }
  std::remove(path.c_str());
}

// The live checkpoint is replaced by rename, never written over: a
// checkpoint that fails (here its temp name is taken by a directory)
// leaves the previous file whole and restorable.
TEST(SnapshotFormatTest, FailedCheckpointKeepsThePreviousFile) {
  const std::string path =
      ::testing::TempDir() + "snapshot_failed_checkpoint.snap";
  const std::string tmp = path + ".tmp";
  std::filesystem::remove_all(tmp);
  auto source = LoadedHarness();
  ASSERT_TRUE(source->engine->Checkpoint(path).ok());
  const std::string previous = testing::ReadFile(path);

  std::filesystem::create_directory(tmp);
  for (const events::Observation& obs : ContinuationStream()) {
    ASSERT_TRUE(source->engine->Process(obs).ok());
  }
  EXPECT_FALSE(source->engine->Checkpoint(path).ok());
  EXPECT_EQ(testing::ReadFile(path), previous);

  auto restored = std::make_unique<EngineHarness>();
  ASSERT_TRUE(restored->AddRules(kFixtureRules).ok());
  ASSERT_TRUE(restored->engine->Compile().ok());
  EXPECT_TRUE(restored->engine->Restore(path).ok());
  std::filesystem::remove_all(tmp);
  std::filesystem::remove(path);
}

// Each count floor is its element's true minimum encoded size: a snapshot
// holding many minimal elements of one kind, and nothing else, decodes
// and re-encodes to the same bytes.
TEST(SnapshotFormatTest, CountFloorsAdmitMinimalElements) {
  using Snap = snapshot::EngineSnapshot;
  constexpr size_t kN = 1000;
  const auto one_instance = [](Snap& s) -> snapshot::InstanceRecord& {
    s.detector.instances.resize(1);
    return s.detector.instances[0];
  };
  const auto one_node = [&](Snap& s) -> snapshot::NodeStateRecord& {
    one_instance(s);
    s.detector.nodes.resize(1);
    return s.detector.nodes[0];
  };
  const std::pair<const char*, std::function<void(Snap&)>> cases[] = {
      {"rules", [](Snap& s) { s.rules.resize(kN); }},
      {"instances", [](Snap& s) { s.detector.instances.resize(kN); }},
      {"scalars", [&](Snap& s) { one_instance(s).scalars.resize(kN); }},
      {"multis", [&](Snap& s) { one_instance(s).multis.resize(kN); }},
      {"multi values",
       [&](Snap& s) {
         one_instance(s).multis.resize(1);
         s.detector.instances[0].multis[0].second.resize(kN);
       }},
      {"children",
       [&](Snap& s) {
         one_instance(s);
         s.detector.instances.resize(2);
         s.detector.instances[1].children.assign(kN, 0);
       }},
      {"nodes", [](Snap& s) { s.detector.nodes.resize(kN); }},
      {"slot entries", [&](Snap& s) { one_node(s).slots[1].assign(kN, 0); }},
      {"not log", [&](Snap& s) { one_node(s).not_log.assign(kN, 0); }},
      {"runs", [&](Snap& s) { one_node(s).runs.resize(kN); }},
      {"run elements",
       [&](Snap& s) {
         one_node(s).runs.resize(1);
         s.detector.nodes[0].runs[0].elements.assign(kN, 0);
       }},
      {"pseudos", [](Snap& s) { s.detector.pseudos.resize(kN); }},
  };
  for (const auto& [name, fill] : cases) {
    Snap snap;
    fill(snap);
    const std::string bytes = snapshot::EncodeEngineSnapshot(snap);
    Snap decoded;
    const Status status = snapshot::DecodeEngineSnapshot(bytes, &decoded);
    ASSERT_TRUE(status.ok()) << name << ": " << status.message();
    EXPECT_EQ(snapshot::EncodeEngineSnapshot(decoded), bytes) << name;
  }
}

// Counts are fixed fields: a checkpoint formats no metric name.
TEST(SnapshotFormatTest, CheckpointCarriesNoMetricNames) {
  auto h = LoadedHarness();
  const std::string bytes = Serialized(h->engine.get());
  EXPECT_EQ(bytes.find("_total"), std::string::npos);
}

// EngineStats is all u64 counts, so equal bytes are equal counts.
static_assert(std::has_unique_object_representations_v<EngineStats>);
bool SameStats(const EngineStats& a, const EngineStats& b) {
  return std::memcmp(&a, &b, sizeof(EngineStats)) == 0;
}

// Every refused restore leaves the engine as it was: the same capture,
// counts, buffered entries and clock, and the same matches on the rest of
// the stream as an engine that never saw the forged bytes. Each row edits
// a decoded capture of the loaded fixture engine and re-encodes it
// (testing::ForgedRestores, which the crash-recovery fuzz axis draws
// from too).
TEST(SnapshotFormatTest, RefusedRestoreChangesNothing) {
  auto control = LoadedHarness();
  const std::string bytes = Serialized(control->engine.get());
  ASSERT_TRUE(control->engine->ProcessAll(ContinuationStream()).ok());
  ASSERT_TRUE(control->engine->Flush().ok());

  for (const testing::ForgedRestore& row : testing::ForgedRestores()) {
    SCOPED_TRACE(row.name);
    auto h = LoadedHarness();
    ASSERT_EQ(Serialized(h->engine.get()), bytes);
    snapshot::EngineSnapshot snap;
    ASSERT_TRUE(snapshot::DecodeEngineSnapshot(bytes, &snap).ok());
    ASSERT_TRUE(row.apply(*h->engine, &snap)) << "the fixture has no site";
    const EngineStats stats = h->engine->stats();
    std::map<std::string, uint64_t> fired;
    for (const char* rule : {"pair", "quiet", "run"}) {
      fired[rule] = h->engine->FiredCount(rule);
    }
    const size_t buffered = h->engine->TotalBufferedEntries();
    const TimePoint clock = h->engine->clock();

    const Status status =
        h->engine->RestoreState(snapshot::EncodeEngineSnapshot(snap));
    EXPECT_EQ(status.code(), row.code) << status.message();
    EXPECT_NE(status.message().find(row.fragment), std::string::npos)
        << status.message();
    EXPECT_EQ(Serialized(h->engine.get()), bytes);
    EXPECT_TRUE(SameStats(h->engine->stats(), stats));
    for (const auto& [rule, count] : fired) {
      EXPECT_EQ(h->engine->FiredCount(rule), count) << rule;
    }
    EXPECT_EQ(h->engine->TotalBufferedEntries(), buffered);
    EXPECT_EQ(h->engine->clock(), clock);

    ASSERT_TRUE(h->engine->ProcessAll(ContinuationStream()).ok());
    ASSERT_TRUE(h->engine->Flush().ok());
    EXPECT_EQ(MatchLog(*h), MatchLog(*control));
    for (const auto& [rule, count] : fired) {
      EXPECT_EQ(h->engine->FiredCount(rule),
                control->engine->FiredCount(rule))
          << rule;
    }
  }
}

TEST(SnapshotFormatTest, RestoreFromMissingFileIsNotFound) {
  auto h = LoadedHarness();
  EXPECT_EQ(h->engine->Restore("/nonexistent/dir/x.snap").code(),
            StatusCode::kNotFound);
}

// The committed fixtures: checkpoints of the fixture engine after
// FixtureStream(), one per readable format version. Restoring any of them
// and continuing the stream must keep producing exactly the matches an
// uninterrupted run produces. A build whose reader no longer understands
// an old version must fail here, not silently misread it.
// checkpoint_v2_data_sharded.snap was written by commit 2447fa7's
// data-partitioned pipeline at shards=4 (`pair` is EPC-keyed, so four
// keyed replicas plus a residual worker for `quiet` and `run`), merged to
// one source at capture. checkpoint_v3.snap is also what this build
// writes, byte for byte.
TEST(SnapshotGoldenTest, CommittedFixturesRestore) {
  ASSERT_EQ(snapshot::kSnapshotVersion, 3u)
      << "format bumped: regenerate a checkpoint fixture for the new "
         "version and keep the old fixtures restoring (or raise "
         "kMinSnapshotVersion and delete theirs)";
  ASSERT_EQ(snapshot::kMinSnapshotVersion, 2u);

  if (std::getenv("RFIDCEP_REGEN_GOLDEN") != nullptr) {
    // Only the current version can be (re)generated; older fixtures are
    // immutable artifacts of the builds that wrote them.
    auto h = LoadedHarness();
    const std::string path = FixturePath(snapshot::kSnapshotVersion);
    ASSERT_TRUE(h->engine->Checkpoint(path).ok());
    GTEST_SKIP() << "regenerated " << path;
  }

  const std::pair<std::string, uint32_t> fixtures[] = {
      {FixturePath(2), 2},
      {FixturePath(2, "_data_sharded"), 2},
      {FixturePath(3), 3},
  };
  for (const auto& [path, version] : fixtures) {
    SCOPED_TRACE(path);
    const std::string bytes = testing::ReadFile(path);
    ASSERT_GE(bytes.size(), 12u) << "missing fixture";
    EXPECT_EQ(bytes.substr(0, 8), snapshot::kSnapshotMagic);
    uint32_t on_disk = 0;
    std::memcpy(&on_disk, bytes.data() + 8, sizeof(on_disk));
    ASSERT_EQ(on_disk, version);
    snapshot::EngineSnapshot decoded;
    ASSERT_TRUE(snapshot::DecodeEngineSnapshot(bytes, &decoded).ok());
    testing::ExpectRestoresToUninterruptedRun(kFixtureRules, FixtureStream(),
                                              ContinuationStream(), bytes);
  }
  auto h = LoadedHarness();
  EXPECT_EQ(Serialized(h->engine.get()), testing::ReadFile(FixturePath(3)));
}

// Layouts that builds running one detector no longer write, each refused
// with its layout in the message and the engine left as it was. The v1,
// rule-sharded and pending-action fixtures fail to decode; the
// pre-sharing one decodes but holds SEQ+ runs and pseudo events under
// per-rule keys today's graph lacks. checkpoint_v1.snap and
// checkpoint_v2_rule_sharded.snap (a rule-sharded layout at shards=2,
// one detector source per shard) hold the fixture engine after
// FixtureStream(); action_pipeline_test and rule_index_test describe the
// other two.
TEST(SnapshotGoldenTest, RetiredLayoutsAreRefused) {
  const struct {
    std::string path;
    std::string_view program;  // The capturing engine's rules.
    std::vector<events::Observation> head;
    const char* layout;  // What the refusal must name.
  } retired[] = {
      {FixturePath(1), kFixtureRules, FixtureStream(), "version 1"},
      {FixturePath(2, "_rule_sharded"), kFixtureRules, FixtureStream(),
       "2 detector sources"},
      {FixturePath(2, "_pending_actions"), testing::kPendingRules,
       FixtureStream(), "16 pending action firings"},
      {FixturePath(2, "_presharing"), testing::kSharingProgram,
       testing::SharingStream(), "prefix sharing"},
  };
  for (const auto& [path, program, head, layout] : retired) {
    SCOPED_TRACE(path);
    const std::string bytes = testing::ReadFile(path);
    ASSERT_FALSE(bytes.empty()) << "missing fixture";
    EngineHarness h;
    ASSERT_TRUE(h.AddRules(program).ok());
    ASSERT_TRUE(h.engine->Compile().ok());
    ASSERT_TRUE(h.engine->ProcessAll(head).ok());
    const std::string before = Serialized(h.engine.get());
    const Status status = h.engine->RestoreState(bytes);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(status.message().find(layout), std::string::npos)
        << status.message();
    EXPECT_EQ(Serialized(h.engine.get()), before);
  }
}

// A sharded capture labeled each worker's detector counters `shard="N"`.
// Restored, the counts continue on the one detector's `shard="0"`
// series; the routing families only sharding registered are gone, and
// each per-node firing counter reads its node's restored `produced`.
TEST(SnapshotGoldenTest, DataShardedCountersContinueOnShardZero) {
  const std::string bytes = testing::ReadFile(FixturePath(2, "_data_sharded"));
  ASSERT_FALSE(bytes.empty()) << "missing fixture";
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(kFixtureRules).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.engine->RestoreState(bytes).ok());

  const uint64_t matches = h.engine->stats().detector.rule_matches;
  EXPECT_GT(matches, 0u);
  const std::map<std::string, uint64_t> exported =
      testing::ParseExposition(h.engine->ExportMetrics());
  EXPECT_EQ(exported.at("detector_rule_matches_total{shard=\"0\"}"), matches);
  EXPECT_EQ(exported.at("rfidcep_matches_total"), matches);

  // `#<id> <mode> produced=<n> ...` lines of the debug report.
  std::map<std::string, uint64_t> produced;
  std::istringstream report(h.engine->DebugReport());
  for (std::string line; std::getline(report, line);) {
    const size_t at = line.find(" produced=");
    if (!line.starts_with("#") || at == std::string::npos) continue;
    produced[line.substr(1, line.find(' ') - 1)] =
        std::stoull(line.substr(at + 10));
  }
  ASSERT_EQ(produced.size(), h.engine->graph().nodes().size());
  uint64_t restored_firings = 0;
  size_t node_series = 0;
  for (const auto& [name, value] : exported) {
    EXPECT_FALSE(name.starts_with("detector_") &&
                 name.find('{') == std::string::npos)
        << "unlabeled series " << name;
    EXPECT_FALSE(name.starts_with("shard_")) << name;
    EXPECT_NE(name, "rfidcep_unrouted_observations_total");
    if (name.starts_with("graph_node_firings_total{")) {
      const size_t id = name.find("node=\"") + 6;
      const std::string node = name.substr(id, name.find('"', id) - id);
      EXPECT_EQ(value, produced.at(node)) << name;
      restored_firings += value;
      ++node_series;
    }
  }
  EXPECT_EQ(node_series, produced.size());
  EXPECT_GT(restored_firings, 0u);
}

// Version 2 carried five counts only under their metric names; the
// reader maps each name to its field, summing a sharded capture's
// full-scan series. The values are patched into the data-sharded fixture
// in place (each name is stored before its u64 value).
TEST(SnapshotGoldenTest, Version2CountNamesMapToFields) {
  std::string bytes = testing::ReadFile(FixturePath(2, "_data_sharded"));
  ASSERT_FALSE(bytes.empty()) << "missing fixture";
  const auto patch = [&bytes](std::string_view name, uint64_t value) {
    const size_t at = bytes.find(name);
    ASSERT_NE(at, std::string::npos) << name;
    uint32_t length = 0;
    std::memcpy(&length, bytes.data() + at - 4, sizeof(length));
    ASSERT_EQ(length, name.size()) << name;
    std::memcpy(bytes.data() + at + name.size(), &value, sizeof(value));
  };
  patch("rfidcep_process_calls_total", 2);
  patch("store_rows_written_total", 7);
  patch("actions_deduped_total", 5);
  patch("rfidcep_dispatch_fullscan_total{shard=\"1\"}", 3);
  patch("rfidcep_dispatch_fullscan_total{shard=\"4\"}", 4);
  patch("rule_matches_total{rule=\"run\"}", 6);

  snapshot::EngineSnapshot decoded;
  ASSERT_TRUE(snapshot::DecodeEngineSnapshot(bytes, &decoded).ok());
  EXPECT_EQ(decoded.stats.process_calls, 2u);
  EXPECT_EQ(decoded.stats.rows_written, 7u);
  EXPECT_EQ(decoded.stats.actions_deduped, 5u);
  EXPECT_EQ(decoded.stats.detector.fullscan_dispatches, 7u);
  std::map<std::string, std::pair<uint64_t, uint64_t>> rules;
  for (const snapshot::RuleCountRecord& rec : decoded.rules) {
    rules[rec.rule_id] = {rec.matches, rec.fired};
  }
  const std::map<std::string, std::pair<uint64_t, uint64_t>> want = {
      {"pair", {1, 1}}, {"quiet", {0, 0}}, {"run", {6, 0}}};
  EXPECT_EQ(rules, want);
}

// checkpoint_v2_within_leaves.snap was captured by commit c85f3fb, whose
// graph compiled one leaf per (pattern, propagated window): `keyed` was
// rooted at PRIM{<=6sec}, and dup5/dup9 each had two private leaves.
// Today's graph keys leaves by pattern alone, so the rule-set fingerprint
// must still verify (it hashes each rule's propagated event, not the
// graph's root key) and the leaves' old produced counters are dropped.
constexpr const char* kWithinLeafRules = R"(
  CREATE RULE keyed, single reader
  ON WITHIN(observation("A", o, t1), 6sec)
  IF true
  DO send alarm

  CREATE RULE dup5, short duplicate
  ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
  IF true
  DO send alarm

  CREATE RULE dup9, long duplicate
  ON WITHIN(observation(r, o, t1); observation(r, o, t2), 9sec)
  IF true
  DO send alarm
)";

TEST(SnapshotGoldenTest, WindowStampedLeafFixtureRestores) {
  const std::string bytes = testing::ReadFile(FixturePath(2, "_within_leaves"));
  ASSERT_FALSE(bytes.empty()) << "missing fixture";
  snapshot::EngineSnapshot decoded;
  ASSERT_TRUE(snapshot::DecodeEngineSnapshot(bytes, &decoded).ok());
  size_t stamped_leaves = 0;
  for (const snapshot::NodeStateRecord& rec : decoded.detector.nodes) {
    if (rec.state_key.starts_with("PRIM{<=")) ++stamped_leaves;
  }
  EXPECT_EQ(stamped_leaves, 5u);
  // dup5 and dup9 are one window family today, but each held its own
  // leaf's instance of an observation then: their records name distinct
  // instances of one observation, which restore keeps as separate
  // entries of the shared buffer.
  std::vector<uint32_t> dup_entries[2];
  for (const snapshot::NodeStateRecord& rec : decoded.detector.nodes) {
    if (!rec.state_key.starts_with("SEQ")) continue;
    int member = rec.state_key.starts_with("SEQ[0sec,inf]{<=5sec}") ? 0 : 1;
    dup_entries[member].insert(dup_entries[member].end(),
                               rec.slots[0].begin(), rec.slots[0].end());
  }
  bool same_observation = false;
  for (uint32_t a : dup_entries[0]) {
    for (uint32_t b : dup_entries[1]) {
      EXPECT_NE(a, b);
      const snapshot::InstanceRecord& x = decoded.detector.instances[a];
      const snapshot::InstanceRecord& y = decoded.detector.instances[b];
      if (x.observation == y.observation) same_observation = true;
    }
  }
  EXPECT_TRUE(same_observation);

  const std::vector<events::Observation> head = {
      {"A", "x", 1 * kSecond}, {"B", "y", 2 * kSecond},
      {"A", "x", 3 * kSecond}, {"B", "y", 8 * kSecond},
      {"A", "z", 9 * kSecond}, {"A", "x", 10 * kSecond},
  };
  const std::vector<events::Observation> tail = {
      {"A", "z", 12 * kSecond}, {"B", "y", 13 * kSecond},
      {"A", "x", 16 * kSecond}, {"A", "z", 20 * kSecond},
  };
  testing::ExpectRestoresToUninterruptedRun(kWithinLeafRules, head, tail,
                                            bytes);
}

// checkpoint_v2_window_family.snap was captured by commit f333851, before
// window families, after kWindowFamilyHead. Each rule pair below is one
// window family today, and the members' state disagrees at the cut:
// `near` consumed (a,x,1) while `far` still holds it, `dup4` and `dup8`
// hold (a,x,5.5) together, and guard5/guard8 (AND with NOT) and
// trail3/trail6 (SEQ with NOT) each have anchored pseudo events pending
// on shared anchors. Restoring merges the members' records into one
// buffer per family, and capturing again writes each member's own view:
// the bytes the live engine captures after the same head.
constexpr const char* kWindowFamilyRules = R"(
  CREATE RULE near, short gap
  ON WITHIN(TSEQ(observation("a", o, t1); observation("b", o, t2), 0sec, 2sec), 10sec)
  IF true
  DO send alarm

  CREATE RULE far, long gap
  ON WITHIN(TSEQ(observation("a", o, t1); observation("b", o, t2), 3sec, 6sec), 10sec)
  IF true
  DO send alarm

  CREATE RULE dup4, short duplicate
  ON WITHIN(observation(r, o, t3); observation(r, o, t4), 4sec)
  IF true
  DO send alarm

  CREATE RULE dup8, long duplicate
  ON WITHIN(observation(r, o, t3); observation(r, o, t4), 8sec)
  IF true
  DO send alarm

  CREATE RULE guard5, quiet zone
  ON WITHIN(observation("a", o, t1) AND NOT observation("c", o, t5), 5sec)
  IF true
  DO send alarm

  CREATE RULE guard8, wide quiet zone
  ON WITHIN(observation("a", o, t1) AND NOT observation("c", o, t5), 8sec)
  IF true
  DO send alarm

  CREATE RULE trail3, no c after a
  ON WITHIN(observation("a", o, t1); NOT observation("c", o, t5), 3sec)
  IF true
  DO send alarm

  CREATE RULE trail6, no c long after a
  ON WITHIN(observation("a", o, t1); NOT observation("c", o, t5), 6sec)
  IF true
  DO send alarm
)";

const std::vector<events::Observation> kWindowFamilyHead = {
    {"a", "x", 1 * kSecond},         {"b", "x", 2 * kSecond},
    {"c", "y", 2500 * kMillisecond}, {"a", "z", 3 * kSecond},
    {"a", "x", 5500 * kMillisecond},
};

TEST(SnapshotGoldenTest, WindowFamilyFixtureRestoresMemberViews) {
  const std::string bytes =
      testing::ReadFile(FixturePath(2, "_window_family"));
  ASSERT_FALSE(bytes.empty()) << "missing fixture";
  const std::vector<events::Observation> tail = {
      {"b", "x", 6 * kSecond},  {"c", "z", 7 * kSecond},
      {"b", "z", 8 * kSecond},  {"a", "y", 9 * kSecond},
      {"c", "x", 12 * kSecond}, {"b", "y", 13 * kSecond},
      {"a", "x", 14 * kSecond}, {"a", "x", 16 * kSecond},
  };
  testing::ExpectRestoresToUninterruptedRun(kWindowFamilyRules,
                                            kWindowFamilyHead, tail, bytes);

  EngineHarness live;
  ASSERT_TRUE(live.AddRules(kWindowFamilyRules).ok());
  ASSERT_TRUE(live.engine->Compile().ok());
  ASSERT_TRUE(live.engine->ProcessAll(kWindowFamilyHead).ok());
  EngineHarness restored;
  ASSERT_TRUE(restored.AddRules(kWindowFamilyRules).ok());
  ASSERT_TRUE(restored.engine->Compile().ok());
  ASSERT_TRUE(restored.engine->RestoreState(bytes).ok());
  EXPECT_EQ(Serialized(restored.engine.get()), Serialized(live.engine.get()));
  // Shared entries are stored once: fewer physical entries than the
  // members' views add up to.
  EXPECT_LT(restored.engine->TotalBufferedEntries(), 27u);
}

}  // namespace
}  // namespace rfidcep::engine
