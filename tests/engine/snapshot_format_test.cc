// Snapshot format contract (engine/snapshot.h): deterministic bytes,
// versioned header with explicit gates on magic / version / rule-set
// fingerprint, and golden on-disk fixtures — one per format version this
// build reads (tests/engine/testdata/checkpoint_v<N>.snap), plus ones
// written by layouts this build no longer has — that every future build
// must keep restoring.
//
// After an INTENTIONAL format bump, commit a fixture for the new version
// (the old ones stay and must keep restoring) via:
//   RFIDCEP_REGEN_GOLDEN=1 ./tests/snapshot_format_test

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/snapshot.h"
#include "tests/engine/test_util.h"

namespace rfidcep::engine {
namespace {

using ::rfidcep::engine::testing::EngineHarness;

// Covers every serialized state shape: SEQ slot buffers, a NOT log with
// pending confirmation pseudos, and SEQ+ open runs.
constexpr const char* kFixtureRules = R"(
  CREATE RULE pair, pairing
  ON WITHIN(observation("a", o, t1); observation("b", o, t2), 8sec)
  IF true
  DO send alarm

  CREATE RULE quiet, quiet zone
  ON WITHIN(observation("a", o1, t1) AND NOT observation("c", o2, t2), 6sec)
  IF true
  DO send alarm

  CREATE RULE run, aperiodic
  ON WITHIN(TSEQ+(observation("a", o1, t1), 0sec, 4sec), 20sec)
  IF true
  DO send alarm
)";

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

TEST(SnapshotFormatTest, RestoreFromMissingFileIsNotFound) {
  auto h = LoadedHarness();
  EXPECT_EQ(h->engine->Restore("/nonexistent/dir/x.snap").code(),
            StatusCode::kNotFound);
}

// The committed fixtures: one checkpoint per readable format version,
// each captured from the fixture engine after FixtureStream(). Restoring
// any of them and continuing the stream must keep producing exactly the
// matches an uninterrupted run produces. A build whose reader no longer
// understands an old version must fail here, not silently misread it.
// The v1 fixture predates SEQ+ prefix sharing (its `run` state sits
// under a per-rule key). Two were written by sharded layouts this build
// no longer has: checkpoint_v2_rule_sharded.snap by a rule-sharded one
// at shards=2 (one detector source per shard), exercising the state-key
// alias and multi-source merge paths of BuildRestorePlan; and
// checkpoint_v2_data_sharded.snap by commit 2447fa7's data-partitioned
// pipeline at shards=4 (`pair` is EPC-keyed, so four keyed replicas plus
// a residual worker for `quiet` and `run`), merged to one source.
TEST(SnapshotGoldenTest, CommittedFixturesRestore) {
  ASSERT_EQ(snapshot::kSnapshotVersion, 2u)
      << "format bumped: regenerate a checkpoint fixture for the new "
         "version and keep the old fixtures restoring (or raise "
         "kMinSnapshotVersion and delete theirs)";
  ASSERT_EQ(snapshot::kMinSnapshotVersion, 1u);

  if (std::getenv("RFIDCEP_REGEN_GOLDEN") != nullptr) {
    // Only the current version can be (re)generated; older fixtures are
    // immutable artifacts of the builds that wrote them.
    auto h = LoadedHarness();
    const std::string path = FixturePath(snapshot::kSnapshotVersion);
    ASSERT_TRUE(h->engine->Checkpoint(path).ok());
    GTEST_SKIP() << "regenerated " << path;
  }

  struct Fixture {
    std::string path;
    uint32_t version;
    size_t sources;     // Detector sources the capturing layout wrote.
    int source_shards;  // Its detection workers.
  };
  std::vector<Fixture> fixtures;
  for (uint32_t version = snapshot::kMinSnapshotVersion;
       version <= snapshot::kSnapshotVersion; ++version) {
    fixtures.push_back({FixturePath(version), version, 1, 1});
  }
  fixtures.push_back({FixturePath(2, "_rule_sharded"), 2, 2, 2});
  fixtures.push_back({FixturePath(2, "_data_sharded"), 2, 1, 5});

  for (const Fixture& fixture : fixtures) {
    SCOPED_TRACE(fixture.path);
    const std::string bytes = testing::ReadFile(fixture.path);
    ASSERT_GE(bytes.size(), 12u) << "missing fixture";
    EXPECT_EQ(bytes.substr(0, 8), snapshot::kSnapshotMagic);
    uint32_t on_disk = 0;
    std::memcpy(&on_disk, bytes.data() + 8, sizeof(on_disk));
    ASSERT_EQ(on_disk, fixture.version);
    snapshot::EngineSnapshot decoded;
    ASSERT_TRUE(snapshot::DecodeEngineSnapshot(bytes, &decoded).ok());
    EXPECT_EQ(decoded.sources.size(), fixture.sources);
    EXPECT_EQ(decoded.source_shards, fixture.source_shards);
    testing::ExpectRestoresToUninterruptedRun(kFixtureRules, FixtureStream(),
                                              ContinuationStream(), bytes);
  }
}

// A sharded capture labeled each worker's detector counters `shard="N"`.
// Restored, their totals continue on the one detector's `shard="0"`
// series; the routing families only sharding registered, and per-node
// firing counters (node ids of the capturing layout's graphs), are
// dropped.
TEST(SnapshotGoldenTest, DataShardedCountersContinueOnShardZero) {
  const std::string bytes = testing::ReadFile(FixturePath(2, "_data_sharded"));
  ASSERT_FALSE(bytes.empty()) << "missing fixture";
  EngineHarness h;
  ASSERT_TRUE(h.AddRules(kFixtureRules).ok());
  ASSERT_TRUE(h.engine->Compile().ok());
  ASSERT_TRUE(h.engine->RestoreState(bytes).ok());

  const uint64_t matches = h.engine->stats().detector.rule_matches;
  EXPECT_GT(matches, 0u);
  std::map<std::string, uint64_t> counters;
  for (const auto& [name, value] :
       h.engine->metrics_registry().CounterValues()) {
    counters[name] = value;
  }
  EXPECT_EQ(counters["detector_rule_matches_total{shard=\"0\"}"], matches);
  for (const auto& [name, value] : counters) {
    EXPECT_FALSE(name.starts_with("detector_") &&
                 name.find('{') == std::string::npos)
        << "unlabeled series " << name;
    EXPECT_FALSE(name.starts_with("shard_")) << name;
    EXPECT_NE(name, "rfidcep_unrouted_observations_total");
    if (name.starts_with("graph_node_firings_total{")) {
      EXPECT_EQ(value, 0u) << name;
    }
  }
  const std::string exported = h.engine->ExportMetrics();
  EXPECT_NE(exported.find("detector_rule_matches_total{shard=\"0\"} " +
                          std::to_string(matches) + "\n"),
            std::string::npos)
      << exported;
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
  ASSERT_EQ(decoded.sources.size(), 1u);
  size_t stamped_leaves = 0;
  for (const snapshot::NodeStateRecord& rec : decoded.sources[0].nodes) {
    if (rec.state_key.starts_with("PRIM{<=")) ++stamped_leaves;
  }
  EXPECT_EQ(stamped_leaves, 5u);
  // dup5 and dup9 are one window family today, but each held its own
  // leaf's instance of an observation then: their records name distinct
  // instances of one observation, which restore keeps as separate
  // entries of the shared buffer.
  std::vector<uint32_t> dup_entries[2];
  for (const snapshot::NodeStateRecord& rec : decoded.sources[0].nodes) {
    if (!rec.state_key.starts_with("SEQ")) continue;
    int member = rec.state_key.starts_with("SEQ[0sec,inf]{<=5sec}") ? 0 : 1;
    for (const snapshot::SlotEntryRecord& entry : rec.slots[0]) {
      dup_entries[member].push_back(entry.instance);
    }
  }
  bool same_observation = false;
  for (uint32_t a : dup_entries[0]) {
    for (uint32_t b : dup_entries[1]) {
      EXPECT_NE(a, b);
      const snapshot::InstanceRecord& x = decoded.sources[0].instances[a];
      const snapshot::InstanceRecord& y = decoded.sources[0].instances[b];
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
// buffer per family, and capturing again writes each member's own view.
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

  // The family engine writes the same bytes the per-node buffers did:
  // captured after the same head, and captured again after a restore.
  EngineHarness live;
  ASSERT_TRUE(live.AddRules(kWindowFamilyRules).ok());
  ASSERT_TRUE(live.engine->Compile().ok());
  ASSERT_TRUE(live.engine->ProcessAll(kWindowFamilyHead).ok());
  EXPECT_EQ(Serialized(live.engine.get()), bytes);
  EngineHarness restored;
  ASSERT_TRUE(restored.AddRules(kWindowFamilyRules).ok());
  ASSERT_TRUE(restored.engine->Compile().ok());
  ASSERT_TRUE(restored.engine->RestoreState(bytes).ok());
  EXPECT_EQ(Serialized(restored.engine.get()), bytes);
  // Shared entries are stored once: fewer physical entries than the
  // members' views add up to.
  EXPECT_LT(restored.engine->TotalBufferedEntries(), 27u);
}

}  // namespace
}  // namespace rfidcep::engine
