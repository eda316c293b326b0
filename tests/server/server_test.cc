// End-to-end rfidcepd tests (ISSUE 10): a real Server on a loopback
// socket, a client speaking the binary protocol, and an in-process
// library engine as the oracle. The daemon must be a transparent
// transport — byte-identical match/fired counts to the library path —
// and its SIGTERM lifecycle must reconcile exactly across a restart.

#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "engine/engine.h"
#include "store/csv.h"
#include "store/database.h"
#include "store/wal.h"
#include "tests/engine/test_util.h"

namespace rfidcep::server {
namespace {

namespace fs = std::filesystem;

// Two rule families per tenant: a per-observation SQL action and a
// WITHIN pair raising an alarm procedure (the exactly-once surface).
constexpr std::string_view kAlphaRules = R"(
  CREATE RULE loc, location update rule
  ON observation(r, o, t)
  IF true
  DO INSERT INTO OBJECTLOCATION VALUES (o, r, t, "UC")

  CREATE RULE dup, duplicate read rule
  ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
  IF true
  DO raise alarm
)";

constexpr std::string_view kBetaRules = R"(
  CREATE RULE watch, watched object rule
  ON observation(r, o, t)
  IF o = 'hot'
  DO notify security
)";

// Deterministic trace: the same (reader, object) pair recurs every 2.5
// seconds, inside dup's 5-second window; every 7th object is 'hot'.
std::vector<events::Observation> MakeTrace(int count) {
  std::vector<events::Observation> trace;
  trace.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::string object = i % 7 == 0 ? "hot" : "obj" + std::to_string(i % 5);
    trace.push_back(events::Observation{"dock" + std::to_string(i % 5),
                                        std::move(object),
                                        static_cast<TimePoint>(i) *
                                            (kSecond / 2)});
  }
  return trace;
}

std::vector<std::vector<events::Observation>> Batched(
    const std::vector<events::Observation>& trace, size_t batch) {
  std::vector<std::vector<events::Observation>> batches;
  for (size_t i = 0; i < trace.size(); i += batch) {
    batches.emplace_back(trace.begin() + static_cast<ptrdiff_t>(i),
                         trace.begin() +
                             static_cast<ptrdiff_t>(
                                 std::min(i + batch, trace.size())));
  }
  return batches;
}

// A minimal protocol client for loopback tests.
class Client {
 public:
  ~Client() { Close(); }

  bool Connect(int port, const std::string& tenant) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return false;
    }
    if (!SendRaw(EncodeHello(tenant))) return false;
    Frame frame;
    return ReadFrame(&frame) && frame.type == FrameType::kAck;
  }

  bool SendRaw(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads server frames until one complete frame is available.
  bool ReadFrame(Frame* out) {
    for (;;) {
      switch (reader_.Next(out)) {
        case DecodeResult::kItem:
          return true;
        case DecodeResult::kError:
          return false;
        case DecodeResult::kNeedMore:
          break;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      reader_.Feed(std::string_view(chunk, static_cast<size_t>(n)));
    }
  }

  // Sends one frame and waits for its ack.
  bool Roundtrip(std::string_view encoded_frame) {
    if (!SendRaw(encoded_frame)) return false;
    Frame frame;
    return ReadFrame(&frame) && frame.type == FrameType::kAck;
  }

  bool Stats(StatsReply* out) {
    if (!SendRaw(EncodeFrame(FrameType::kStats, ""))) return false;
    Frame frame;
    if (!ReadFrame(&frame) || frame.type != FrameType::kStatsReply) {
      return false;
    }
    return DecodeStatsReply(frame.body, out).ok();
  }

  // Reads the terminal kError frame (after the server fails the
  // connection) and the EOF behind it.
  bool ReadError(Status* out) {
    Frame frame;
    if (!ReadFrame(&frame) || frame.type != FrameType::kError) return false;
    if (!DecodeError(frame.body, out).ok()) return false;
    char byte;
    return ::recv(fd_, &byte, 1, 0) == 0;  // Server closed.
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

struct Reference {
  explicit Reference(std::string_view rules) {
    EXPECT_TRUE(db.InstallRfidSchema().ok());
    engine =
        std::make_unique<engine::RcedaEngine>(&db, events::Environment{});
    EXPECT_TRUE(engine->AddRulesFromText(rules).ok());
    engine->RegisterProcedure("raise alarm",
                              [this](const engine::RuleFiring&,
                                     const std::string&) { ++alarms; });
    engine->RegisterProcedure("notify security",
                              [this](const engine::RuleFiring&,
                                     const std::string&) { ++alarms; });
    EXPECT_TRUE(engine->Compile().ok());
  }

  store::Database db;
  std::unique_ptr<engine::RcedaEngine> engine;
  int alarms = 0;
};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("server_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  TenantConfig AlphaConfig() {
    TenantConfig config;
    config.name = "alpha";
    config.rules_text = kAlphaRules;
    return config;
  }

  TenantConfig BetaConfig() {
    TenantConfig config;
    config.name = "beta";
    config.rules_text = kBetaRules;
    config.store = false;
    return config;
  }

  // Counts alarm-procedure invocations on a live server tenant.
  static void CountAlarms(Server& server, const std::string& name, int* count) {
    for (const char* procedure : {"raise alarm", "notify security"}) {
      server.tenant(name)->engine().RegisterProcedure(
          procedure, [count](const engine::RuleFiring&, const std::string&) {
            ++*count;
          });
    }
  }

  ServerOptions Options() {
    ServerOptions options;
    options.port = 0;
    options.http_port = -1;
    options.state_dir = dir_.string();
    return options;
  }

  fs::path dir_;
};

// The daemon is a transparent transport: every count a client can see
// equals the library path.
TEST_F(ServerTest, LoopbackCountsMatchLibraryPath) {
  const std::vector<events::Observation> trace = MakeTrace(600);
  Server server(Options());
  ASSERT_TRUE(server.AddTenant(AlphaConfig()).ok());
  ASSERT_TRUE(server.AddTenant(BetaConfig()).ok());
  int alpha_alarms = 0;
  int beta_alarms = 0;
  CountAlarms(server, "alpha", &alpha_alarms);
  CountAlarms(server, "beta", &beta_alarms);
  ASSERT_TRUE(server.Start().ok());

  Client alpha;
  Client beta;
  ASSERT_TRUE(alpha.Connect(server.bound_port(), "alpha"));
  ASSERT_TRUE(beta.Connect(server.bound_port(), "beta"));
  for (const auto& batch : Batched(trace, 32)) {
    ASSERT_TRUE(alpha.Roundtrip(EncodeBatch(batch)));
    ASSERT_TRUE(beta.Roundtrip(EncodeBatch(batch)));
  }
  ASSERT_TRUE(alpha.Roundtrip(EncodeFrame(FrameType::kFlush, "")));
  ASSERT_TRUE(beta.Roundtrip(EncodeFrame(FrameType::kFlush, "")));

  StatsReply alpha_stats;
  StatsReply beta_stats;
  ASSERT_TRUE(alpha.Stats(&alpha_stats));
  ASSERT_TRUE(beta.Stats(&beta_stats));

  // Library oracle, fed the same trace directly.
  Reference alpha_ref(kAlphaRules);
  Reference beta_ref(kBetaRules);
  ASSERT_TRUE(alpha_ref.engine->ProcessAll(trace).ok());
  ASSERT_TRUE(beta_ref.engine->ProcessAll(trace).ok());
  ASSERT_TRUE(alpha_ref.engine->Flush().ok());
  ASSERT_TRUE(beta_ref.engine->Flush().ok());

  const engine::EngineStats& alpha_want = alpha_ref.engine->stats();
  EXPECT_EQ(alpha_stats.observations, alpha_want.detector.observations);
  EXPECT_EQ(alpha_stats.matches, alpha_want.detector.rule_matches);
  EXPECT_EQ(alpha_stats.rules_fired, alpha_want.rules_fired);
  EXPECT_EQ(alpha_stats.sql_actions, alpha_want.sql_actions_executed);
  EXPECT_EQ(alpha_stats.procedures, alpha_want.procedures_invoked);
  ASSERT_EQ(alpha_stats.fired.size(), 2u);
  for (const auto& [rule, count] : alpha_stats.fired) {
    EXPECT_EQ(count, alpha_ref.engine->FiredCount(rule)) << rule;
  }
  EXPECT_EQ(alpha_alarms, alpha_ref.alarms);

  const engine::EngineStats& beta_want = beta_ref.engine->stats();
  EXPECT_EQ(beta_stats.observations, beta_want.detector.observations);
  EXPECT_EQ(beta_stats.matches, beta_want.detector.rule_matches);
  EXPECT_EQ(beta_stats.rules_fired, beta_want.rules_fired);
  EXPECT_EQ(beta_stats.procedures, beta_want.procedures_invoked);
  EXPECT_EQ(beta_alarms, beta_ref.alarms);

  // The trace fires something in every family, or the test is vacuous.
  EXPECT_GT(alpha_stats.sql_actions, 0u);
  EXPECT_GT(alpha_stats.procedures, 0u);
  EXPECT_GT(beta_stats.rules_fired, 0u);

  EXPECT_TRUE(server.Shutdown().ok());
}

// The SIGTERM path: shutdown mid-stream checkpoints, a new server over
// the same state directory resumes, and the client finishes the stream. Totals reconcile exactly with an
// uninterrupted run; no alarm or procedure fires twice.
TEST_F(ServerTest, ShutdownMidStreamRestartResumes) {
  const std::vector<events::Observation> trace = MakeTrace(600);
  const auto batches = Batched(trace, 32);
  const size_t split = batches.size() / 2;
  int alarms_before = 0;
  int alarms_after = 0;

  {
    Server server(Options());
    ASSERT_TRUE(server.AddTenant(AlphaConfig()).ok());
    CountAlarms(server, "alpha", &alarms_before);
    ASSERT_TRUE(server.Start().ok());
    Client client;
    ASSERT_TRUE(client.Connect(server.bound_port(), "alpha"));
    for (size_t i = 0; i < split; ++i) {
      // Each ack means the frame is fully processed: everything acked
      // before Shutdown() is inside the checkpoint.
      ASSERT_TRUE(client.Roundtrip(EncodeBatch(batches[i])));
    }
    ASSERT_TRUE(server.Shutdown().ok());
  }

  {
    Server server(Options());
    ASSERT_TRUE(server.AddTenant(AlphaConfig()).ok());
    ASSERT_TRUE(server.tenant("alpha")->restored());
    CountAlarms(server, "alpha", &alarms_after);
    ASSERT_TRUE(server.Start().ok());
    Client client;
    ASSERT_TRUE(client.Connect(server.bound_port(), "alpha"));
    for (size_t i = split; i < batches.size(); ++i) {
      ASSERT_TRUE(client.Roundtrip(EncodeBatch(batches[i])));
    }
    ASSERT_TRUE(client.Roundtrip(EncodeFrame(FrameType::kFlush, "")));
    StatsReply stats;
    ASSERT_TRUE(client.Stats(&stats));

    Reference ref(kAlphaRules);
    ASSERT_TRUE(ref.engine->ProcessAll(trace).ok());
    ASSERT_TRUE(ref.engine->Flush().ok());

    // Counters persist through the snapshot, so the restarted tenant
    // reports whole-stream totals, not a post-restart suffix.
    const engine::EngineStats& want = ref.engine->stats();
    EXPECT_EQ(stats.observations, want.detector.observations);
    EXPECT_EQ(stats.matches, want.detector.rule_matches);
    EXPECT_EQ(stats.rules_fired, want.rules_fired);
    EXPECT_EQ(stats.sql_actions, want.sql_actions_executed);
    EXPECT_EQ(stats.procedures, want.procedures_invoked);
    for (const auto& [rule, count] : stats.fired) {
      EXPECT_EQ(count, ref.engine->FiredCount(rule)) << rule;
    }
    // Zero duplicate effects: invocations across both server lifetimes
    // sum to exactly the uninterrupted run's.
    EXPECT_EQ(alarms_before + alarms_after, ref.alarms);
    EXPECT_GT(alarms_before, 0);
    EXPECT_GT(alarms_after, 0);

    EXPECT_TRUE(server.Shutdown().ok());
  }
}

// Upgrading rfidcepd over an existing state dir. A checkpoint an older
// one-detector build wrote (snapshot version 2) restores; one a
// rule-sharded build wrote stops AddTenant, and so the daemon's start,
// with the file and the layout in the message.
class UpgradeTest : public ServerTest {
 protected:
  // Installs the committed fixture `name` as tenant "legacy"'s checkpoint.
  TenantConfig LegacyTenant(const std::string& fixture) {
    fs::create_directories(dir_ / "legacy");
    fs::copy_file(fs::path(RFIDCEP_TESTDATA_DIR) / fixture,
                  dir_ / "legacy" / "checkpoint.snap");
    TenantConfig config;
    config.name = "legacy";
    config.rules_text = engine::testing::kFixtureRules;
    return config;
  }
};

TEST_F(UpgradeTest, Version2CheckpointRestores) {
  Server server(Options());
  ASSERT_TRUE(server.AddTenant(LegacyTenant("checkpoint_v2.snap")).ok());
  EXPECT_TRUE(server.tenant("legacy")->restored());
  // The fixture holds the six observations of its stream.
  EXPECT_EQ(server.tenant("legacy")->engine().stats().detector.observations,
            6u);
}

TEST_F(UpgradeTest, RuleShardedCheckpointStopsTheTenant) {
  Server server(Options());
  const Status status =
      server.AddTenant(LegacyTenant("checkpoint_v2_rule_sharded.snap"));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  const std::string file = (dir_ / "legacy" / "checkpoint.snap").string();
  EXPECT_NE(status.message().find(file), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("2 detector sources"), std::string::npos)
      << status.message();
  EXPECT_EQ(server.tenant("legacy"), nullptr);
}

// A location-history rule (an UPDATE closing the open interval, then an
// INSERT: later rows depend on earlier ones) beside kAlphaRules' alarm.
constexpr std::string_view kCrashRules = R"(
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

std::string DumpStore(const store::Database& db) {
  std::string out;
  for (const char* table :
       {"OBSERVATION", "OBJECTLOCATION", "OBJECTCONTAINMENT"}) {
    out += table;
    out += '\n';
    out += store::TableToCsv(*db.GetTable(table));
  }
  return out;
}

std::vector<fs::path> WalSegments(const fs::path& wal_dir) {
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(wal_dir)) {
    segments.push_back(entry.path());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

uint64_t WalBytes(const fs::path& wal_dir) {
  uint64_t bytes = 0;
  for (const fs::path& segment : WalSegments(wal_dir)) {
    bytes += fs::file_size(segment);
  }
  return bytes;
}

// Cuts the final WAL segment halfway through the record holding log
// byte `target`, as a crash inside write() would leave it.
void CutFinalSegmentMidRecord(const fs::path& wal_dir, uint64_t target) {
  const std::vector<fs::path> segments = WalSegments(wal_dir);
  ASSERT_FALSE(segments.empty());
  const fs::path& last = segments.back();
  const uint64_t last_size = fs::file_size(last);
  const uint64_t base = WalBytes(wal_dir) - last_size;
  ASSERT_GE(target, base) << "target precedes the final segment";
  std::string data(last_size, '\0');
  {
    std::ifstream in(last, std::ios::binary);
    ASSERT_TRUE(in.read(data.data(), static_cast<std::streamsize>(last_size)));
  }
  // Frames are u32 payload length, u32 CRC, payload.
  for (uint64_t offset = 0; offset + 8 <= last_size;) {
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(static_cast<uint8_t>(data[offset + i]))
             << (8 * i);
    }
    const uint64_t end = offset + 8 + len;
    if (base + end > target) {
      fs::resize_file(last, offset + 8 + len / 2);
      return;
    }
    offset = end;
  }
  FAIL() << "no record spans WAL byte " << target;
}

// The crash path through tenant recovery: a checkpoint, then a suffix
// the crash dooms (Server destroyed without Shutdown(), final WAL
// segment cut mid-record), then a server on the same state directory
// re-derives every post-checkpoint firing against the recovered log
// while the client resends each frame after its checkpoint ack.
TEST_F(ServerTest, CrashAfterCheckpointRecoversStoreExactlyOnce) {
  const std::vector<events::Observation> trace = MakeTrace(600);
  const auto batches = Batched(trace, 32);
  const size_t split = batches.size() / 2;
  const size_t doomed_end = split + (batches.size() - split) / 2;
  const fs::path wal_dir = dir_ / "alpha" / "wal";
  TenantConfig config = AlphaConfig();
  config.rules_text = kCrashRules;

  // Alarm invocations per (rule, firing seq), per lifetime.
  using Key = std::pair<std::string, uint64_t>;
  using Invocations = std::map<Key, int>;
  auto name = [](const Key& key) {
    return key.first + "#" + std::to_string(key.second);
  };
  auto count_alarms = [](engine::RcedaEngine& engine, Invocations* out) {
    engine.RegisterProcedure(
        "raise alarm",
        [out](const engine::RuleFiring& firing, const std::string&) {
          ++(*out)[Key(firing.rule->id, firing.seq)];
        });
  };

  Invocations crashed;
  uint64_t checkpoint_bytes = 0;
  // Each rule's fired count at the checkpoint: the restored engine
  // numbers its firings past it.
  std::map<std::string, uint64_t> checkpoint_fired;
  {
    Server server(Options());
    ASSERT_TRUE(server.AddTenant(config).ok());
    count_alarms(server.tenant("alpha")->engine(), &crashed);
    ASSERT_TRUE(server.Start().ok());
    Client client;
    ASSERT_TRUE(client.Connect(server.bound_port(), "alpha"));
    for (size_t i = 0; i < split; ++i) {
      ASSERT_TRUE(client.Roundtrip(EncodeBatch(batches[i])));
    }
    ASSERT_TRUE(client.Roundtrip(EncodeFrame(FrameType::kCheckpoint, "")));
    // The checkpoint synced the WAL and trimmed what its image holds:
    // these bytes are the durable log.
    checkpoint_bytes = WalBytes(wal_dir);
    StatsReply at_checkpoint;
    ASSERT_TRUE(client.Stats(&at_checkpoint));
    checkpoint_fired.insert(at_checkpoint.fired.begin(),
                            at_checkpoint.fired.end());
    for (size_t i = split; i < doomed_end; ++i) {
      ASSERT_TRUE(client.Roundtrip(EncodeBatch(batches[i])));
    }
    client.Close();
  }  // ~Server: no checkpoint; the WAL flushes what it buffered.
  const uint64_t crash_bytes = WalBytes(wal_dir);
  ASSERT_GT(crash_bytes, checkpoint_bytes);
  CutFinalSegmentMidRecord(
      wal_dir, checkpoint_bytes + (crash_bytes - checkpoint_bytes) / 2);

  // Which alarm frames survived the cut, read from a copy so the
  // tenant's own Open() still meets the torn tail.
  std::set<Key> kept;
  {
    const fs::path copy = dir_ / "wal_copy";
    fs::copy(wal_dir, copy, fs::copy_options::recursive);
    Result<std::unique_ptr<store::Wal>> wal = store::Wal::Open(copy.string());
    ASSERT_TRUE(wal.ok()) << wal.status().message();
    ASSERT_TRUE((*wal)
                    ->Replay(0,
                             [&](const store::WalRecord& r) {
                               if (r.kind == store::WalRecordKind::kAlarm) {
                                 kept.insert(Key(r.rule_id, r.action_seq));
                               }
                               return Status::Ok();
                             })
                    .ok());
    wal->reset();
    fs::remove_all(copy);
  }

  Invocations recovered;
  Server server(Options());
  ASSERT_TRUE(server.AddTenant(config).ok());
  Tenant* tenant = server.tenant("alpha");
  ASSERT_TRUE(tenant->restored());
  count_alarms(tenant->engine(), &recovered);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect(server.bound_port(), "alpha"));
  for (size_t i = split; i < batches.size(); ++i) {
    ASSERT_TRUE(client.Roundtrip(EncodeBatch(batches[i])));
  }
  ASSERT_TRUE(client.Roundtrip(EncodeFrame(FrameType::kFlush, "")));
  StatsReply stats;
  ASSERT_TRUE(client.Stats(&stats));
  std::string store_dump;
  {
    std::lock_guard<std::mutex> lock(tenant->mu());
    store_dump = DumpStore(*tenant->db());
  }

  Reference ref(kCrashRules);
  Invocations uninterrupted;
  count_alarms(*ref.engine, &uninterrupted);
  ASSERT_TRUE(ref.engine->ProcessAll(trace).ok());
  ASSERT_TRUE(ref.engine->Flush().ok());

  const engine::EngineStats& want = ref.engine->stats();
  EXPECT_EQ(stats.observations, want.detector.observations);
  EXPECT_EQ(stats.matches, want.detector.rule_matches);
  EXPECT_EQ(stats.rules_fired, want.rules_fired);
  EXPECT_EQ(stats.sql_actions, want.sql_actions_executed);
  EXPECT_EQ(stats.procedures, want.procedures_invoked);
  ASSERT_EQ(stats.fired.size(), 2u);
  for (const auto& [rule, count] : stats.fired) {
    EXPECT_EQ(count, ref.engine->FiredCount(rule)) << rule;
  }
  // Same layout on both sides of the crash: byte-identical tables.
  EXPECT_EQ(store_dump, DumpStore(ref.db));

  client.Close();
  ASSERT_TRUE(server.Shutdown().ok());  // Joins the connection threads.

  // docs/recovery.md's envelope: every alarm of the uninterrupted run
  // ran once, a key at or below the checkpoint's fired count exactly
  // once (its frame went with the trimmed log, and the restored engine
  // never re-derives it); a second run only for a key above it that the
  // crashed server invoked and whose frame the cut destroyed; no alarm
  // the reference never raised.
  int lost_frames = 0;
  int checkpointed_keys = 0;
  for (const auto& [key, count] : uninterrupted) {
    ASSERT_EQ(count, 1) << name(key);
    const bool checkpointed = key.second <= checkpoint_fired.at(key.first);
    const bool rerun_allowed =
        !checkpointed && crashed.count(key) != 0 && kept.count(key) == 0;
    const int combined = (crashed.count(key) != 0 ? crashed.at(key) : 0) +
                         (recovered.count(key) != 0 ? recovered.at(key) : 0);
    EXPECT_EQ(combined, rerun_allowed ? 2 : 1) << name(key);
    lost_frames += rerun_allowed ? 1 : 0;
    checkpointed_keys += checkpointed ? 1 : 0;
  }
  for (const Invocations* run : {&crashed, &recovered}) {
    for (const auto& [key, count] : *run) {
      EXPECT_EQ(uninterrupted.count(key), 1u) << "phantom alarm " << name(key);
    }
  }
  // The trimmed log kept no frame at or below the checkpoint.
  for (const Key& key : kept) {
    EXPECT_GT(key.second, checkpoint_fired.at(key.first)) << name(key);
  }
  // The trace raises alarms before the checkpoint and on both sides of
  // the cut, or the test is vacuous.
  EXPECT_GT(checkpointed_keys, 0);
  EXPECT_GT(kept.size(), 0u);
  EXPECT_GT(lost_frames, 0);
  EXPECT_GT(want.sql_actions_executed, 0u);
}

// A state dir an older build wrote: checkpoint.snap and a log from LSN
// 1, no store image (that build's Tenant::Checkpoint was the snapshot
// alone, in the bytes this one writes). It opens by replaying the whole
// log, reconciles with an uninterrupted run, and its next checkpoint
// writes the image and trims the log.
TEST_F(UpgradeTest, StateDirWithoutImageReplaysAndIsTrimmedAtItsNextCheckpoint) {
  const std::vector<events::Observation> trace = MakeTrace(400);
  const auto batches = Batched(trace, 32);
  const size_t split = batches.size() / 2;
  const TenantConfig config = AlphaConfig();
  const fs::path tenant_dir = dir_ / "alpha";
  {
    store::Database db;
    ASSERT_TRUE(db.InstallRfidSchema().ok());
    Result<std::unique_ptr<store::Wal>> wal =
        store::Wal::Open((tenant_dir / "wal").string());
    ASSERT_TRUE(wal.ok()) << wal.status();
    engine::RcedaEngine engine(&db, events::Environment{});
    ASSERT_TRUE(engine.AddRulesFromText(config.rules_text).ok());
    ASSERT_TRUE(engine.AttachWal(wal->get()).ok());
    ASSERT_TRUE(engine.Compile().ok());
    for (size_t i = 0; i < split; ++i) {
      ASSERT_TRUE(engine.ProcessAll(batches[i]).ok());
    }
    ASSERT_TRUE(engine.Checkpoint((tenant_dir / "checkpoint.snap").string())
                    .ok());
  }
  ASSERT_FALSE(fs::exists(tenant_dir / "store.img"));
  ASSERT_EQ(WalSegments(tenant_dir / "wal").front().filename().string(),
            "wal-00000000000000000001.seg");

  Server server(Options());
  ASSERT_TRUE(server.AddTenant(config).ok());
  Tenant* tenant = server.tenant("alpha");
  ASSERT_TRUE(tenant->restored());
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect(server.bound_port(), "alpha"));
  for (size_t i = split; i < batches.size(); ++i) {
    ASSERT_TRUE(client.Roundtrip(EncodeBatch(batches[i])));
  }
  ASSERT_TRUE(client.Roundtrip(EncodeFrame(FrameType::kCheckpoint, "")));
  uint64_t last_lsn = 0;
  {
    std::lock_guard<std::mutex> lock(tenant->mu());
    last_lsn = tenant->engine().wal()->last_lsn();
  }
  EXPECT_TRUE(fs::exists(tenant_dir / "store.img"));
  const std::vector<fs::path> segments = WalSegments(tenant_dir / "wal");
  ASSERT_EQ(segments.size(), 1u);
  char want[48];
  std::snprintf(want, sizeof(want), "wal-%020llu.seg",
                static_cast<unsigned long long>(last_lsn + 1));
  EXPECT_EQ(segments[0].filename().string(), want);
  EXPECT_EQ(fs::file_size(segments[0]), 0u);
  ASSERT_TRUE(client.Roundtrip(EncodeFrame(FrameType::kFlush, "")));
  StatsReply stats;
  ASSERT_TRUE(client.Stats(&stats));
  std::string store_dump;
  {
    std::lock_guard<std::mutex> lock(tenant->mu());
    store_dump = DumpStore(*tenant->db());
  }
  client.Close();
  ASSERT_TRUE(server.Shutdown().ok());

  Reference ref(config.rules_text);
  ASSERT_TRUE(ref.engine->ProcessAll(trace).ok());
  ASSERT_TRUE(ref.engine->Flush().ok());
  EXPECT_EQ(stats.observations, ref.engine->stats().detector.observations);
  EXPECT_EQ(stats.rules_fired, ref.engine->stats().rules_fired);
  EXPECT_EQ(stats.sql_actions, ref.engine->stats().sql_actions_executed);
  EXPECT_EQ(store_dump, DumpStore(ref.db));

  // And the upgraded state dir relaunches through its image.
  Server relaunched(Options());
  ASSERT_TRUE(relaunched.AddTenant(config).ok());
  EXPECT_TRUE(relaunched.tenant("alpha")->restored());
  EXPECT_EQ(DumpStore(*relaunched.tenant("alpha")->db()), store_dump);
}

TEST_F(ServerTest, GarbageBytesFailTheConnectionCleanly) {
  Server server(Options());
  ASSERT_TRUE(server.AddTenant(BetaConfig()).ok());
  ASSERT_TRUE(server.Start().ok());

  // Garbage after a valid hello: framing CRC catches it, the server
  // reports, counts, and closes; the engine is untouched.
  Client client;
  ASSERT_TRUE(client.Connect(server.bound_port(), "beta"));
  ASSERT_TRUE(client.SendRaw(std::string(64, '\xee')));
  Status error = Status::Ok();
  ASSERT_TRUE(client.ReadError(&error));
  EXPECT_FALSE(error.ok());

  // Garbage instead of a hello.
  Client bad_hello;
  ASSERT_TRUE(bad_hello.Connect(server.bound_port(), "beta"));
  // Reuse the raw socket path: fresh connection, wrong magic.
  Client raw;
  {
    // Connect() sends a valid hello, so hand-roll the socket.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server.bound_port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ASSERT_EQ(::send(fd, "GET / HTTP/1.1\r\n", 16, MSG_NOSIGNAL), 16);
    std::string reply;
    char chunk[512];
    for (ssize_t n; (n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0;) {
      reply.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
    EXPECT_NE(reply.size(), 0u);  // kError frame, then EOF.
  }

  // Unknown tenant in an otherwise valid hello.
  Client ghost;
  EXPECT_FALSE(ghost.Connect(server.bound_port(), "no-such-tenant"));

  const std::string metrics = server.ExportMetrics();
  EXPECT_NE(metrics.find("rfidcepd_protocol_errors_total 3"),
            std::string::npos)
      << metrics;
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST_F(ServerTest, HttpServesMetricsAndHealth) {
  ServerOptions options = Options();
  options.http_port = 0;  // Ephemeral.
  Server server(options);
  ASSERT_TRUE(server.AddTenant(BetaConfig()).ok());
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.bound_port(), "beta"));
  ASSERT_TRUE(client.Roundtrip(EncodeBatch(MakeTrace(20))));

  auto http_get = [&](const std::string& path) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server.http_port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    EXPECT_TRUE(::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
                static_cast<ssize_t>(request.size()));
    std::string reply;
    char chunk[4096];
    for (ssize_t n; (n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0;) {
      reply.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
    return reply;
  };

  const std::string health = http_get("/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = http_get("/metrics");
  EXPECT_NE(metrics.find("rfidcepd_observations_total 20"), std::string::npos)
      << metrics;
  // Tenant engine metrics come through with a tenant label injected.
  EXPECT_NE(metrics.find("tenant=\"beta\""), std::string::npos);

  EXPECT_NE(http_get("/nope").find("404"), std::string::npos);
  EXPECT_TRUE(server.Shutdown().ok());
}

// The value of the sample `name` in a /metrics exposition, or -1.
int64_t SampleValue(const std::string& metrics, const std::string& name) {
  const size_t at = metrics.find("\n" + name + " ");
  if (at == std::string::npos) return -1;
  return std::stoll(metrics.substr(at + name.size() + 2));
}

// /metrics reads a tenant's counts under the tenant lock, so a scrape
// racing a streaming client reads whole batches (never a count torn by
// the ingest thread), and once the stream is acked it reads exactly the
// acked observations. The TSan pass checks the race.
TEST_F(ServerTest, ScrapeWhileStreamingReadsAckedTotals) {
  Server server(Options());
  ASSERT_TRUE(server.AddTenant(AlphaConfig()).ok());
  ASSERT_TRUE(server.Start().ok());
  const std::string observations =
      "rfidcep_observations_total{tenant=\"alpha\"}";
  constexpr size_t kBatch = 25;
  const auto batches = Batched(MakeTrace(2000), kBatch);

  std::atomic<bool> streaming{true};
  int scrapes = 0;
  int64_t last = 0;
  bool whole_batches = true;
  bool monotone = true;
  std::thread scraper([&] {
    do {
      const int64_t seen = SampleValue(server.ExportMetrics(), observations);
      whole_batches = whole_batches && seen >= 0 && seen % kBatch == 0;
      monotone = monotone && seen >= last;
      last = seen;
      ++scrapes;
    } while (streaming.load());
  });
  Client client;
  bool acked_all = client.Connect(server.bound_port(), "alpha");
  size_t acked = 0;
  for (const auto& batch : batches) {
    if (!acked_all || !client.Roundtrip(EncodeBatch(batch))) {
      acked_all = false;
      break;
    }
    acked += batch.size();
  }
  streaming = false;
  scraper.join();

  ASSERT_TRUE(acked_all);
  EXPECT_GT(scrapes, 0);
  EXPECT_TRUE(whole_batches);
  EXPECT_TRUE(monotone);
  EXPECT_EQ(SampleValue(server.ExportMetrics(), observations),
            static_cast<int64_t>(acked));
  EXPECT_TRUE(server.Shutdown().ok());
}

// Every sample of a /metrics exposition by name, label set included.
std::map<std::string, int64_t> Samples(const std::string& metrics) {
  std::map<std::string, int64_t> out;
  std::istringstream in(metrics);
  for (std::string line; std::getline(in, line);) {
    const size_t space = line.rfind(' ');
    if (line.empty() || line[0] == '#' || space == std::string::npos) {
      continue;
    }
    out[line.substr(0, space)] = std::stoll(line.substr(space + 1));
  }
  return out;
}

// `name{labels}` as /metrics labels it for `tenant`.
std::string TenantSample(const std::string& name, const std::string& tenant) {
  const std::string label = "tenant=\"" + tenant + "\"";
  const size_t brace = name.find('{');
  if (brace == std::string::npos) return name + "{" + label + "}";
  return name.substr(0, brace + 1) + label + "," + name.substr(brace + 1);
}

// /metrics copies a tenant's counts and timing histograms under the
// tenant lock and formats the copy after releasing it. A scraper reads
// the whole exposition while a connection ingests: each scrape is one
// instant of the engine (whole batches; no rule's match timer ahead of
// its match count), and after the stream every count reconciles with the
// library path on the same frames. The TSan pass checks that nothing
// formatted outside the lock is written by the ingest thread.
TEST_F(ServerTest, ScrapeFormatsOutsideTheTenantLockAndReconciles) {
  Server server(Options());
  ASSERT_TRUE(server.AddTenant(AlphaConfig()).ok());
  int alarms = 0;
  CountAlarms(server, "alpha", &alarms);
  ASSERT_TRUE(server.Start().ok());
  constexpr size_t kBatch = 25;
  const auto batches = Batched(MakeTrace(2000), kBatch);
  const int64_t period =
      static_cast<int64_t>(engine::RcedaEngine::kMatchTimingPeriod);
  const std::vector<std::string> rules = {"loc", "dup"};

  std::atomic<bool> streaming{true};
  int scrapes = 0;
  bool consistent = true;
  std::thread scraper([&] {
    do {
      const std::map<std::string, int64_t> seen =
          Samples(server.ExportMetrics());
      auto value = [&](const std::string& name) {
        auto it = seen.find(TenantSample(name, "alpha"));
        return it != seen.end() ? it->second : -1;
      };
      consistent = consistent &&
                   value("rfidcep_observations_total") % kBatch == 0 &&
                   value("rfidcep_process_us_count") ==
                       value("rfidcep_process_calls_total");
      for (const std::string& rule : rules) {
        const std::string label = "{rule=\"" + rule + "\"}";
        const int64_t matches = value("rule_matches_total" + label);
        const int64_t timed = value("rule_match_handle_us_count" + label);
        consistent = consistent && timed >= 0 && timed <= matches &&
                     matches - timed < period;
      }
      ++scrapes;
    } while (streaming.load());
  });
  Client client;
  bool acked_all = client.Connect(server.bound_port(), "alpha");
  for (const auto& batch : batches) {
    if (!acked_all || !client.Roundtrip(EncodeBatch(batch))) {
      acked_all = false;
      break;
    }
  }
  streaming = false;
  scraper.join();
  ASSERT_TRUE(acked_all);
  EXPECT_GT(scrapes, 0);
  EXPECT_TRUE(consistent);

  Reference reference(kAlphaRules);
  for (const auto& batch : batches) {
    ASSERT_TRUE(reference.engine->ProcessAll(batch).ok());
  }
  const std::map<std::string, int64_t> got = Samples(server.ExportMetrics());
  size_t counters = 0;
  for (const auto& [name, want] :
       Samples(reference.engine->ExportMetrics())) {
    if (name.find("_total") == std::string::npos) continue;
    auto it = got.find(TenantSample(name, "alpha"));
    ASSERT_NE(it, got.end()) << name;
    EXPECT_EQ(it->second, want) << name;
    ++counters;
  }
  EXPECT_GT(counters, 20u);
  EXPECT_EQ(alarms, reference.alarms);
  EXPECT_GT(got.at(TenantSample("rule_fired_total{rule=\"dup\"}", "alpha")),
            0);
  EXPECT_TRUE(server.Shutdown().ok());
}

// A /metrics exposition with every histogram bucket and sum value
// replaced by "-": those measure wall time; everything else is a count.
std::string MaskTimings(const std::string& metrics) {
  std::string out;
  std::istringstream in(metrics);
  for (std::string line; std::getline(in, line);) {
    const size_t space = line.rfind(' ');
    const std::string name = line.substr(0, std::min(line.find('{'), space));
    const auto ends_with = [&](std::string_view suffix) {
      return name.size() >= suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
    };
    if (space != std::string::npos && (ends_with("_bucket") ||
                                       ends_with("_sum"))) {
      line = line.substr(0, space) + " -";
    }
    out += line + "\n";
  }
  return out;
}

// One scrape of two tenants with metrics on and per-rule histograms: the
// daemon's own counters, then each tenant's samples with its tenant
// label first in every label set (histogram buckets, sums and counts
// included). The exposition's bytes, timings masked, are pinned by a
// digest.
TEST_F(ServerTest, TwoTenantScrapeBytesArePinned) {
  Server server(Options());
  ASSERT_TRUE(server.AddTenant(AlphaConfig()).ok());
  ASSERT_TRUE(server.AddTenant(BetaConfig()).ok());
  int alarms = 0;
  CountAlarms(server, "alpha", &alarms);
  CountAlarms(server, "beta", &alarms);
  ASSERT_TRUE(server.Start().ok());
  const auto batches = Batched(MakeTrace(300), 25);
  Client alpha;
  Client beta;
  ASSERT_TRUE(alpha.Connect(server.bound_port(), "alpha"));
  ASSERT_TRUE(beta.Connect(server.bound_port(), "beta"));
  for (const auto& batch : batches) {
    ASSERT_TRUE(alpha.Roundtrip(EncodeBatch(batch)));
    ASSERT_TRUE(beta.Roundtrip(EncodeBatch(batch)));
  }
  const std::string metrics = MaskTimings(server.ExportMetrics());
  EXPECT_NE(metrics.find("rule_match_handle_us_bucket{tenant=\"alpha\","
                         "rule=\"dup\",le=\"+Inf\"} -\n"),
            std::string::npos)
      << metrics;
  EXPECT_EQ(common::FnvBytes(common::kFnvOffset, metrics),
            0x4a3643b8833fb04eull)
      << metrics;
  EXPECT_TRUE(server.Shutdown().ok());
}

// Frames already acknowledged are never resent, frames never sent are
// simply absent: the ack sequence is the exact resend boundary. A
// client that resends an *unacked but processed* frame would double
// count — the protocol makes that window empty because acks are sent
// only after processing, and Shutdown() finishes the in-flight frame.
TEST_F(ServerTest, AckSequenceNumbersAreOrderedAndComplete) {
  Server server(Options());
  ASSERT_TRUE(server.AddTenant(BetaConfig()).ok());
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect(server.bound_port(), "beta"));
  for (uint64_t want = 1; want <= 10; ++want) {
    ASSERT_TRUE(client.SendRaw(EncodeFrame(FrameType::kPing, "")));
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    ASSERT_EQ(frame.type, FrameType::kAck);
    uint64_t seq = 0;
    ASSERT_TRUE(DecodeAck(frame.body, &seq).ok());
    EXPECT_EQ(seq, want);
  }
  EXPECT_TRUE(server.Shutdown().ok());
}

}  // namespace
}  // namespace rfidcep::server
