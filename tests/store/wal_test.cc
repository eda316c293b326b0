#include "store/wal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/byte_codec.h"
#include "store/csv.h"
#include "store/database.h"
#include "store/sql_executor.h"
#include "tests/common/hex_util.h"

namespace rfidcep::store {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("wal_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<Wal> OpenOrDie(WalOptions options = {}) {
    Result<std::unique_ptr<Wal>> wal = Wal::Open(dir_.string(), options);
    EXPECT_TRUE(wal.ok()) << wal.status().message();
    return std::move(*wal);
  }

  static WalRecord MakeRecord(uint64_t seq, uint32_t index,
                              std::string sql = "INSERT INTO t VALUES (1)") {
    WalRecord record;
    record.action_seq = seq;
    record.action_index = index;
    record.affected = 1;
    record.rule_id = "r" + std::to_string(seq);
    record.sql = std::move(sql);
    return record;
  }

  static std::vector<WalRecord> ReplayAll(const Wal& wal,
                                          uint64_t after_lsn = 0) {
    std::vector<WalRecord> records;
    Status status = wal.Replay(after_lsn, [&](const WalRecord& record) {
      records.push_back(record);
      return Status::Ok();
    });
    EXPECT_TRUE(status.ok()) << status.message();
    return records;
  }

  static std::string ReadBytes(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }
  static void WriteBytes(const fs::path& path, std::string_view bytes) {
    std::ofstream(path, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::vector<fs::path> SegmentFiles() const {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  fs::path dir_;
};

TEST_F(WalTest, RoundTripsEveryParamValueKind) {
  {
    std::unique_ptr<Wal> wal = OpenOrDie();
    WalRecord record = MakeRecord(7, 2, "INSERT INTO t VALUES (:a)");
    record.affected = 3;
    record.rule_id = "dock rule";
    record.params["n"] = ParamValue::Scalar(Value::Null());
    record.params["i"] = ParamValue::Scalar(Value::Int(-42));
    record.params["d"] = ParamValue::Scalar(Value::Double(2.5));
    record.params["s"] = ParamValue::Scalar(Value::String("a \"quoted\" str"));
    record.params["t"] = ParamValue::Scalar(Value::Time(123456789));
    record.params["u"] = ParamValue::Scalar(Value::Uc());
    record.params["m"] = ParamValue::Multi(
        {Value::String("x"), Value::Int(9), Value::Uc()});
    Result<uint64_t> lsn = wal->Append(std::move(record));
    ASSERT_TRUE(lsn.ok()) << lsn.status().message();
    EXPECT_EQ(*lsn, 1u);
    ASSERT_TRUE(wal->Sync().ok());
  }

  std::unique_ptr<Wal> wal = OpenOrDie();
  EXPECT_EQ(wal->recovered_lsn(), 1u);
  const std::optional<uint32_t> affected =
      wal->recovered_actions().Find("dock rule", 7, 2);
  ASSERT_TRUE(affected.has_value());
  EXPECT_EQ(*affected, 3u);

  std::vector<WalRecord> records = ReplayAll(*wal);
  ASSERT_EQ(records.size(), 1u);
  const WalRecord& r = records[0];
  EXPECT_EQ(r.lsn, 1u);
  EXPECT_EQ(r.action_seq, 7u);
  EXPECT_EQ(r.action_index, 2u);
  EXPECT_EQ(r.affected, 3u);
  EXPECT_EQ(r.rule_id, "dock rule");
  EXPECT_EQ(r.sql, "INSERT INTO t VALUES (:a)");
  ASSERT_EQ(r.params.size(), 7u);
  EXPECT_TRUE(r.params.at("n").scalar.is_null());
  EXPECT_EQ(r.params.at("i").scalar.AsInt(), -42);
  EXPECT_EQ(r.params.at("d").scalar.AsDouble(), 2.5);
  EXPECT_EQ(r.params.at("s").scalar.AsString(), "a \"quoted\" str");
  EXPECT_EQ(r.params.at("t").scalar.AsTime(), 123456789);
  EXPECT_TRUE(r.params.at("u").scalar.is_uc());
  ASSERT_TRUE(r.params.at("m").is_multi);
  ASSERT_EQ(r.params.at("m").values.size(), 3u);
  EXPECT_EQ(r.params.at("m").values[1].AsInt(), 9);
  EXPECT_TRUE(r.params.at("m").values[2].is_uc());
}

TEST_F(WalTest, ReplayIntoDatabaseIsIdempotentViaCursor) {
  std::unique_ptr<Wal> wal = OpenOrDie();
  for (int i = 0; i < 3; ++i) {
    WalRecord record = MakeRecord(static_cast<uint64_t>(i + 1), 0,
                                  "INSERT INTO OBSERVATION VALUES ('r1', 'o" +
                                      std::to_string(i) + "', " +
                                      std::to_string(i * 10) + ")");
    ASSERT_TRUE(wal->Append(std::move(record)).ok());
  }

  Database db;
  ASSERT_TRUE(db.InstallRfidSchema().ok());
  Result<uint64_t> cursor = ReplayWalIntoDatabase(*wal, &db);
  ASSERT_TRUE(cursor.ok()) << cursor.status().message();
  EXPECT_EQ(*cursor, 3u);
  EXPECT_EQ(db.GetTable("OBSERVATION")->size(), 3u);

  // Double replay from the returned cursor is a no-op.
  Result<uint64_t> again = ReplayWalIntoDatabase(*wal, &db, *cursor);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *cursor);
  EXPECT_EQ(db.GetTable("OBSERVATION")->size(), 3u);
}

std::string DumpRfidTables(const Database& db) {
  std::string out;
  for (const char* table :
       {"OBSERVATION", "OBJECTLOCATION", "OBJECTCONTAINMENT"}) {
    out += table;
    out += '\n';
    out += TableToCsv(*db.GetTable(table));
  }
  return out;
}

// The one-pass Open(dir, options, &db) and the two-step Open(dir) +
// ReplayWalIntoDatabase rebuild the same store from the same rotated,
// torn log, and both answer every dedup question the same way.
TEST_F(WalTest, OnePassRecoveryEqualsOpenThenReplay) {
  WalOptions small;
  small.segment_bytes = 256;  // Rotates every few records.
  struct Key {
    std::string rule;
    uint64_t seq;
    uint32_t index;
  };
  std::vector<Key> keys;          // In LSN order.
  std::vector<uint32_t> affected;  // Logged rows per key, same order.
  {
    // Every action executes against a live store first, as the
    // dispatcher does, so each record logs its real affected count.
    Database live;
    ASSERT_TRUE(live.InstallRfidSchema().ok());
    std::unique_ptr<Wal> wal = OpenOrDie(small);
    auto log = [&](WalRecordKind kind, const std::string& rule, uint64_t seq,
                   uint32_t index, const std::string& text,
                   const ParamMap& params) {
      WalRecord record;
      record.kind = kind;
      record.rule_id = rule;
      record.action_seq = seq;
      record.action_index = index;
      record.sql = text;
      record.params = params;
      if (kind == WalRecordKind::kSql) {
        Result<ExecResult> result = ExecuteSql(text, &live, params);
        ASSERT_TRUE(result.ok()) << result.status().message();
        record.affected = static_cast<uint32_t>(result->affected);
      }
      keys.push_back({rule, seq, index});
      affected.push_back(record.affected);
      ASSERT_TRUE(wal->Append(std::move(record)).ok());
    };
    for (uint64_t i = 1; i <= 12; ++i) {
      const uint64_t seq = 10 * i;  // Gaps: seq +- 1 is never logged.
      ParamMap scalars;
      scalars["r"] = ParamValue::Scalar(Value::String("dock" +
                                                      std::to_string(i % 3)));
      scalars["o"] = ParamValue::Scalar(Value::String("case" +
                                                      std::to_string(i % 4)));
      scalars["t"] = ParamValue::Scalar(Value::Time(static_cast<TimePoint>(i)));
      log(WalRecordKind::kSql, "r1", seq, 0,
          "INSERT INTO OBSERVATION VALUES (r, o, t)", scalars);
      // An UPDATE chain: each read of a case closes its open interval.
      log(WalRecordKind::kSql, "r1", seq, 1,
          "UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND "
          "tend = \"UC\"",
          scalars);
      log(WalRecordKind::kSql, "r1", seq, 2,
          "INSERT INTO OBJECTLOCATION VALUES (o, r, t, \"UC\")", scalars);
      if (i % 3 == 0) {
        log(WalRecordKind::kProcedure, "r1", seq, 3, "start shipment",
            scalars);
      }
      ParamMap bulk = scalars;
      std::vector<Value> items;
      for (uint64_t j = 0; j < i % 3 + 1; ++j) {
        items.push_back(Value::String("item" + std::to_string(i) + "_" +
                                      std::to_string(j)));
      }
      bulk["o2"] = ParamValue::Multi(std::move(items));
      log(WalRecordKind::kSql, "r10", seq + 5, 0,
          "BULK INSERT INTO OBJECTCONTAINMENT VALUES (o2, o, t, \"UC\")",
          bulk);
      if (i % 2 == 0) {
        log(WalRecordKind::kAlarm, "r10", seq + 5, 1, "send alarm", scalars);
      }
    }
    // A key logged twice (a rule whose numbering restarted): the later
    // record's rows-affected count is the one recovery credits.
    ParamMap again;
    again["o2"] = ParamValue::Multi(
        {Value::String("x"), Value::String("y"), Value::String("z")});
    again["o"] = ParamValue::Scalar(Value::String("pallet"));
    again["t"] = ParamValue::Scalar(Value::Time(99));
    log(WalRecordKind::kSql, "r10", 15, 0,
        "BULK INSERT INTO OBJECTCONTAINMENT VALUES (o2, o, t, \"UC\")", again);
    // The record the crash tears.
    ParamMap torn;
    torn["r"] = ParamValue::Scalar(Value::String("dock9"));
    torn["o"] = ParamValue::Scalar(Value::String("lost"));
    torn["t"] = ParamValue::Scalar(Value::Time(1000));
    log(WalRecordKind::kSql, "r1", 130, 0,
        "INSERT INTO OBSERVATION VALUES (r, o, t)", torn);
    ASSERT_TRUE(wal->Sync().ok());
  }
  std::vector<fs::path> files = SegmentFiles();
  ASSERT_GT(files.size(), 3u);
  fs::resize_file(files.back(), fs::file_size(files.back()) - 3);
  const fs::path two_step_dir = dir_.string() + "_two_step";
  fs::remove_all(two_step_dir);
  fs::copy(dir_, two_step_dir);

  Database one_pass_db;
  ASSERT_TRUE(one_pass_db.InstallRfidSchema().ok());
  Result<std::unique_ptr<Wal>> one_pass =
      Wal::Open(dir_.string(), small, &one_pass_db);
  ASSERT_TRUE(one_pass.ok()) << one_pass.status().message();

  Database two_step_db;
  ASSERT_TRUE(two_step_db.InstallRfidSchema().ok());
  Result<std::unique_ptr<Wal>> two_step = Wal::Open(two_step_dir.string(), small);
  ASSERT_TRUE(two_step.ok()) << two_step.status().message();
  Result<uint64_t> cursor = ReplayWalIntoDatabase(**two_step, &two_step_db);
  ASSERT_TRUE(cursor.ok()) << cursor.status().message();

  const uint64_t kept = keys.size() - 1;  // All but the torn record.
  EXPECT_EQ((*one_pass)->recovered_lsn(), kept);
  EXPECT_EQ((*one_pass)->last_lsn(), *cursor);
  EXPECT_EQ((*two_step)->last_lsn(), *cursor);
  EXPECT_EQ(DumpRfidTables(one_pass_db), DumpRfidTables(two_step_db));
  EXPECT_EQ(one_pass_db.GetTable("OBSERVATION")->size(), 12u);
  EXPECT_GT(one_pass_db.GetTable("OBJECTCONTAINMENT")->size(), 12u);

  for (const std::unique_ptr<Wal>* wal : {&*one_pass, &*two_step}) {
    const WalActionSet& set = (*wal)->recovered_actions();
    EXPECT_EQ(set.size(), kept - 1);  // One key was logged twice.
    for (size_t i = 0; i < kept; ++i) {
      const Key& key = keys[i];
      SCOPED_TRACE(key.rule + " " + std::to_string(key.seq) + " " +
                   std::to_string(key.index));
      const std::optional<uint32_t> hit =
          set.Find(key.rule, key.seq, key.index);
      ASSERT_TRUE(hit.has_value());
      if (key.rule == "r10" && key.seq == 15 && key.index == 0) {
        EXPECT_EQ(*hit, 3u);  // The later of the two records.
      } else {
        EXPECT_EQ(*hit, affected[i]);
      }
      EXPECT_FALSE(set.Find(key.rule, key.seq + 1, key.index).has_value());
      EXPECT_FALSE(set.Find(key.rule, key.seq - 1, key.index).has_value());
      EXPECT_FALSE(set.Find(key.rule, key.seq, 7).has_value());
      EXPECT_FALSE(set.Find("r2", key.seq, key.index).has_value());
    }
    // r1 and r10 never share a (seq, index): a prefix-confused key
    // would hit here.
    EXPECT_FALSE(set.Find("r1", 15, 0).has_value());
    EXPECT_FALSE(set.Find("r10", 10, 0).has_value());
    EXPECT_FALSE(set.Find("r1", 130, 0).has_value());  // Torn away.
  }
  fs::remove_all(two_step_dir);
}

TEST_F(WalTest, ProcedureAndAlarmRecordsDedupButDoNotReplay) {
  {
    std::unique_ptr<Wal> wal = OpenOrDie();
    ASSERT_TRUE(
        wal->Append(MakeRecord(1, 0,
                               "INSERT INTO OBSERVATION VALUES ('r', 'o', 5)"))
            .ok());
    WalRecord proc;
    proc.kind = WalRecordKind::kProcedure;
    proc.action_seq = 1;
    proc.action_index = 1;
    proc.rule_id = "dock rule";
    proc.sql = "start shipment";
    ASSERT_TRUE(wal->Append(std::move(proc)).ok());
    WalRecord alarm;
    alarm.kind = WalRecordKind::kAlarm;
    alarm.action_seq = 2;
    alarm.action_index = 0;
    alarm.rule_id = "dock rule";
    alarm.sql = "send alarm";
    alarm.params["tag"] = ParamValue::Scalar(Value::String("tag9"));
    ASSERT_TRUE(wal->Append(std::move(alarm)).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }

  std::unique_ptr<Wal> wal = OpenOrDie();
  EXPECT_EQ(wal->recovered_lsn(), 3u);
  // Every kind lands in the dedup map, so recovery skips re-invocation.
  EXPECT_TRUE(wal->recovered_actions().Find("dock rule", 1, 1).has_value());
  EXPECT_TRUE(wal->recovered_actions().Find("dock rule", 2, 0).has_value());
  std::vector<WalRecord> records = ReplayAll(*wal);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].kind, WalRecordKind::kSql);
  EXPECT_EQ(records[1].kind, WalRecordKind::kProcedure);
  EXPECT_EQ(records[1].sql, "start shipment");
  EXPECT_EQ(records[2].kind, WalRecordKind::kAlarm);
  EXPECT_EQ(records[2].params.at("tag").scalar.AsString(), "tag9");

  // Store replay applies only the SQL frame but moves the cursor past
  // the procedure frames, so a second replay stays a no-op.
  Database db;
  ASSERT_TRUE(db.InstallRfidSchema().ok());
  Result<uint64_t> cursor = ReplayWalIntoDatabase(*wal, &db);
  ASSERT_TRUE(cursor.ok()) << cursor.status().message();
  EXPECT_EQ(*cursor, 3u);
  EXPECT_EQ(db.GetTable("OBSERVATION")->size(), 1u);
  Result<uint64_t> again = ReplayWalIntoDatabase(*wal, &db, *cursor);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *cursor);
  EXPECT_EQ(db.GetTable("OBSERVATION")->size(), 1u);
}

TEST_F(WalTest, UnknownRecordKindIsDroppedAsDamagedTail) {
  // A CRC-valid frame whose kind byte names no known record kind is
  // undecodable: Open() treats it like any other invalid tail record.
  fs::create_directories(dir_);
  std::string payload("\x09", 1);
  payload.append(40, '\0');
  std::string frame;
  for (uint32_t v : {static_cast<uint32_t>(payload.size()),
                     common::Crc32(payload.data(), payload.size())}) {
    for (int i = 0; i < 4; ++i) frame.push_back(static_cast<char>(v >> (8 * i)));
  }
  frame += payload;
  std::ofstream(dir_ / "wal-00000000000000000001.seg", std::ios::binary)
      << frame;

  std::unique_ptr<Wal> wal = OpenOrDie();
  EXPECT_EQ(wal->recovered_lsn(), 0u);
  EXPECT_TRUE(wal->recovered_actions().empty());
}

TEST_F(WalTest, UnknownValueKindIsDroppedAsDamagedTail) {
  // A CRC-valid record whose one param has a value kind no build writes
  // is undecodable: Open() drops it as a damaged tail instead of binding
  // NULL in its place.
  {
    std::unique_ptr<Wal> wal = OpenOrDie();
    WalRecord record = MakeRecord(1, 0, "INSERT INTO t VALUES (:p)");
    record.params["p"] = ParamValue::Scalar(Value::Null());
    ASSERT_TRUE(wal->Append(std::move(record)).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  std::vector<fs::path> files = SegmentFiles();
  ASSERT_EQ(files.size(), 1u);
  std::string frame = ReadBytes(files[0]);
  // The NULL's kind byte ends the payload; re-stamp the CRC over it.
  frame.back() = '\x7f';
  const uint32_t crc = common::Crc32(frame.data() + 8, frame.size() - 8);
  for (int i = 0; i < 4; ++i) {
    frame[4 + i] = static_cast<char>(crc >> (8 * i));
  }
  WriteBytes(files[0], frame);

  std::unique_ptr<Wal> wal = OpenOrDie();
  EXPECT_EQ(wal->recovered_lsn(), 0u);
  EXPECT_TRUE(wal->recovered_actions().empty());
}

// A record whose parameter names arrive out of order or repeated decodes
// as std::map::emplace built it: sorted by name, the first value of a
// name kept.
TEST_F(WalTest, UnsortedAndRepeatedParamNamesDecodeSortedFirstWins) {
  std::string segment;
  const size_t start = common::BeginFrame(&segment);
  common::ByteWriter w(&segment);
  w.U8(static_cast<uint8_t>(WalRecordKind::kSql));
  w.U64(1);  // LSN.
  w.U64(4);  // Firing sequence.
  w.U32(0);  // Action index.
  w.U32(1);  // Rows affected.
  w.Str32("r4");
  w.Str32("INSERT INTO t VALUES (1)");
  const std::pair<std::string_view, int64_t> params[] = {
      {"t", 1}, {"o", 2}, {"t", 3}, {"a", 4}, {"o", 5}};
  w.U32(std::size(params));
  for (const auto& [name, value] : params) {
    w.Str32(name);
    w.U8(0);  // Scalar.
    w.U8(static_cast<uint8_t>(ValueKind::kInt));
    w.I64(value);
  }
  common::EndFrame(&segment, start);
  fs::create_directories(dir_);
  WriteBytes(dir_ / "wal-00000000000000000001.seg", segment);

  std::unique_ptr<Wal> wal = OpenOrDie();
  ASSERT_EQ(wal->recovered_lsn(), 1u);
  std::vector<WalRecord> records = ReplayAll(*wal);
  ASSERT_EQ(records.size(), 1u);
  std::vector<std::pair<std::string, int64_t>> decoded;
  for (const auto& [name, param] : records[0].params) {
    decoded.emplace_back(name, param.scalar.AsInt());
  }
  EXPECT_EQ(decoded, (std::vector<std::pair<std::string, int64_t>>{
                         {"a", 4}, {"o", 2}, {"t", 1}}));
}

// Append refuses a record recovery would refuse, here one whose NULLs
// decode past the bound on decoded parameters: it fails, takes no LSN
// and writes nothing, so everything in the log reads back.
TEST_F(WalTest, AppendRefusesWhatRecoveryWouldRefuse) {
  {
    std::unique_ptr<Wal> wal = OpenOrDie();
    WalRecord record = MakeRecord(1, 0);
    record.params["o"] = ParamValue::Multi(std::vector<Value>(1000));
    Result<uint64_t> refused = wal->Append(record);
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(wal->last_lsn(), 0u);
    record.params["o"] = ParamValue::Multi(
        std::vector<Value>(1000, Value::String("epc-of-a-bag")));
    Result<uint64_t> lsn = wal->Append(record);
    ASSERT_TRUE(lsn.ok()) << lsn.status().message();
    EXPECT_EQ(*lsn, 1u);
  }
  std::unique_ptr<Wal> wal = OpenOrDie();
  EXPECT_EQ(wal->recovered_lsn(), 1u);
  std::vector<WalRecord> records = ReplayAll(*wal);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].params.at("o").values.size(), 1000u);
}

// The segment format, pinned: one record of each kind, each carrying a
// param of every value kind, scalar and multi. Appending them must write
// exactly these bytes, and these bytes must recover exactly them.
TEST_F(WalTest, SegmentBytesMatchGoldenVector) {
  ParamMap params;
  params["d"] = ParamValue::Scalar(Value::Double(2.5));
  params["i"] = ParamValue::Scalar(Value::Int(-42));
  params["m"] = ParamValue::Multi({Value::Null(), Value::Int(9),
                                   Value::Double(-0.5), Value::String("x"),
                                   Value::Time(7), Value::Uc()});
  params["n"] = ParamValue::Scalar(Value::Null());
  params["s"] = ParamValue::Scalar(Value::String("pallet-42"));
  params["t"] = ParamValue::Scalar(Value::Time(123456789));
  params["u"] = ParamValue::Scalar(Value::Uc());
  std::vector<WalRecord> records(
      3, MakeRecord(7, 2, "INSERT INTO t VALUES (:i)"));
  records[1].kind = WalRecordKind::kProcedure;
  records[1].sql = "notify";
  records[2].kind = WalRecordKind::kAlarm;
  records[2].sql = "raise_alarm";
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].lsn = i + 1;
    records[i].action_seq = 7 + i;
    records[i].params = params;
  }
  constexpr std::string_view kGolden =
      "bc000000ffa4063a000100000000000000070000000000000002000000010000"
      "0002000000723719000000494e5345525420494e544f20742056414c55455320"
      "283a69290700000001000000640002000000000000044001000000690001d6ff"
      "ffffffffffff010000006d010600000000010900000000000000020000000000"
      "00e0bf03010000007804070000000000000005010000006e0000010000007300"
      "030900000070616c6c65742d34320100000074000415cd5b0700000000010000"
      "00750005a90000002482478f0102000000000000000800000000000000020000"
      "0001000000020000007237060000006e6f746966790700000001000000640002"
      "000000000000044001000000690001d6ffffffffffffff010000006d01060000"
      "000001090000000000000002000000000000e0bf030100000078040700000000"
      "00000005010000006e0000010000007300030900000070616c6c65742d343201"
      "00000074000415cd5b070000000001000000750005ae00000098fd0501020300"
      "000000000000090000000000000002000000010000000200000072370b000000"
      "72616973655f616c61726d070000000100000064000200000000000004400100"
      "0000690001d6ffffffffffffff010000006d0106000000000109000000000000"
      "0002000000000000e0bf03010000007804070000000000000005010000006e00"
      "00010000007300030900000070616c6c65742d34320100000074000415cd5b07"
      "0000000001000000750005";
  {
    std::unique_ptr<Wal> wal = OpenOrDie();
    for (const WalRecord& record : records) {
      ASSERT_TRUE(wal->Append(record).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
  }
  std::vector<fs::path> files = SegmentFiles();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(ToHex(ReadBytes(files[0])), kGolden);

  fs::remove_all(dir_);
  fs::create_directories(dir_);
  WriteBytes(dir_ / "wal-00000000000000000001.seg", FromHex(kGolden));
  std::unique_ptr<Wal> wal = OpenOrDie();
  EXPECT_EQ(wal->recovered_lsn(), 3u);
  std::vector<WalRecord> replayed = ReplayAll(*wal);
  ASSERT_EQ(replayed.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const WalRecord& want = records[i];
    const WalRecord& got = replayed[i];
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.lsn, want.lsn);
    EXPECT_EQ(got.action_seq, want.action_seq);
    EXPECT_EQ(got.action_index, want.action_index);
    EXPECT_EQ(got.affected, want.affected);
    EXPECT_EQ(got.rule_id, want.rule_id);
    EXPECT_EQ(got.sql, want.sql);
    ASSERT_EQ(got.params.size(), want.params.size());
    for (const auto& [name, param] : want.params) {
      const ParamValue& decoded = got.params.at(name);
      EXPECT_EQ(decoded.is_multi, param.is_multi) << name;
      EXPECT_EQ(decoded.scalar, param.scalar) << name;
      EXPECT_EQ(decoded.values, param.values) << name;
    }
  }
}

TEST_F(WalTest, TornFinalRecordIsTruncatedAndAppendContinues) {
  {
    std::unique_ptr<Wal> wal = OpenOrDie();
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(wal->Append(MakeRecord(seq, 0)).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
  }
  std::vector<fs::path> files = SegmentFiles();
  ASSERT_EQ(files.size(), 1u);
  // Tear the final record mid-frame, as an interrupted write() would.
  uint64_t size = fs::file_size(files[0]);
  fs::resize_file(files[0], size - 5);

  std::unique_ptr<Wal> wal = OpenOrDie();
  EXPECT_EQ(wal->recovered_lsn(), 2u);
  EXPECT_FALSE(wal->recovered_actions().Find("r3", 3, 0).has_value());

  // The torn bytes are gone; the next append takes the freed LSN.
  Result<uint64_t> lsn = wal->Append(MakeRecord(4, 0));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 3u);
  std::vector<WalRecord> records = ReplayAll(*wal);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].action_seq, 4u);
}

TEST_F(WalTest, CorruptTailOfFinalSegmentIsTruncated) {
  {
    std::unique_ptr<Wal> wal = OpenOrDie();
    for (uint64_t seq = 1; seq <= 4; ++seq) {
      ASSERT_TRUE(wal->Append(MakeRecord(seq, 0)).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
  }
  std::vector<fs::path> files = SegmentFiles();
  ASSERT_EQ(files.size(), 1u);
  uint64_t frame = fs::file_size(files[0]) / 4;
  {
    // Flip one payload byte inside the third record: it and everything
    // after it are dropped as a damaged tail.
    std::fstream f(files[0], std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(2 * frame + 12));
    f.put('\xff');
  }
  std::unique_ptr<Wal> wal = OpenOrDie();
  EXPECT_EQ(wal->recovered_lsn(), 2u);
  EXPECT_EQ(ReplayAll(*wal).size(), 2u);
}

TEST_F(WalTest, CorruptionInEarlierSegmentFailsOpen) {
  WalOptions small;
  small.segment_bytes = 64;  // Every record rotates into its own segment.
  {
    std::unique_ptr<Wal> wal = OpenOrDie(small);
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(wal->Append(MakeRecord(seq, 0)).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
  }
  std::vector<fs::path> files = SegmentFiles();
  ASSERT_GE(files.size(), 2u);
  {
    std::fstream f(files[0], std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('\xff');
  }
  Result<std::unique_ptr<Wal>> wal = Wal::Open(dir_.string(), small);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument)
      << wal.status().message();
}

// A segment that cannot be read is an I/O error, not an empty segment:
// taking it for one would make the next segment's first LSN look like
// damage, and the final segment would be truncated to nothing. A
// directory under a segment's name stands in for a failing read().
TEST_F(WalTest, UnreadableSegmentFailsOpenWithoutTruncating) {
  WalOptions small;
  small.segment_bytes = 100;
  {
    std::unique_ptr<Wal> wal = OpenOrDie(small);
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(wal->Append(MakeRecord(seq, 0)).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
  }
  std::vector<fs::path> files = SegmentFiles();
  ASSERT_EQ(files.size(), 2u);
  const uint64_t final_size = fs::file_size(files[1]);
  ASSERT_GT(final_size, 0u);
  fs::remove(files[0]);
  fs::create_directory(files[0]);

  Result<std::unique_ptr<Wal>> wal = Wal::Open(dir_.string(), small);
  EXPECT_FALSE(wal.ok());
  EXPECT_EQ(fs::file_size(files[1]), final_size);
}

TEST_F(WalTest, EmptySegmentFileIsValid) {
  fs::create_directories(dir_);
  std::ofstream(dir_ / "wal-00000000000000000001.seg").flush();
  std::unique_ptr<Wal> wal = OpenOrDie();
  EXPECT_EQ(wal->recovered_lsn(), 0u);
  Result<uint64_t> lsn = wal->Append(MakeRecord(1, 0));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 1u);
}

TEST_F(WalTest, RotationPreservesLsnOrderAcrossSegments) {
  WalOptions small;
  small.segment_bytes = 100;
  const uint64_t kRecords = 20;
  {
    std::unique_ptr<Wal> wal = OpenOrDie(small);
    for (uint64_t seq = 1; seq <= kRecords; ++seq) {
      Result<uint64_t> lsn = wal->Append(MakeRecord(seq, 0));
      ASSERT_TRUE(lsn.ok());
      EXPECT_EQ(*lsn, seq);
    }
    ASSERT_TRUE(wal->Sync().ok());
    EXPECT_EQ(wal->last_lsn(), kRecords);
  }
  ASSERT_GT(SegmentFiles().size(), 1u);

  std::unique_ptr<Wal> wal = OpenOrDie(small);
  EXPECT_EQ(wal->recovered_lsn(), kRecords);
  std::vector<WalRecord> records = ReplayAll(*wal);
  ASSERT_EQ(records.size(), kRecords);
  for (uint64_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);
    EXPECT_EQ(records[i].action_seq, i + 1);
  }
  // A replay cursor skips exactly the prefix.
  EXPECT_EQ(ReplayAll(*wal, kRecords / 2).size(), kRecords - kRecords / 2);

  // Appending after recovery lands in the final segment, LSNs sequential.
  Result<uint64_t> lsn = wal->Append(MakeRecord(kRecords + 1, 0));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, kRecords + 1);
}

// --- A bounded log: first LSN, cursor replay, trim ---------------------------

// Firing `seq` inserts one OBSERVATION row whose object and timestamp
// name it.
WalRecord InsertRecord(uint64_t seq) {
  WalRecord record;
  record.action_seq = seq;
  record.affected = 1;
  record.rule_id = "r" + std::to_string(seq);
  record.sql = "INSERT INTO OBSERVATION VALUES ('r', 'o" +
               std::to_string(seq) + "', " + std::to_string(seq) + ")";
  return record;
}

uint64_t BytesOnDisk(const std::vector<fs::path>& files) {
  uint64_t bytes = 0;
  for (const fs::path& file : files) bytes += fs::file_size(file);
  return bytes;
}

// Seals, then deletes oldest first each segment whose records all sit at
// or below the trim LSN; the log reopens at its first segment's LSN and
// an emptied log keeps the LSN cursor in one empty segment.
TEST_F(WalTest, TrimDropsCoveredSegmentsAndTheLogReopensPastThem) {
  WalOptions small;
  small.segment_bytes = 200;  // A few records per segment.
  std::unique_ptr<Wal> wal = OpenOrDie(small);
  for (uint64_t seq = 1; seq <= 20; ++seq) {
    ASSERT_TRUE(wal->Append(InsertRecord(seq)).ok());
  }
  ASSERT_TRUE(wal->Sync().ok());
  ASSERT_GT(SegmentFiles().size(), 3u);
  EXPECT_EQ(wal->first_lsn(), 1u);

  ASSERT_TRUE(wal->Trim(12).ok());
  const uint64_t first = wal->first_lsn();
  EXPECT_GT(first, 1u);
  EXPECT_LE(first, 13u);  // The segment holding 13 stays.
  EXPECT_EQ(wal->total_bytes(), BytesOnDisk(SegmentFiles()));
  std::vector<WalRecord> records = ReplayAll(*wal);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().lsn, first);
  EXPECT_EQ(records.back().lsn, 20u);
  Result<uint64_t> lsn = wal->Append(InsertRecord(21));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 21u);
  wal.reset();

  wal = OpenOrDie(small);
  EXPECT_EQ(wal->first_lsn(), first);
  EXPECT_EQ(wal->recovered_lsn(), 21u);
  // The dedup set holds what the log still holds.
  EXPECT_FALSE(wal->recovered_actions().Find("r1", 1, 0).has_value());
  EXPECT_TRUE(wal->recovered_actions().Find("r13", 13, 0).has_value());

  // Trimming everything leaves one empty segment named for LSN 22.
  ASSERT_TRUE(wal->Trim(21).ok());
  const std::vector<fs::path> files = SegmentFiles();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].filename().string(), "wal-00000000000000000022.seg");
  EXPECT_EQ(fs::file_size(files[0]), 0u);
  EXPECT_EQ(wal->first_lsn(), 22u);
  EXPECT_EQ(wal->last_lsn(), 21u);
  EXPECT_EQ(wal->total_bytes(), 0u);
  // Nothing appended since: a second trim seals and deletes nothing.
  ASSERT_TRUE(wal->Trim(21).ok());
  EXPECT_EQ(SegmentFiles(), files);
  wal.reset();

  wal = OpenOrDie(small);
  EXPECT_EQ(wal->first_lsn(), 22u);
  EXPECT_EQ(wal->recovered_lsn(), 21u);
  EXPECT_TRUE(wal->recovered_actions().empty());
  lsn = wal->Append(InsertRecord(22));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 22u);
}

// What perfbench's traced daemon run does with a copy of a tenant's
// trimmed log: Open(dir) without a store, then the cursor replay, which
// applies whatever the log holds past the cursor.
TEST_F(WalTest, TrimmedLogOpensAndReplaysWithoutAnImage) {
  {
    std::unique_ptr<Wal> wal = OpenOrDie();
    for (uint64_t seq = 1; seq <= 4; ++seq) {
      ASSERT_TRUE(wal->Append(InsertRecord(seq)).ok());
    }
    ASSERT_TRUE(wal->Trim(4).ok());
    for (uint64_t seq = 5; seq <= 6; ++seq) {
      ASSERT_TRUE(wal->Append(InsertRecord(seq)).ok());
    }
  }
  std::unique_ptr<Wal> wal = OpenOrDie();
  EXPECT_EQ(wal->first_lsn(), 5u);
  Database db;
  ASSERT_TRUE(db.InstallRfidSchema().ok());
  Result<uint64_t> cursor = ReplayWalIntoDatabase(*wal, &db);
  ASSERT_TRUE(cursor.ok()) << cursor.status().message();
  EXPECT_EQ(*cursor, 6u);
  EXPECT_EQ(TableToCsv(*db.GetTable("OBSERVATION")),
            "reader,object,ts\nr,o5,5\nr,o6,6\n");
}

// Open(dir, options, &db, after) walks the whole log into the dedup set
// but replays only the records past `after`: those an image lacks.
TEST_F(WalTest, OpenReplaysOnlyRecordsPastTheCursor) {
  {
    std::unique_ptr<Wal> wal = OpenOrDie();
    for (uint64_t seq = 1; seq <= 6; ++seq) {
      ASSERT_TRUE(wal->Append(InsertRecord(seq)).ok());
    }
  }
  Database db;
  ASSERT_TRUE(db.InstallRfidSchema().ok());
  Result<std::unique_ptr<Wal>> wal = Wal::Open(dir_.string(), {}, &db, 4);
  ASSERT_TRUE(wal.ok()) << wal.status().message();
  EXPECT_EQ((*wal)->recovered_actions().size(), 6u);
  EXPECT_EQ(TableToCsv(*db.GetTable("OBSERVATION")),
            "reader,object,ts\nr,o5,5\nr,o6,6\n");
}

// A segment must start where the one before it ended: a missing middle
// segment fails Open with both LSNs, and nothing is truncated.
TEST_F(WalTest, MissingMiddleSegmentFailsOpen) {
  WalOptions small;
  small.segment_bytes = 64;  // Every record rotates into its own segment.
  {
    std::unique_ptr<Wal> wal = OpenOrDie(small);
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(wal->Append(MakeRecord(seq, 0)).ok());
    }
  }
  std::vector<fs::path> files = SegmentFiles();
  ASSERT_EQ(files.size(), 3u);
  fs::remove(files[1]);
  const uint64_t final_size = fs::file_size(files[2]);
  Result<std::unique_ptr<Wal>> wal = Wal::Open(dir_.string(), small);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wal.status().message().find("starts at LSN 3 but the log "
                                        "continues at LSN 2"),
            std::string::npos)
      << wal.status().message();
  EXPECT_EQ(fs::file_size(files[2]), final_size);
}

TEST_F(WalTest, FirstLsnReadsTheFirstSegmentName) {
  Result<uint64_t> missing = Wal::FirstLsn(dir_.string());
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(*missing, 1u);
  {
    std::unique_ptr<Wal> wal = OpenOrDie();
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(wal->Append(MakeRecord(seq, 0)).ok());
    }
    ASSERT_TRUE(wal->Trim(3).ok());
  }
  Result<uint64_t> trimmed = Wal::FirstLsn(dir_.string());
  ASSERT_TRUE(trimmed.ok());
  EXPECT_EQ(*trimmed, 4u);
  // A file named like a segment must carry an LSN.
  WriteBytes(dir_ / "wal-x.seg", "");
  EXPECT_FALSE(Wal::FirstLsn(dir_.string()).ok());
  EXPECT_FALSE(Wal::Open(dir_.string()).ok());
}

}  // namespace
}  // namespace rfidcep::store
