// Golden digests of the action path: perfbench's baggage_daemon rules
// run with the RFID store and a WAL over a seeded baggage stream. FNV-1a
// digests pin the WAL segment bytes and every table's rows in slot
// order, so a change to SQL execution, the store's indexes, parameter
// binding or WAL encoding that alters one effect or one byte fails here
// even when every count still agrees. Replaying the log into a fresh
// store must rebuild the same rows. Beside it, CRC-32 check vectors pin
// the frame checksum the WAL and the wire protocol share.

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_codec.h"
#include "engine/engine.h"
#include "store/database.h"
#include "store/wal.h"
#include "tests/engine/test_util.h"

namespace rfidcep::engine {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  return h;
}

uint64_t DigestValue(uint64_t h, const store::Value& v) {
  h = Fnv1a(h, static_cast<uint64_t>(v.kind()));
  switch (v.kind()) {
    case store::ValueKind::kNull:
    case store::ValueKind::kUc:
      return h;
    case store::ValueKind::kInt:
      return Fnv1a(h, static_cast<uint64_t>(v.AsInt()));
    case store::ValueKind::kTime:
      return Fnv1a(h, static_cast<uint64_t>(v.AsTime()));
    case store::ValueKind::kDouble:
      return Fnv1a(h, std::bit_cast<uint64_t>(v.AsDouble()));
    case store::ValueKind::kString:
      return Fnv1a(Fnv1a(h, v.AsString().size()), v.AsString());
  }
  return h;
}

struct StoreDigest {
  size_t rows = 0;
  uint64_t digest = kFnvOffset;
};

// Every table of the RFID schema, each row in slot order.
StoreDigest DigestStore(const store::Database& db) {
  StoreDigest out;
  for (const char* name :
       {"OBSERVATION", "OBJECTLOCATION", "OBJECTCONTAINMENT"}) {
    out.digest = Fnv1a(out.digest, std::string_view(name));
    db.GetTable(name)->Scan([&out](const store::Row& row) {
      ++out.rows;
      for (const store::Value& v : row) out.digest = DigestValue(out.digest, v);
    });
  }
  return out;
}

struct WalDigest {
  size_t bytes = 0;
  uint64_t digest = kFnvOffset;
};

// Every segment's bytes, in segment (LSN) order.
WalDigest DigestWal(const fs::path& dir) {
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    segments.push_back(entry.path());
  }
  std::sort(segments.begin(), segments.end());
  WalDigest out;
  for (const fs::path& segment : segments) {
    const std::string bytes = testing::ReadFile(segment.string());
    out.bytes += bytes.size();
    out.digest = Fnv1a(out.digest, bytes);
  }
  return out;
}

TEST(ActionGoldenTest, BaggageWalBytesAndStoreRows) {
  const fs::path dir = fs::path(::testing::TempDir()) / "action_golden_wal";
  fs::remove_all(dir);
  const std::vector<events::Observation> stream =
      testing::BaggageStream(/*seed=*/7, 20000);

  store::Database db;
  ASSERT_TRUE(db.InstallRfidSchema().ok());
  EngineStats stats;
  {
    Result<std::unique_ptr<store::Wal>> wal = store::Wal::Open(dir.string());
    ASSERT_TRUE(wal.ok()) << wal.status().message();
    RcedaEngine engine(&db, events::Environment{});
    ASSERT_TRUE(engine.AddRulesFromText(testing::kBaggageRules).ok());
    ASSERT_TRUE(engine.AttachWal(wal->get()).ok());
    ASSERT_TRUE(engine.Compile().ok());
    constexpr size_t kFrameObs = 64;  // perfbench's frame size.
    for (size_t begin = 0; begin < stream.size(); begin += kFrameObs) {
      const size_t end = std::min(begin + kFrameObs, stream.size());
      ASSERT_TRUE(engine
                      .ProcessAll(std::vector<events::Observation>(
                          stream.begin() + static_cast<long>(begin),
                          stream.begin() + static_cast<long>(end)))
                      .ok());
    }
    ASSERT_TRUE(engine.Flush().ok());
    stats = engine.stats();
  }  // Closing the WAL writes out its buffer.

  EXPECT_EQ(stats.sql_actions_executed, 12406u);
  EXPECT_EQ(stats.rows_written, 10685u);
  EXPECT_EQ(stats.action_errors, 0u);
  const WalDigest wal = DigestWal(dir);
  EXPECT_EQ(wal.bytes, 2019801u);
  EXPECT_EQ(wal.digest, 0xde41b25e23966e5aull);
  const StoreDigest live = DigestStore(db);
  EXPECT_EQ(live.rows, 10539u);
  EXPECT_EQ(live.digest, 0x774fcdd30d2e0565ull);

  // Recovery runs the same statements through the same store.
  store::Database replayed;
  ASSERT_TRUE(replayed.InstallRfidSchema().ok());
  Result<std::unique_ptr<store::Wal>> reopened =
      store::Wal::Open(dir.string(), {}, &replayed);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  const StoreDigest recovered = DigestStore(replayed);
  EXPECT_EQ(recovered.rows, live.rows);
  EXPECT_EQ(recovered.digest, live.digest);
  reopened->reset();
  fs::remove_all(dir);
}

// --- CRC-32 -----------------------------------------------------------------

// The checksum one bit at a time, straight from the polynomial.
uint32_t BitwiseCrc32(const char* data, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= static_cast<uint8_t>(data[i]);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(common::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(common::Crc32("", 0), 0u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  std::string bytes(300 + 8, '\0');
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (char& c : bytes) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<char>(state >> 56);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 300; ++length) {
      ASSERT_EQ(common::Crc32(bytes.data() + offset, length),
                BitwiseCrc32(bytes.data() + offset, length))
          << "offset " << offset << " length " << length;
    }
  }
}

}  // namespace
}  // namespace rfidcep::engine
