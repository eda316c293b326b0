#include "store/store_image.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/byte_codec.h"
#include "store/database.h"
#include "store/sql_executor.h"
#include "tests/common/hex_util.h"

namespace rfidcep::store {
namespace {

// Every table of `db` as text precise enough to tell any two stores
// apart: name, columns and types, indexed columns, and each live row in
// slot order with each value's kind and exact payload (a double's bits).
std::string Describe(const Database& db) {
  std::string out;
  for (const Table* table : db.Tables()) {
    out += table->name() + "(";
    for (const Column& column : table->schema().columns()) {
      out += column.name + ":" + std::string(ColumnTypeName(column.type)) + " ";
    }
    out += ") indexed";
    for (size_t column : table->IndexedColumns()) {
      out += " " + std::to_string(column);
    }
    out += "\n";
    table->Scan([&](const Row& row) {
      for (const Value& v : row) {
        out += std::string(ValueKindName(v.kind())) + "=";
        if (v.kind() == ValueKind::kDouble) {
          out += std::to_string(std::bit_cast<uint64_t>(v.AsDouble()));
        } else if (!v.is_null() && !v.is_uc()) {
          out += v.ToString();
        }
        out += " ";
      }
      out += "\n";
    });
  }
  return out;
}

Result<StoreImage> RoundTrip(const Database& db, uint64_t lsn) {
  Result<std::string> bytes = EncodeStoreImage(db, lsn);
  if (!bytes.ok()) return bytes.status();
  return DecodeStoreImage(*bytes);
}

// A store with every value kind in typed and ANY columns, a table and an
// index made by SQL DDL, and tombstones from deletes.
void BuildMixedStore(Database* db) {
  ASSERT_TRUE(db->InstallRfidSchema().ok());
  ASSERT_TRUE(ExecuteSql("CREATE TABLE Readings (n INT, x DOUBLE, s STRING, "
                         "t TIME, a ANY, b ANY)",
                         db, {})
                  .ok());
  ASSERT_TRUE(ExecuteSql("CREATE INDEX ON Readings (s)", db, {}).ok());
  Table* readings = db->GetTable("readings");
  const std::vector<Row> rows = {
      {Value::Int(-7), Value::Double(-0.0), Value::String("dock"),
       Value::Time(1500), Value::Double(-0.0), Value::Uc()},
      {Value::Null(), Value::Null(), Value::Null(), Value::Null(),
       Value::Null(), Value::Null()},
      {Value::Int(1), Value::Double(2.5), Value::String("gone"),
       Value::Time(1), Value::Int(3), Value::String("x")},
      {Value::Int(INT64_MIN), Value::Double(1e300), Value::String(""),
       Value::Uc(), Value::Time(-5), Value::String("UC")},
      {Value::Int(2), Value::Double(std::nan("")), Value::String("dock"),
       Value::Time(9), Value::String(std::string("with\0nul", 8)),
       Value::Int(0)},
  };
  for (const Row& row : rows) ASSERT_TRUE(readings->Insert(row).ok());
  const Value gone = Value::String("gone");
  EXPECT_EQ(readings->DeleteWhere(nullptr, {2, &gone}), 1u);
  ASSERT_TRUE(ExecuteSql("INSERT INTO OBJECTLOCATION VALUES "
                         "('epc1', 'dock', 10, 'UC')",
                         db, {})
                  .ok());
  ASSERT_TRUE(ExecuteSql("INSERT INTO OBJECTLOCATION VALUES "
                         "('epc2', 'gate', 11, 'UC')",
                         db, {})
                  .ok());
  ASSERT_TRUE(ExecuteSql("DELETE FROM OBJECTLOCATION WHERE object_epc = "
                         "'epc1'",
                         db, {})
                  .ok());
}

TEST(StoreImageTest, RoundTripsEveryValueKindWithoutTombstones) {
  Database db;
  BuildMixedStore(&db);
  Result<std::string> bytes = EncodeStoreImage(db, 42);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  Result<StoreImage> image = DecodeStoreImage(*bytes);
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_EQ(image->lsn, 42u);

  Database loaded;
  loaded.ReplaceTables(std::move(image->tables));
  EXPECT_EQ(Describe(loaded), Describe(db));
  const Table* readings = loaded.GetTable("READINGS");
  ASSERT_NE(readings, nullptr);
  // The deleted row left a tombstone behind in the source, not in the
  // image: four live rows, in slot order.
  EXPECT_EQ(readings->size(), 4u);
  EXPECT_EQ(db.GetTable("readings")->size(), 4u);
  std::vector<Row> rows;
  readings->Scan([&](const Row& row) { rows.push_back(row); });
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][0].AsInt(), -7);
  EXPECT_EQ(rows[2][0].AsInt(), INT64_MIN);
  EXPECT_EQ(rows[3][0].AsInt(), 2);
  // -0.0 keeps its sign bit in a DOUBLE and an ANY column; NaN stays NaN.
  EXPECT_TRUE(std::signbit(rows[0][1].AsDouble()));
  EXPECT_TRUE(std::signbit(rows[0][4].AsDouble()));
  EXPECT_TRUE(std::isnan(rows[3][1].AsDouble()));
  EXPECT_TRUE(rows[0][5].is_uc());
  EXPECT_TRUE(rows[2][3].is_uc());
  EXPECT_EQ(rows[3][4].AsString(), std::string("with\0nul", 8));
  // The DDL index came back and serves keyed visits.
  ASSERT_EQ(readings->IndexedColumns(), std::vector<size_t>{2});
  EXPECT_EQ(readings->Lookup(2, Value::String("dock")).size(), 2u);
  EXPECT_EQ(loaded.GetTable("OBJECTLOCATION")->Lookup(0, Value::String("epc2"))
                .size(),
            1u);
  // Byte-exact: the loaded store encodes to the same image.
  Result<std::string> again = EncodeStoreImage(loaded, 42);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ToHex(*again), ToHex(*bytes));
}

TEST(StoreImageTest, ManyRowsSpanRowFrames) {
  Database db;
  ASSERT_TRUE(
      db.CreateTable("wide", Schema({{"k", ColumnType::kInt},
                                     {"v", ColumnType::kString}}))
          .ok());
  Table* wide = db.GetTable("wide");
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(
        wide->Insert({Value::Int(i), Value::String(std::string(40, 'v'))})
            .ok());
  }
  Result<StoreImage> image = RoundTrip(db, 1);
  ASSERT_TRUE(image.ok()) << image.status();
  Database loaded;
  loaded.ReplaceTables(std::move(image->tables));
  EXPECT_EQ(Describe(loaded), Describe(db));
}

TEST(StoreImageTest, EmptyStoreRoundTrips) {
  Database db;
  Result<StoreImage> image = RoundTrip(db, 0);
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_EQ(image->lsn, 0u);
  EXPECT_TRUE(image->tables.empty());
}

// The layout of docs/recovery.md "The store image", pinned: a header
// frame, then per table a table frame and its row frames. The CRCs are
// zlib's crc32 of each payload.
TEST(StoreImageTest, ImageBytesMatchGoldenVector) {
  Database db;
  ASSERT_TRUE(db.CreateTable("T", Schema({{"a", ColumnType::kInt},
                                          {"b", ColumnType::kAny}}))
                  .ok());
  ASSERT_TRUE(db.GetTable("t")->CreateIndex("a").ok());
  ASSERT_TRUE(
      db.GetTable("t")->Insert({Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(db.GetTable("t")->Insert({Value::Int(2), Value::Null()}).ok());
  Result<std::string> bytes = EncodeStoreImage(db, 7);
  ASSERT_TRUE(bytes.ok());
  const std::string golden =
      // Header frame: length 24, CRC, "RCEDSIMG", version 1, LSN 7, 1 table.
      "18000000" "a4b0df88"
      "5243454453494d47" "01000000" "0700000000000000" "01000000"
      // Table frame: "T", 2 columns a:int b:any, index on column 0, 2 rows.
      "25000000" "8400b895"
      "0100000054" "02000000" "0100000061" "01" "0100000062" "00"
      "01000000" "00000000" "0200000000000000"
      // Row frame: 2 rows: (int 1, string "x"), (int 2, null).
      "1d000000" "531d13fc"
      "02000000" "010100000000000000" "030100000078" "010200000000000000"
      "00";
  EXPECT_EQ(ToHex(*bytes), golden);
  Result<StoreImage> image = DecodeStoreImage(FromHex(golden));
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_EQ(image->lsn, 7u);
}

// --- Forged images -----------------------------------------------------------

std::string Frame(const std::function<void(common::ByteWriter&)>& body) {
  std::string out;
  const size_t start = common::BeginFrame(&out);
  common::ByteWriter w(&out);
  body(w);
  common::EndFrame(&out, start);
  return out;
}

std::string HeaderFrame(uint32_t tables, uint64_t lsn = 5) {
  return Frame([&](common::ByteWriter& w) {
    w.Bytes(kStoreImageMagic);
    w.U32(kStoreImageVersion);
    w.U64(lsn);
    w.U32(tables);
  });
}

// A table of two ANY columns, a and b, without indexes.
std::string TableFrame(std::string_view name, uint64_t rows) {
  return Frame([&](common::ByteWriter& w) {
    w.Str32(name);
    w.U32(2);
    w.Str32("a");
    w.U8(static_cast<uint8_t>(ColumnType::kAny));
    w.Str32("b");
    w.U8(static_cast<uint8_t>(ColumnType::kAny));
    w.U32(0);
    w.U64(rows);
  });
}

std::string RowFrame(uint32_t count, const std::vector<Value>& values) {
  return Frame([&](common::ByteWriter& w) {
    w.U32(count);
    for (const Value& v : values) PutValue(w, v);
  });
}

TEST(StoreImageTest, ForgedImagesAreRefused) {
  const std::vector<Value> row = {Value::Int(1), Value::String("x")};
  const std::string valid =
      HeaderFrame(1) + TableFrame("t", 1) + RowFrame(1, row);
  ASSERT_TRUE(DecodeStoreImage(valid).ok());

  std::string bad_crc = valid;
  bad_crc[bad_crc.size() - 1] ^= 0x01;  // The last row value's byte.
  const struct {
    const char* name;
    std::string bytes;
  } forged[] = {
      {"bad CRC", bad_crc},
      {"row count past its frame",
       HeaderFrame(1) + TableFrame("t", 1) + RowFrame(1000, row)},
      {"table row count past the image",
       HeaderFrame(1) + TableFrame("t", 1u << 30) + RowFrame(1, row)},
      {"table count past the image",
       HeaderFrame(1000) + TableFrame("t", 1) + RowFrame(1, row)},
      {"unknown value kind",
       HeaderFrame(1) + TableFrame("t", 1) + Frame([](common::ByteWriter& w) {
         w.U32(1);
         PutValue(w, Value::Int(1));
         w.U8(9);  // Past ValueKind::kUc.
         w.U32(0);
       })},
      {"unknown column type",
       HeaderFrame(1) + Frame([](common::ByteWriter& w) {
         w.Str32("t");
         w.U32(1);
         w.Str32("a");
         w.U8(9);  // Past ColumnType::kTime.
         w.U32(0);
         w.U64(0);
       })},
      {"a table twice",
       HeaderFrame(2) + TableFrame("t", 1) + RowFrame(1, row) +
           TableFrame("T", 1) + RowFrame(1, row)},
      {"a row of the wrong width",
       HeaderFrame(1) + TableFrame("t", 1) +
           RowFrame(1, {Value::Int(1), Value::String("x"), Value::Int(2)})},
      {"a short row",
       HeaderFrame(1) + TableFrame("t", 1) + RowFrame(1, {Value::Int(1)})},
      {"an index on a column the table lacks",
       HeaderFrame(1) + Frame([](common::ByteWriter& w) {
         w.Str32("t");
         w.U32(1);
         w.Str32("a");
         w.U8(static_cast<uint8_t>(ColumnType::kAny));
         w.U32(1);
         w.U32(1);
         w.U64(0);
       })},
      {"a value its column refuses",
       HeaderFrame(1) + Frame([](common::ByteWriter& w) {
         w.Str32("t");
         w.U32(1);
         w.Str32("a");
         w.U8(static_cast<uint8_t>(ColumnType::kInt));
         w.U32(0);
         w.U64(1);
       }) + RowFrame(1, {Value::String("one")})},
      {"a table with no column",
       HeaderFrame(1) + Frame([](common::ByteWriter& w) {
         w.Str32("t");
         w.U32(0);
         w.U32(0);
         w.U64(0);
       })},
      {"rows missing", HeaderFrame(1) + TableFrame("t", 2) + RowFrame(1, row)},
      {"trailing bytes", valid + RowFrame(1, row)},
  };
  for (const auto& [name, bytes] : forged) {
    Result<StoreImage> image = DecodeStoreImage(bytes);
    ASSERT_FALSE(image.ok()) << name;
    EXPECT_EQ(image.status().code(), StatusCode::kInvalidArgument)
        << name << ": " << image.status().message();
  }
  // Every proper prefix of a valid image is refused.
  for (size_t n = 0; n < valid.size(); ++n) {
    EXPECT_FALSE(DecodeStoreImage(valid.substr(0, n)).ok()) << n;
  }
}

TEST(StoreImageTest, BadMagicAndUnknownVersionAreFormatRefusals) {
  const std::string not_an_image = Frame([](common::ByteWriter& w) {
    w.Bytes("RCEDSNAP");
    w.U32(kStoreImageVersion);
    w.U64(1);
    w.U32(0);
  });
  const std::string future = Frame([](common::ByteWriter& w) {
    w.Bytes(kStoreImageMagic);
    w.U32(kStoreImageVersion + 1);
    w.U64(1);
    w.U32(0);
  });
  for (const std::string& bytes : {not_an_image, future}) {
    Result<StoreImage> image = DecodeStoreImage(bytes);
    ASSERT_FALSE(image.ok());
    EXPECT_EQ(image.status().code(), StatusCode::kFailedPrecondition)
        << image.status().message();
  }
}

TEST(DatabaseTest, ReplaceTablesSwapsTheWholeStore) {
  Database db;
  ASSERT_TRUE(db.InstallRfidSchema().ok());
  const uint64_t version = db.schema_version();
  std::vector<std::unique_ptr<Table>> tables;
  tables.push_back(
      std::make_unique<Table>("Only", Schema({{"a", ColumnType::kAny}})));
  db.ReplaceTables(std::move(tables));
  EXPECT_NE(db.schema_version(), version);
  EXPECT_FALSE(db.HasTable("OBSERVATION"));
  ASSERT_TRUE(db.HasTable("only"));
  EXPECT_EQ(db.Tables().size(), 1u);
}

TEST(DatabaseTest, TableWithoutColumnsIsRefused) {
  Database db;
  EXPECT_EQ(db.CreateTable("empty", Schema()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(db.HasTable("empty"));
}

}  // namespace
}  // namespace rfidcep::store
