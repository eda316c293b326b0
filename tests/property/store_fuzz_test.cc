// Randomized operation sequences against the data store, checking the
// invariants that matter to rule actions: size accounting, index/scan
// agreement, compaction transparency, and CSV round-trip fidelity.

#include <functional>
#include <map>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "store/csv.h"
#include "store/database.h"
#include "store/sql_executor.h"

namespace rfidcep::store {
namespace {

class StoreFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreFuzz, RandomOpsKeepIndexAndScanInAgreement) {
  Prng prng(GetParam());
  Database db;
  ASSERT_TRUE(db.InstallRfidSchema().ok());
  Table* table = db.GetTable("OBJECTLOCATION");

  auto random_object = [&] {
    return "obj" + std::to_string(prng.UniformInt(0, 19));
  };

  size_t model_size = 0;
  for (int op = 0; op < 400; ++op) {
    int dice = static_cast<int>(prng.UniformInt(0, 9));
    std::string object = random_object();
    if (dice < 6) {  // Insert.
      ASSERT_TRUE(table
                      ->Insert({Value::String(object), Value::String("loc"),
                                Value::Time(op), Value::Uc()})
                      .ok());
      ++model_size;
    } else if (dice < 8) {  // Update all rows of one object.
      const Value key = Value::String(object);
      Result<size_t> updated = table->UpdateWhere(
          nullptr, [op](Row* row) { (*row)[3] = Value::Time(op); },
          {0, &key});
      ASSERT_TRUE(updated.ok());
    } else {  // Delete all rows of one object.
      const Value key = Value::String(object);
      size_t deleted = table->DeleteWhere(nullptr, {0, &key});
      ASSERT_LE(deleted, model_size);
      model_size -= deleted;
    }
    ASSERT_EQ(table->size(), model_size) << "op " << op;

    // Periodically: index lookups must agree with full scans.
    if (op % 25 == 0) {
      for (int probe = 0; probe < 5; ++probe) {
        Value key = Value::String(random_object());
        std::vector<Row> indexed = table->Lookup(0, key);
        std::vector<Row> scanned = table->SelectWhere(
            [&key](const Row& row) { return row[0].EqualsSql(key); });
        ASSERT_EQ(indexed.size(), scanned.size()) << "op " << op;
      }
    }
  }

  // CSV round-trip preserves the final state exactly.
  std::string csv = TableToCsv(*table);
  Database db2;
  ASSERT_TRUE(db2.InstallRfidSchema().ok());
  Table* table2 = db2.GetTable("OBJECTLOCATION");
  ASSERT_TRUE(LoadTableFromCsv(csv, table2).ok());
  EXPECT_EQ(TableToCsv(*table2), csv);
  EXPECT_EQ(table2->size(), table->size());
}

TEST_P(StoreFuzz, SqlLayerMatchesDirectTableOps) {
  // Drive the same mutations through SQL with parameters and through the
  // table API; final states must agree.
  Prng prng(GetParam() * 31);
  Database via_sql;
  Database direct;
  ASSERT_TRUE(via_sql.InstallRfidSchema().ok());
  ASSERT_TRUE(direct.InstallRfidSchema().ok());
  Table* direct_table = direct.GetTable("OBJECTLOCATION");

  for (int op = 0; op < 200; ++op) {
    std::string object = "o" + std::to_string(prng.UniformInt(0, 9));
    int dice = static_cast<int>(prng.UniformInt(0, 9));
    if (dice < 6) {
      ParamMap params;
      params.emplace("o", ParamValue::Scalar(Value::String(object)));
      params.emplace("t", ParamValue::Scalar(Value::Time(op)));
      ASSERT_TRUE(
          ExecuteSql("INSERT INTO OBJECTLOCATION VALUES (o, 'x', t, \"UC\")",
                     &via_sql, params)
              .ok());
      ASSERT_TRUE(direct_table
                      ->Insert({Value::String(object), Value::String("x"),
                                Value::Time(op), Value::Uc()})
                      .ok());
    } else if (dice < 8) {
      ParamMap params;
      params.emplace("o", ParamValue::Scalar(Value::String(object)));
      params.emplace("t", ParamValue::Scalar(Value::Time(op)));
      ASSERT_TRUE(ExecuteSql("UPDATE OBJECTLOCATION SET tend = t WHERE "
                             "object_epc = o AND tend = \"UC\"",
                             &via_sql, params)
                      .ok());
      const Value key = Value::String(object);
      Result<size_t> updated = direct_table->UpdateWhere(
          [](const Row& row) { return row[3].is_uc(); },
          [op](Row* row) { (*row)[3] = Value::Time(op); }, {0, &key});
      ASSERT_TRUE(updated.ok());
    } else {
      ParamMap params;
      params.emplace("o", ParamValue::Scalar(Value::String(object)));
      ASSERT_TRUE(ExecuteSql(
                      "DELETE FROM OBJECTLOCATION WHERE object_epc = o",
                      &via_sql, params)
                      .ok());
      const Value key = Value::String(object);
      direct_table->DeleteWhere(nullptr, {0, &key});
    }
  }
  EXPECT_EQ(TableToCsv(*via_sql.GetTable("OBJECTLOCATION")),
            TableToCsv(*direct_table));
}

// The keyed path against scans, row for row and in order: one table with
// a hash index on an ANY column and one without, driven through the same
// operations. The unindexed table's keyed calls scan; the indexed one's
// walk its key's chain in the shared common::ChainTable. Keys mix the kinds EqualsSql equates (Int, Double
// and Time of one value, "UC" and UC, -0.0 and 0) with NULL and strings;
// updates move rows between chains and a mass delete forces compaction.
TEST_P(StoreFuzz, KeyedPathMatchesScansInOrder) {
  Prng prng(GetParam() * 131 + 7);
  const Schema schema({{"k", ColumnType::kAny}, {"v", ColumnType::kInt}});
  Table indexed("indexed", schema);
  Table scanned("scanned", schema);
  ASSERT_TRUE(indexed.CreateIndex("k").ok());
  ASSERT_FALSE(scanned.HasIndex(0));

  auto random_key = [&] {
    const int64_t n = prng.UniformInt(0, 5);
    switch (prng.UniformInt(0, 7)) {
      case 0:
        return Value::Int(n);
      case 1:
        return Value::Double(n == 0 ? -0.0 : static_cast<double>(n));
      case 2:
        return Value::Time(n);
      case 3:
        return Value::String("UC");
      case 4:
        return Value::Uc();
      case 5:
        return Value::Null();
      default:
        return Value::String("s" + std::to_string(n));
    }
  };
  const std::function<bool(const Row&)> odd_v = [](const Row& row) {
    return row[1].AsInt() % 2 != 0;
  };
  int64_t stamp = 0;
  // Stamps rows in visiting order, so an out-of-order walk shows up in
  // the contents, and moves each to a new key, so it changes chain.
  auto mutate_to = [&stamp](Value key) {
    return [&stamp, key](Row* row) {
      (*row)[0] = key;
      (*row)[1] = Value::Int(++stamp);
    };
  };
  auto expect_same = [&](const std::vector<Row>& a, const std::vector<Row>& b,
                         int op) {
    ASSERT_EQ(a.size(), b.size()) << "op " << op;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "op " << op << " row " << i;
    }
  };

  for (int op = 0; op < 600; ++op) {
    const Value key = random_key();
    const int dice = static_cast<int>(prng.UniformInt(0, 9));
    if (op == 300) {  // Mass delete: most slots die, the table compacts.
      auto most = [](const Row& row) { return row[1].AsInt() % 8 != 0; };
      ASSERT_EQ(indexed.DeleteWhere(most), scanned.DeleteWhere(most));
    } else if (dice < 5) {
      const Row row{key, Value::Int(op)};
      ASSERT_TRUE(indexed.Insert(row).ok());
      ASSERT_TRUE(scanned.Insert(row).ok());
    } else if (dice < 7) {
      const Value to = random_key();
      const int64_t before = stamp;
      Result<size_t> a = indexed.UpdateWhere(nullptr, mutate_to(to), {0, &key});
      const int64_t after = stamp;
      stamp = before;
      Result<size_t> b = scanned.UpdateWhere(nullptr, mutate_to(to), {0, &key});
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(*a, *b) << "op " << op;
      ASSERT_EQ(stamp, after);
    } else if (dice < 9) {
      const std::function<bool(const Row&)> residual =
          prng.UniformInt(0, 1) == 0 ? odd_v : nullptr;
      ASSERT_EQ(indexed.DeleteWhere(residual, {0, &key}),
                scanned.DeleteWhere(residual, {0, &key}))
          << "op " << op;
    }
    ASSERT_EQ(indexed.size(), scanned.size()) << "op " << op;
    expect_same(indexed.SelectWhere(nullptr), scanned.SelectWhere(nullptr), op);
    for (int probe = 0; probe < 3; ++probe) {
      const Value k = random_key();
      expect_same(indexed.Lookup(0, k), scanned.Lookup(0, k), op);
      expect_same(indexed.SelectWhere(odd_v, {0, &k}),
                  scanned.SelectWhere(odd_v, {0, &k}), op);
      std::vector<Row> by_scan = scanned.SelectWhere(
          [&k](const Row& row) { return row[0].EqualsSql(k); });
      expect_same(indexed.Lookup(0, k), by_scan, op);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreFuzz,
                         ::testing::Values(1u, 7u, 42u, 99u, 1234u, 5309u));

}  // namespace
}  // namespace rfidcep::store
