// Catalog + statistics tests: NCARD/TCARD/P/ICARD/NINDX semantics from §4,
// clustering measurement, and index scans through catalog-created indexes.
#include "catalog/catalog.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace systemr {
namespace {

// Reads an RSI scan to the end, expecting no storage error.
std::vector<Row> ReadAll(RsiScan* scan) {
  std::vector<Row> rows;
  Status st = ScanAll(scan, [&rows](Row& row, Tid) {
    rows.push_back(std::move(row));
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return rows;
}

Schema EmpSchema() {
  return Schema({{"EMPNO", ValueType::kInt64},
                 {"NAME", ValueType::kString},
                 {"DNO", ValueType::kInt64},
                 {"JOB", ValueType::kInt64},
                 {"SAL", ValueType::kInt64}});
}

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest() : rss_(256), catalog_(&rss_) {}

  void LoadEmp(int n, int dno_domain, bool sorted_by_dno) {
    ASSERT_TRUE(catalog_.CreateTable("EMP", EmpSchema()).ok());
    Rng rng(42);
    std::vector<Row> rows;
    for (int i = 0; i < n; ++i) {
      rows.push_back({Value::Int(i), Value::Str("E" + std::to_string(i)),
                      Value::Int(rng.Uniform(0, dno_domain - 1)),
                      Value::Int(rng.Uniform(0, 9)),
                      Value::Int(rng.Uniform(10000, 50000))});
    }
    if (sorted_by_dno) {
      std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
        return a[2].AsInt() < b[2].AsInt();
      });
    }
    for (const Row& r : rows) {
      ASSERT_TRUE(catalog_.Insert("EMP", r).ok());
    }
  }

  Rss rss_;
  Catalog catalog_;
};

TEST_F(CatalogTest, CreateTableAndLookup) {
  ASSERT_TRUE(catalog_.CreateTable("EMP", EmpSchema()).ok());
  EXPECT_NE(catalog_.FindTable("EMP"), nullptr);
  EXPECT_EQ(catalog_.FindTable("NOPE"), nullptr);
  EXPECT_FALSE(catalog_.CreateTable("EMP", EmpSchema()).ok())
      << "duplicate table name must fail";
}

TEST_F(CatalogTest, InsertTypeChecks) {
  ASSERT_TRUE(catalog_.CreateTable("EMP", EmpSchema()).ok());
  Row bad_arity = {Value::Int(1)};
  EXPECT_FALSE(catalog_.Insert("EMP", bad_arity).ok());
  Row bad_type = {Value::Str("x"), Value::Str("n"), Value::Int(1),
                  Value::Int(1), Value::Int(1)};
  EXPECT_FALSE(catalog_.Insert("EMP", bad_type).ok());
}

TEST_F(CatalogTest, UpdateStatisticsComputesNcardTcardP) {
  LoadEmp(1200, 10, false);
  ASSERT_TRUE(catalog_.UpdateStatistics("EMP").ok());
  const TableInfo* t = catalog_.FindTable("EMP");
  EXPECT_EQ(t->ncard, 1200u);
  EXPECT_GT(t->tcard, 1u);
  EXPECT_EQ(t->tcard, rss_.heap(t->id)->segment()->num_pages());
  EXPECT_DOUBLE_EQ(t->p, 1.0) << "EMP is alone in its segment";
  EXPECT_TRUE(t->has_stats);
}

TEST_F(CatalogTest, SharedSegmentGivesFractionalP) {
  ASSERT_TRUE(catalog_.CreateTable("A", EmpSchema()).ok());
  SegmentId seg = catalog_.FindTable("A")->segment;
  ASSERT_TRUE(catalog_.CreateTable("B", EmpSchema(), seg).ok());
  Rng rng(1);
  for (int i = 0; i < 400; ++i) {
    Row r = {Value::Int(i), Value::Str("n"), Value::Int(rng.Uniform(0, 9)),
             Value::Int(0), Value::Int(0)};
    ASSERT_TRUE(catalog_.Insert(i % 2 == 0 ? "A" : "B", r).ok());
  }
  ASSERT_TRUE(catalog_.UpdateStatistics("A").ok());
  const TableInfo* a = catalog_.FindTable("A");
  // Interleaved inserts: nearly every page holds tuples of both relations.
  EXPECT_GT(a->p, 0.9);
  EXPECT_EQ(a->ncard, 200u);
}

TEST_F(CatalogTest, IndexCreationInitializesStatistics) {
  LoadEmp(1000, 10, false);
  auto idx = catalog_.CreateIndex("EMP_DNO", "EMP", {"DNO"}, false, false);
  ASSERT_TRUE(idx.ok());
  const IndexInfo* info = *idx;
  EXPECT_EQ(info->icard_leading, 10u) << "ICARD of DNO";
  EXPECT_GT(info->nindx, 0u);
  EXPECT_EQ(info->low_key.AsInt(), 0);
  EXPECT_EQ(info->high_key.AsInt(), 9);
  // Table stats are initialized too (§4: index creation initializes stats).
  EXPECT_TRUE(catalog_.FindTable("EMP")->has_stats);
}

TEST_F(CatalogTest, ClusteringMeasuredFromPhysicalOrder) {
  LoadEmp(3000, 20, /*sorted_by_dno=*/true);
  auto idx =
      catalog_.CreateIndex("EMP_DNO", "EMP", {"DNO"}, false, /*clustered=*/true);
  ASSERT_TRUE(idx.ok());
  EXPECT_TRUE((*idx)->clustered);
  EXPECT_GT((*idx)->cluster_ratio, 0.95);
}

TEST_F(CatalogTest, NonClusteredIndexDetected) {
  LoadEmp(3000, 1000, /*sorted_by_dno=*/false);
  auto idx = catalog_.CreateIndex("EMP_DNO", "EMP", {"DNO"}, false,
                                  /*clustered=*/false);
  ASSERT_TRUE(idx.ok());
  EXPECT_FALSE((*idx)->clustered);
  EXPECT_LT((*idx)->cluster_ratio, 0.5);
}

TEST_F(CatalogTest, CompositeIndexKey) {
  LoadEmp(500, 10, false);
  auto idx =
      catalog_.CreateIndex("EMP_DNO_JOB", "EMP", {"DNO", "JOB"}, false, false);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ((*idx)->key_columns, (std::vector<size_t>{2, 3}));
  EXPECT_EQ((*idx)->icard_leading, 10u);
  EXPECT_GT((*idx)->icard, 10u) << "full key is finer than leading column";
  EXPECT_LE((*idx)->icard, 100u);
}

TEST_F(CatalogTest, UniqueIndexOnPrimaryKey) {
  LoadEmp(500, 10, false);
  auto idx = catalog_.CreateIndex("EMP_PK", "EMP", {"EMPNO"}, /*unique=*/true,
                                  false);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ((*idx)->icard, 500u);
  // A duplicate EMPNO insert now fails through the catalog.
  Row dup = {Value::Int(7), Value::Str("dup"), Value::Int(0), Value::Int(0),
             Value::Int(0)};
  EXPECT_FALSE(catalog_.Insert("EMP", dup).ok());
}

TEST_F(CatalogTest, IndexScanThroughCatalogIndex) {
  LoadEmp(1000, 10, false);
  auto idx = catalog_.CreateIndex("EMP_DNO", "EMP", {"DNO"}, false, false);
  ASSERT_TRUE(idx.ok());
  KeyRange range;
  std::string key;
  Value::Int(4).EncodeKey(&key);
  range.start = key;
  range.stop = key;
  auto scan = rss_.OpenIndexScan(catalog_.FindTable("EMP")->id, (*idx)->id,
                                 range, {});
  int count = 0;
  for (const Row& row : ReadAll(scan.get())) {
    EXPECT_EQ(row[2].AsInt(), 4);
    ++count;
  }
  // Cross-check against a full segment scan.
  auto seg_scan = rss_.OpenSegmentScan(catalog_.FindTable("EMP")->id, {});
  int expect = 0;
  for (const Row& row : ReadAll(seg_scan.get())) {
    if (row[2].AsInt() == 4) ++expect;
  }
  EXPECT_EQ(count, expect);
}

TEST_F(CatalogTest, IndexScanRangeBounds) {
  LoadEmp(1000, 100, false);
  auto idx = catalog_.CreateIndex("EMP_DNO", "EMP", {"DNO"}, false, false);
  ASSERT_TRUE(idx.ok());
  RelId rel = catalog_.FindTable("EMP")->id;

  auto count_range = [&](std::optional<int64_t> lo, bool lo_inc,
                         std::optional<int64_t> hi, bool hi_inc) {
    KeyRange range;
    if (lo) {
      std::string k;
      Value::Int(*lo).EncodeKey(&k);
      range.start = k;
      range.start_inclusive = lo_inc;
    }
    if (hi) {
      std::string k;
      Value::Int(*hi).EncodeKey(&k);
      range.stop = k;
      range.stop_inclusive = hi_inc;
    }
    auto scan = rss_.OpenIndexScan(rel, (*idx)->id, range, {});
    return static_cast<int>(ReadAll(scan.get()).size());
  };

  // Reference counts from a segment scan.
  auto ref_count = [&](auto pred) {
    auto scan = rss_.OpenSegmentScan(rel, {});
    int n = 0;
    for (const Row& row : ReadAll(scan.get())) {
      if (pred(row[2].AsInt())) ++n;
    }
    return n;
  };

  EXPECT_EQ(count_range(10, true, 20, true),
            ref_count([](int64_t v) { return v >= 10 && v <= 20; }));
  EXPECT_EQ(count_range(10, false, 20, false),
            ref_count([](int64_t v) { return v > 10 && v < 20; }));
  EXPECT_EQ(count_range(std::nullopt, true, 5, true),
            ref_count([](int64_t v) { return v <= 5; }));
  EXPECT_EQ(count_range(95, true, std::nullopt, true),
            ref_count([](int64_t v) { return v >= 95; }));
}

}  // namespace
}  // namespace systemr
