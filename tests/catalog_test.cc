// Catalog + statistics tests: NCARD/TCARD/P/ICARD/NINDX semantics from §4,
// clustering measurement, index scans through catalog-created indexes, and
// the pinned shape and metering of olap_mix's index builds.
#include "catalog/catalog.h"

#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/database.h"
#include "workload/querygen.h"

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

// FNV-1a over the live bytes of every node of the B-tree rooted at `pid`,
// depth first with children in key order: each node's header (leaf flag,
// count, leaf chain), leftmost child and entries (key length, key, TID or
// child id), but not the unused tail of its page, which holds whatever
// earlier writes left there. Reads the store directly: unmetered.
uint64_t HashLiveNodes(const PageStore& store, PageId pid,
                       uint64_t h = 14695981039346656037ull) {
  const char* p = store.Get(pid)->bytes.data();
  auto feed = [&](const char* bytes, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ static_cast<uint8_t>(bytes[i])) * 1099511628211ull;
    }
  };
  const bool leaf = p[0] != 0;
  uint16_t count;
  std::memcpy(&count, p + 1, 2);
  size_t pos = 7;
  std::vector<PageId> children;
  auto child_at = [&](const char* at) {
    PageId c;
    std::memcpy(&c, at, 4);
    children.push_back(c);
  };
  if (!leaf) {
    child_at(p + pos);
    pos += 4;
  }
  feed(p, pos);
  // Each entry's key length, key and payload, in the byte stream the
  // key-length-prefixed layout stored: the node's end offsets give the
  // lengths.
  const size_t payload = leaf ? 8 : 4;
  const char* area = p + pos + 2 * count;
  uint16_t begin = 0;
  for (uint16_t i = 0; i < count; ++i) {
    uint16_t end;
    std::memcpy(&end, p + pos + 2 * i, 2);
    uint16_t klen = static_cast<uint16_t>(end - begin - payload);
    feed(reinterpret_cast<const char*>(&klen), 2);
    feed(area + begin, end - begin);
    if (!leaf) child_at(area + end - 4);
    begin = end;
  }
  for (PageId c : children) h = HashLiveNodes(store, c, h);
  return h;
}

// olap_mix's set-up (perfbench's olap_mix: the chain schema with 3 tables,
// 20000 base rows, shrink 0.5, domains of 100, seed 1, a 128-frame pool),
// run step by step as BuildChainSchema runs it, so that the nine CREATE
// INDEX calls can be metered on their own. Pins every index's shape and the
// pool's counters over those calls, measured before B-tree writes changed
// nodes in place: how the B-tree writes may change, but not the tree it
// builds (NINDX and every estimate follow from it) nor the pages it gets,
// fetches and writes.
TEST(CreateIndexPinTest, OlapMixChainIndexesArePinned) {
  Database db(128);
  ChainSchemaSpec spec;
  spec.num_tables = 3;
  spec.base_rows = 20000;
  spec.shrink = 0.5;
  spec.a_domain = 100;
  spec.b_domain = 100;
  DataGen gen(&db, 1);
  BufferPool& pool = db.rss().pool();
  BufferStats create_index;
  for (const TableSpec& t : ChainTableSpecs(spec)) {
    ASSERT_TRUE(gen.CreateAndInsertRows(t).ok());
    for (const IndexSpec& idx : t.indexes) {
      BufferStats before = pool.stats();
      ASSERT_TRUE(db.catalog()
                      .CreateIndex(idx.name, t.name, idx.columns, idx.unique,
                                   idx.clustered)
                      .ok());
      BufferStats d = pool.stats() - before;
      create_index.fetches += d.fetches;
      create_index.writes += d.writes;
      create_index.logical_gets += d.logical_gets;
    }
    ASSERT_TRUE(db.catalog().UpdateStatistics(t.name).ok());
  }
  EXPECT_EQ(create_index.fetches, 5778u);
  EXPECT_EQ(create_index.writes, 1176u);
  EXPECT_EQ(create_index.logical_gets, 438682u);

  struct Shape {
    const char* name;
    size_t pages;
    size_t leaf_pages;
    int height;
    uint64_t entries;
    uint64_t hash;
  };
  const Shape kShapes[] = {
      {"R0_PK", 198, 195, 3, 20000, 679656732501290934ull},
      {"R0_FK", 266, 263, 3, 20000, 16865345123061841122ull},
      {"R0_A", 213, 210, 3, 20000, 7767625279007034773ull},
      {"R1_PK", 102, 101, 2, 10000, 2711910690836354872ull},
      {"R1_FK", 132, 131, 2, 10000, 15194263981113176749ull},
      {"R1_A", 101, 100, 2, 10000, 14846362311077332427ull},
      {"R2_PK", 52, 51, 2, 5000, 7030020652330254043ull},
      {"R2_FK", 66, 65, 2, 5000, 5898073841691374264ull},
      {"R2_A", 46, 45, 2, 5000, 11410171032898924795ull},
  };
  size_t checked = 0;
  for (const Shape& want : kShapes) {
    SCOPED_TRACE(want.name);
    std::string table(want.name, 2);
    const TableInfo* info = db.catalog().FindTable(table);
    ASSERT_NE(info, nullptr);
    for (IndexId id : info->indexes) {
      if (db.catalog().index(id)->name != want.name) continue;
      const BTree& tree = *db.rss().index(id);
      EXPECT_EQ(tree.num_pages(), want.pages);
      EXPECT_EQ(tree.num_leaf_pages(), want.leaf_pages);
      EXPECT_EQ(tree.height(), want.height);
      EXPECT_EQ(tree.num_entries(), want.entries);
      EXPECT_EQ(HashLiveNodes(*pool.store(), tree.root()), want.hash);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 9u);
}

}  // namespace
}  // namespace systemr
