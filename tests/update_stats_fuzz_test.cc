// UPDATE STATISTICS vs. ground truth: after bulk loads (and again after
// DELETEs leave tombstones behind), the recomputed NCARD / TCARD / ICARD /
// low/high keys must exactly match what the trusted reference executor
// counts from the raw heap pages.
#include <gtest/gtest.h>

#include "harness/fuzz_session.h"
#include "harness/ref_executor.h"
#include "workload/querygen.h"

namespace systemr {
namespace {

void ExpectStatsMatchGroundTruth(Database* db) {
  RefExecutor ref(&db->rss().store(), RelPageMap(db));
  const Catalog& catalog = db->catalog();
  for (size_t i = 0; i < catalog.num_tables(); ++i) {
    const TableInfo* t = catalog.table(static_cast<RelId>(i));
    ASSERT_TRUE(db->catalog().UpdateStatistics(t->name).ok()) << t->name;

    auto truth = ref.TableStats(t->id, t->schema.num_columns());
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();

    EXPECT_EQ(t->ncard, truth->rows) << t->name << " NCARD";
    EXPECT_EQ(t->tcard, truth->pages) << t->name << " TCARD";

    for (IndexId id : t->indexes) {
      const IndexInfo* idx = catalog.index(id);
      if (idx->key_columns.size() != 1) continue;
      size_t col = idx->key_columns[0];
      const RefColumnStats& cs = truth->columns[col];
      EXPECT_EQ(idx->icard, cs.distinct) << idx->name << " ICARD";
      EXPECT_EQ(idx->icard_leading, cs.distinct) << idx->name;
      if (truth->rows > 0) {
        EXPECT_EQ(idx->low_key.Compare(cs.low), 0) << idx->name << " low";
        EXPECT_EQ(idx->high_key.Compare(cs.high), 0) << idx->name << " high";
      }
    }
  }
}

TEST(UpdateStatsFuzzTest, MatchesGroundTruthAfterBulkLoad) {
  for (auto family : {FuzzSchema::Family::kChain, FuzzSchema::Family::kStar,
                      FuzzSchema::Family::kSnowflake}) {
    FuzzSchema schema = MakeFuzzSchema(family, 11);
    Database db(64);
    ASSERT_TRUE(BuildFuzzSchema(&db, schema, 11, true).ok());
    ExpectStatsMatchGroundTruth(&db);
  }
}

TEST(UpdateStatsFuzzTest, MatchesGroundTruthAfterDeletes) {
  FuzzSchema schema = MakeFuzzSchema(FuzzSchema::Family::kChain, 23);
  Database db(64);
  ASSERT_TRUE(BuildFuzzSchema(&db, schema, 23, true).ok());

  // Tombstone a slice of every non-empty table, then stats must re-converge
  // to the live-tuple ground truth (dead slots and empty pages excluded).
  for (const FuzzTable& t : schema.tables) {
    if (t.rows == 0) continue;
    auto deleted = db.Mutate("DELETE FROM " + t.name + " WHERE A <= 2");
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  }
  ExpectStatsMatchGroundTruth(&db);

  // Delete everything from one table: NCARD/TCARD must drop to zero.
  auto all = db.Mutate("DELETE FROM F2 WHERE PK >= 0");
  ASSERT_TRUE(all.ok());
  EXPECT_GT(*all, 0u);
  ASSERT_TRUE(db.catalog().UpdateStatistics("F2").ok());
  const TableInfo* f2 = db.catalog().FindTable("F2");
  EXPECT_EQ(f2->ncard, 0u);
  EXPECT_EQ(f2->tcard, 0u);
}

TEST(UpdateStatsFuzzTest, MatchesGroundTruthAfterInserts) {
  FuzzSchema schema = MakeFuzzSchema(FuzzSchema::Family::kStar, 31);
  Database db(64);
  ASSERT_TRUE(BuildFuzzSchema(&db, schema, 31, true).ok());

  // Bulk-append rows beyond the loaded range; stats are stale until UPDATE
  // STATISTICS runs, then must match the reference count exactly.
  for (int i = 0; i < 40; ++i) {
    // Star F0 layout: PK, FK1, FK2, FK3, A, B, D.
    Row row = {Value::Int(1000 + i), Value::Int(i % 5), Value::Int(i % 3),
               Value::Int(i % 7), Value::Int(i % 4), Value::Int(i % 11),
               Value::Int(0)};
    ASSERT_TRUE(db.catalog().Insert("F0", row).ok());
  }
  ExpectStatsMatchGroundTruth(&db);
}

}  // namespace
}  // namespace systemr
