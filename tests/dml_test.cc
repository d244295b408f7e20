// DELETE / UPDATE tests: access-path-driven target location, index
// maintenance, Halloween safety, subquery predicates, and the System R
// statistics contract (stats stay stale until UPDATE STATISTICS).
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "rss/btree.h"
#include "sql/parser.h"

namespace systemr {
namespace {

class DmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(64);
    ASSERT_TRUE(db_->ExecuteScript(R"(
      CREATE TABLE EMP (EMPNO INT, NAME STRING, DNO INT, SAL INT);
    )").ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db_->Execute("INSERT INTO EMP VALUES (" +
                               std::to_string(i) + ", 'E" +
                               std::to_string(i) + "', " +
                               std::to_string(i % 10) + ", " +
                               std::to_string(1000 + 10 * i) + ")")
                      .ok());
    }
    ASSERT_TRUE(db_->Execute("CREATE UNIQUE INDEX EMP_PK ON EMP (EMPNO)").ok());
    ASSERT_TRUE(db_->Execute("CREATE INDEX EMP_DNO ON EMP (DNO)").ok());
    ASSERT_TRUE(db_->Execute("UPDATE STATISTICS EMP").ok());
  }

  int64_t Count(const std::string& where = "") {
    auto r = db_->Query("SELECT COUNT(*) FROM EMP" +
                        (where.empty() ? "" : " WHERE " + where));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->rows[0][0].AsInt();
  }

  std::unique_ptr<Database> db_;
};

TEST_F(DmlTest, DeleteWithEqualityPredicate) {
  auto affected = db_->Mutate("DELETE FROM EMP WHERE DNO = 3");
  ASSERT_TRUE(affected.ok()) << affected.status().ToString();
  EXPECT_EQ(*affected, 10u);
  EXPECT_EQ(Count(), 90);
  EXPECT_EQ(Count("DNO = 3"), 0);
}

TEST_F(DmlTest, DeleteMaintainsIndexes) {
  ASSERT_TRUE(db_->Mutate("DELETE FROM EMP WHERE EMPNO = 42").ok());
  // Both the unique PK index and the DNO index must no longer find it.
  EXPECT_EQ(Count("EMPNO = 42"), 0);
  EXPECT_EQ(Count("DNO = 2"), 9);
  // And the PK can be reused now.
  EXPECT_TRUE(
      db_->Execute("INSERT INTO EMP VALUES (42, 'NEW', 2, 5555)").ok());
  EXPECT_EQ(Count("EMPNO = 42"), 1);
}

TEST_F(DmlTest, DeleteAll) {
  auto affected = db_->Mutate("DELETE FROM EMP");
  ASSERT_TRUE(affected.ok());
  EXPECT_EQ(*affected, 100u);
  EXPECT_EQ(Count(), 0);
}

TEST_F(DmlTest, DeleteWithSubqueryPredicate) {
  // Delete employees earning above average (avg = 1495 → 50 rows above).
  auto affected = db_->Mutate(
      "DELETE FROM EMP WHERE SAL > (SELECT AVG(SAL) FROM EMP)");
  ASSERT_TRUE(affected.ok()) << affected.status().ToString();
  EXPECT_EQ(*affected, 50u);
  EXPECT_EQ(Count(), 50);
}

TEST_F(DmlTest, UpdateSimple) {
  auto affected = db_->Mutate("UPDATE EMP SET SAL = 9999 WHERE DNO = 5");
  ASSERT_TRUE(affected.ok()) << affected.status().ToString();
  EXPECT_EQ(*affected, 10u);
  EXPECT_EQ(Count("SAL = 9999"), 10);
  EXPECT_EQ(Count(), 100) << "update must not change cardinality";
}

TEST_F(DmlTest, UpdateExpressionReferencesOldValues) {
  ASSERT_TRUE(db_->Mutate("UPDATE EMP SET SAL = SAL + 100").ok());
  // Old range was [1000, 1990]; new is [1100, 2090].
  auto r = db_->Query("SELECT MIN(SAL), MAX(SAL) FROM EMP");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1100);
  EXPECT_EQ(r->rows[0][1].AsInt(), 2090);
}

TEST_F(DmlTest, UpdateMultipleColumns) {
  auto affected = db_->Mutate(
      "UPDATE EMP SET DNO = 99, NAME = 'MOVED' WHERE EMPNO < 5");
  ASSERT_TRUE(affected.ok());
  EXPECT_EQ(*affected, 5u);
  EXPECT_EQ(Count("DNO = 99"), 5);
  EXPECT_EQ(Count("NAME = 'MOVED'"), 5);
}

TEST_F(DmlTest, HalloweenSafety) {
  // The classic case: raise the salary of everyone below a threshold, where
  // the raise pushes them past other qualifying rows. Every row must be
  // updated exactly once even though the driving scan's index is being
  // mutated.
  auto affected = db_->Mutate("UPDATE EMP SET SAL = SAL + 5000 "
                              "WHERE SAL < 2000");
  ASSERT_TRUE(affected.ok());
  EXPECT_EQ(*affected, 100u);
  auto r = db_->Query("SELECT MIN(SAL) FROM EMP");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 6000) << "exactly one raise per employee";
}

TEST_F(DmlTest, HalloweenSafetyOnIndexedColumn) {
  // Update the indexed column itself through a predicate on that index.
  auto affected = db_->Mutate("UPDATE EMP SET DNO = DNO + 10 WHERE DNO < 10");
  ASSERT_TRUE(affected.ok());
  EXPECT_EQ(*affected, 100u);
  EXPECT_EQ(Count("DNO < 10"), 0);
  EXPECT_EQ(Count("DNO >= 10"), 100);
}

TEST_F(DmlTest, UniqueViolationOnUpdateFails) {
  EXPECT_FALSE(db_->Mutate("UPDATE EMP SET EMPNO = 1 WHERE EMPNO = 2").ok());
}

TEST_F(DmlTest, TypeCheckingInSet) {
  EXPECT_FALSE(db_->Mutate("UPDATE EMP SET SAL = 'lots'").ok());
  EXPECT_FALSE(db_->Mutate("UPDATE EMP SET NOPE = 1").ok());
}

TEST_F(DmlTest, StatisticsStayStaleUntilUpdateStatistics) {
  ASSERT_TRUE(db_->Mutate("DELETE FROM EMP WHERE DNO < 5").ok());
  const TableInfo* t = db_->catalog().FindTable("EMP");
  EXPECT_EQ(t->ncard, 100u) << "NCARD is the pre-delete snapshot";
  ASSERT_TRUE(db_->Execute("UPDATE STATISTICS EMP").ok());
  EXPECT_EQ(t->ncard, 50u);
}

TEST_F(DmlTest, DeleteUsesSelectiveAccessPath) {
  // A unique-key delete should not scan the whole relation: meter it.
  db_->rss().pool().FlushAll();
  const uint64_t before = db_->rss().counters().rsi_calls;
  ASSERT_TRUE(db_->Mutate("DELETE FROM EMP WHERE EMPNO = 7").ok());
  const uint64_t after = db_->rss().counters().rsi_calls;
  // The whole EMP heap is only a couple of pages here, so just check the
  // scan did not return every tuple across the RSI.
  EXPECT_LT(after - before, 10u);
}

// A row that T's second, unique index refuses must leave no entry in its
// first index and the heap as it was, for INSERT and UPDATE alike. Each index
// is read entry by entry along its leaves, the heap by a segment scan.
class IndexEntryAtomicityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(64);
    ASSERT_TRUE(db_->ExecuteScript(R"(
      CREATE TABLE T (K INT, G INT);
      INSERT INTO T VALUES (1, 10);
      INSERT INTO T VALUES (2, 20);
      INSERT INTO T VALUES (3, 30);
      CREATE INDEX T_G ON T (G);
      CREATE UNIQUE INDEX T_K ON T (K);
    )").ok());
    table_ = db_->catalog().FindTable("T");
    ASSERT_EQ(table_->indexes.size(), 2u);
  }

  // The (key, packed TID) entries of T's index number `k`, in key order.
  std::vector<std::pair<std::string, uint64_t>> IndexEntries(size_t k) {
    const IndexInfo* info = db_->catalog().index(table_->indexes[k]);
    BTree::Cursor cursor = db_->rss().index(info->id)->NewCursor();
    std::vector<std::pair<std::string, uint64_t>> out;
    EXPECT_TRUE(cursor.SeekToFirst().ok());
    while (cursor.Valid()) {
      out.emplace_back(std::string(cursor.user_key()), cursor.tid().Pack());
      EXPECT_TRUE(cursor.Next().ok());
    }
    return out;
  }

  // The heap's (packed TID, row) pairs, as a segment scan delivers them.
  std::vector<std::pair<uint64_t, Row>> HeapRows() {
    auto scan = db_->rss().OpenSegmentScan(table_->id, {});
    std::vector<std::pair<uint64_t, Row>> out;
    EXPECT_TRUE(scan->Open().ok());
    std::vector<Row> rows;
    std::vector<Tid> tids;
    size_t n = 0;
    do {
      EXPECT_TRUE(scan->NextBatch(&rows, &tids, 64, &n).ok());
      for (size_t i = 0; i < n; ++i) out.emplace_back(tids[i].Pack(), rows[i]);
    } while (n > 0);
    scan->Close();
    return out;
  }

  // Runs `sql`, which T_K must refuse, and checks that T is as it was.
  void ExpectRefusedWithoutTrace(const std::string& sql) {
    auto first = IndexEntries(0);
    auto second = IndexEntries(1);
    auto heap = HeapRows();
    ASSERT_EQ(first.size(), 3u);
    ASSERT_EQ(heap.size(), 3u);
    EXPECT_EQ(db_->Execute(sql).code(), StatusCode::kAlreadyExists) << sql;
    EXPECT_EQ(IndexEntries(0), first) << "stray entry in T_G after " << sql;
    EXPECT_EQ(IndexEntries(1), second) << sql;
    EXPECT_EQ(HeapRows(), heap) << sql;
  }

  std::unique_ptr<Database> db_;
  const TableInfo* table_ = nullptr;
};

TEST_F(IndexEntryAtomicityTest, RefusedInsertLeavesNoEntry) {
  // T_G takes the new entry first; T_K then refuses K = 2.
  ExpectRefusedWithoutTrace("INSERT INTO T VALUES (2, 99)");
}

TEST_F(IndexEntryAtomicityTest, RefusedUpdateRestoresTheOldRow) {
  // The old row leaves both indexes, the new one enters T_G, T_K refuses
  // it, and the old row returns to its TID with its old entries.
  ExpectRefusedWithoutTrace("UPDATE T SET K = 2, G = 31 WHERE K = 3");
}

// UPDATE ... SET c = (subquery): SET subqueries are planned alongside the
// WHERE subqueries, and every new row is computed before the first write,
// so SET reads the table as it was before the update.
class DmlSetSubqueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(64);
    ASSERT_TRUE(db_->ExecuteScript(R"(
      CREATE TABLE T (A INT, B INT);
      INSERT INTO T VALUES (1, 10);
      INSERT INTO T VALUES (2, 20);
      INSERT INTO T VALUES (3, 30);
      INSERT INTO T VALUES (4, 40);
    )").ok());
  }

  // B values in A order.
  std::vector<int64_t> Bs() {
    auto r = db_->Query("SELECT A, B FROM T ORDER BY A");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<int64_t> out;
    if (r.ok()) {
      for (const Row& row : r->rows) out.push_back(row[1].AsInt());
    }
    return out;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(DmlSetSubqueryTest, UncorrelatedSubqueryInSet) {
  auto affected = db_->Mutate("UPDATE T SET B = (SELECT MAX(B) FROM T) + 1");
  ASSERT_TRUE(affected.ok()) << affected.status().ToString();
  EXPECT_EQ(*affected, 4u);
  EXPECT_EQ(Bs(), (std::vector<int64_t>{41, 41, 41, 41}));
}

TEST_F(DmlSetSubqueryTest, CorrelatedSubqueryInSetReadsPreUpdateTable) {
  // Reading rows already updated would give 41, 42, 43, 44.
  auto affected = db_->Mutate(
      "UPDATE T SET B = (SELECT MAX(X.B) FROM T X WHERE X.A <> T.A) + 1");
  ASSERT_TRUE(affected.ok()) << affected.status().ToString();
  EXPECT_EQ(*affected, 4u);
  EXPECT_EQ(Bs(), (std::vector<int64_t>{41, 41, 41, 31}));
}

// One coercion rule where rows are stored (CoerceToColumn): every INSERT
// row, every UPDATE row and every ? bound into a SET reaches it.
class CoercionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(64);
    ASSERT_TRUE(db_->Execute("CREATE TABLE N (R REAL, W INT)").ok());
  }

  // N's rows, sorted; a REAL prints with a fraction, an INT without one.
  std::vector<std::string> Rows() {
    auto r = db_->Query("SELECT R, W FROM N");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<std::string> out;
    if (r.ok()) {
      for (const Row& row : r->rows) {
        out.push_back(row[0].ToString() + " " + row[1].ToString());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // Runs a DML statement with `params` bound to its ? markers.
  Status Run(const std::string& sql, const std::vector<Value>& params) {
    auto stmt = Parse(sql);
    if (!stmt.ok()) return stmt.status();
    return db_->Execute(*stmt, params).status();
  }

  std::unique_ptr<Database> db_;
};

TEST_F(CoercionTest, NumericValuesTakeTheColumnType) {
  ASSERT_TRUE(db_->Execute("INSERT INTO N VALUES (2, 1)").ok());
  ASSERT_TRUE(db_->Execute("INSERT INTO N VALUES (1.5, 2.9)").ok());
  ASSERT_TRUE(db_->Execute("INSERT INTO N VALUES (-1.5, -2.9)").ok());
  ASSERT_TRUE(db_->Execute("INSERT INTO N VALUES (NULL, NULL)").ok());
  EXPECT_EQ(Rows(), (std::vector<std::string>{"-1.5 -2", "1.5 2", "2.0 1",
                                              "NULL NULL"}));
  ASSERT_TRUE(db_->Mutate("UPDATE N SET R = 3 WHERE W = 1").ok());
  ASSERT_TRUE(Run("UPDATE N SET W = ? WHERE W = 2", {Value::Real(7.9)}).ok());
  ASSERT_TRUE(Run("UPDATE N SET R = ? WHERE W = -2", {Value::Int(-4)}).ok());
  ASSERT_TRUE(Run("UPDATE N SET W = ? WHERE R IS NULL",
                  {Value::Real(-0x1p63)})
                  .ok());
  EXPECT_EQ(Rows(), (std::vector<std::string>{"-4.0 -2", "1.5 7", "3.0 1",
                                              "NULL -9223372036854775808"}));
}

TEST_F(CoercionTest, StringsAndOutOfRangeRealsAreRefused) {
  EXPECT_EQ(db_->Execute("INSERT INTO N VALUES ('x', 1)").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db_->Execute("INSERT INTO N VALUES (1.0, 99999999999999999999.0)")
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(db_->Execute("INSERT INTO N VALUES (1.0, 5)").ok());
  // R * 1e23 leaves int64: the cast to INT would be undefined behaviour.
  auto big = db_->Mutate("UPDATE N SET W = R * 100000000000000000000000.0");
  EXPECT_EQ(big.status().code(), StatusCode::kInvalidArgument)
      << big.status().ToString();
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, 0x1p63, -0x1p64}) {
    EXPECT_EQ(Run("UPDATE N SET W = ?", {Value::Real(bad)}).code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(Run("UPDATE N SET R = ?", {Value::Str("x")}).code(),
            StatusCode::kInvalidArgument);
  // Each refused statement left the row as it was.
  EXPECT_EQ(Rows(), (std::vector<std::string>{"1.0 5"}));
}

}  // namespace
}  // namespace systemr
