// Executor operator tests: external sort (spill, multi-run merge, DISTINCT),
// merge-scan join edge cases, join-method equivalence, the §6 subquery
// re-evaluation cache, and index bounds of the other numeric type.
#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/database.h"
#include "exec/executor.h"
#include "optimizer/explain.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace systemr {
namespace {

// --- External sort ---

class SortSpillTest : public ::testing::Test {
 protected:
  // A tiny pool forces multiple runs and at least one merge pass.
  SortSpillTest() : db_(std::make_unique<Database>(/*buffer_pages=*/8)) {}

  void Load(int n) {
    ASSERT_TRUE(db_->Execute("CREATE TABLE T (K INT, PAD STRING)").ok());
    Rng rng(3);
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(db_->Execute("INSERT INTO T VALUES (" +
                               std::to_string(rng.Uniform(0, 1000000)) +
                               ", '" + rng.RandomString(64) + "')")
                      .ok());
    }
    ASSERT_TRUE(db_->Execute("UPDATE STATISTICS T").ok());
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SortSpillTest, LargeSortIsCorrectAndSpills) {
  Load(5000);
  db_->rss().pool().FlushAll();
  auto r = db_->Query("SELECT K FROM T ORDER BY K");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 5000u);
  for (size_t i = 1; i < r->rows.size(); ++i) {
    EXPECT_LE(r->rows[i - 1][0].AsInt(), r->rows[i][0].AsInt());
  }
  // Spilling through the metered pool: temp writes must have happened.
  EXPECT_GT(r->stats.page_writes, 50u) << "external sort must spill runs";
  // The runs, one merge pass (more runs than the pool's fan-in) and the
  // final merge, metered on the 8-page pool: a change here is a change in
  // how the sort reads or writes its temporary pages.
  EXPECT_EQ(r->stats.page_fetches, 622u);
  EXPECT_EQ(r->stats.page_writes, 216u);
  EXPECT_EQ(r->stats.buffer_gets, 20531u);
}

TEST_F(SortSpillTest, SortDescending) {
  Load(2000);
  auto r = db_->Query("SELECT K FROM T ORDER BY K DESC");
  ASSERT_TRUE(r.ok());
  for (size_t i = 1; i < r->rows.size(); ++i) {
    EXPECT_GE(r->rows[i - 1][0].AsInt(), r->rows[i][0].AsInt());
  }
}

TEST_F(SortSpillTest, DistinctAcrossRuns) {
  // Duplicates scattered across spill runs must still be deduplicated.
  ASSERT_TRUE(db_->Execute("CREATE TABLE D (K INT, PAD STRING)").ok());
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(db_->Execute("INSERT INTO D VALUES (" +
                             std::to_string(rng.Uniform(0, 49)) + ", '" +
                             rng.RandomString(64) + "')")
                    .ok());
  }
  ASSERT_TRUE(db_->Execute("UPDATE STATISTICS D").ok());
  auto r = db_->Query("SELECT DISTINCT K FROM D ORDER BY K");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 50u);
}

// --- Join equivalence and merge edge cases ---

class JoinEquivalenceTest : public ::testing::Test {
 protected:
  JoinEquivalenceTest() : db_(std::make_unique<Database>(64)) {}

  void Load(int left, int right, int key_domain) {
    ASSERT_TRUE(db_->Execute("CREATE TABLE L (K INT, V INT)").ok());
    ASSERT_TRUE(db_->Execute("CREATE TABLE R (K INT, W INT)").ok());
    Rng rng(11);
    for (int i = 0; i < left; ++i) {
      ASSERT_TRUE(db_->Execute("INSERT INTO L VALUES (" +
                               std::to_string(rng.Uniform(0, key_domain)) +
                               ", " + std::to_string(i) + ")")
                      .ok());
    }
    for (int i = 0; i < right; ++i) {
      ASSERT_TRUE(db_->Execute("INSERT INTO R VALUES (" +
                               std::to_string(rng.Uniform(0, key_domain)) +
                               ", " + std::to_string(i) + ")")
                      .ok());
    }
    ASSERT_TRUE(db_->Execute("CREATE INDEX L_K ON L (K)").ok());
    ASSERT_TRUE(db_->Execute("CREATE INDEX R_K ON R (K)").ok());
    ASSERT_TRUE(db_->Execute("UPDATE STATISTICS L").ok());
    ASSERT_TRUE(db_->Execute("UPDATE STATISTICS R").ok());
  }

  std::multiset<std::string> RowsOf(const OptimizedQuery& q) {
    auto r = db_->Run(q);
    EXPECT_TRUE(r.ok());
    std::multiset<std::string> out;
    for (const Row& row : r->rows) out.insert(RowToString(row));
    return out;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(JoinEquivalenceTest, MergeEqualsNestedLoopWithDuplicates) {
  Load(300, 200, 20);  // Heavy duplicates on both sides.
  const std::string sql = "SELECT L.V, R.W FROM L, R WHERE L.K = R.K";

  OptimizerOptions nl_only = db_->options();
  nl_only.join.enable_merge_join = false;
  nl_only.join.enable_hash_join = false;
  OptimizerOptions mj_only = db_->options();
  mj_only.join.enable_nested_loop = false;
  mj_only.join.enable_hash_join = false;

  Database& db = *db_;
  Binder binder(&db.catalog());
  auto make = [&](const OptimizerOptions& opts) {
    auto stmt = Parse(sql);
    EXPECT_TRUE(stmt.ok());
    auto block = binder.Bind(*stmt->select);
    EXPECT_TRUE(block.ok());
    Optimizer opt(&db.catalog(), opts);
    auto q = opt.Optimize(std::move(*block));
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(*q);
  };
  OptimizedQuery nl = make(nl_only);
  OptimizedQuery mj = make(mj_only);
  EXPECT_NE(ExplainPlan(nl.root, *nl.block).find("method=nested-loop"),
            std::string::npos);
  EXPECT_NE(ExplainPlan(mj.root, *mj.block).find("method=merge"),
            std::string::npos);
  EXPECT_EQ(RowsOf(nl), RowsOf(mj));
  EXPECT_FALSE(RowsOf(nl).empty());
}

TEST_F(JoinEquivalenceTest, MergeJoinNoMatches) {
  Load(50, 50, 10);
  // Keys shifted apart → empty result.
  auto r = db_->Query("SELECT L.V FROM L, R WHERE L.K = R.K AND L.K > 100");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(JoinEquivalenceTest, EmptyInnerRelation) {
  ASSERT_TRUE(db_->Execute("CREATE TABLE L (K INT, V INT)").ok());
  ASSERT_TRUE(db_->Execute("CREATE TABLE R (K INT, W INT)").ok());
  ASSERT_TRUE(db_->Execute("INSERT INTO L VALUES (1, 1)").ok());
  auto r = db_->Query("SELECT L.V FROM L, R WHERE L.K = R.K");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

// --- §6 subquery re-evaluation cache ---

class SubqueryCacheTest : public ::testing::Test {
 protected:
  SubqueryCacheTest() : db_(std::make_unique<Database>(64)) {}

  void Load(bool order_by_dno) {
    ASSERT_TRUE(db_->Execute("CREATE TABLE E (ID INT, DNO INT, SAL INT)").ok());
    // 60 employees over 6 departments. When order_by_dno, tuples are loaded
    // in DNO order, so the correlated value repeats consecutively.
    for (int i = 0; i < 60; ++i) {
      int dno = order_by_dno ? i / 10 : i % 6;
      ASSERT_TRUE(db_->Execute("INSERT INTO E VALUES (" + std::to_string(i) +
                               ", " + std::to_string(dno) + ", " +
                               std::to_string(1000 + i) + ")")
                      .ok());
    }
    ASSERT_TRUE(db_->Execute("UPDATE STATISTICS E").ok());
  }

  // Runs the correlated query and returns {evaluations, cache hits} of its
  // one nested block, read from the statement's stats.
  std::pair<uint64_t, uint64_t> RunCorrelated() {
    const std::string sql =
        "SELECT ID FROM E X WHERE SAL > "
        "(SELECT AVG(SAL) FROM E WHERE DNO = X.DNO)";
    auto prepared = db_->Prepare(sql);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    EXPECT_EQ(prepared->subquery_plans.size(), 1u);

    ExecContext ctx(&db_->rss(), &db_->catalog(), &prepared->subquery_plans,
                    db_->options().cost.w);
    auto result = ExecutePlan(&ctx, *prepared->block, prepared->root);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return {result->stats.subquery_evals, result->stats.subquery_cache_hits};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SubqueryCacheTest, OrderedCorrelationValueEvaluatesOncePerGroup) {
  Load(/*order_by_dno=*/true);
  auto [evals, hits] = RunCorrelated();
  // "If the referenced relation is ordered on the referenced column, the
  // re-evaluation can be made conditional" (§6): 6 distinct DNO runs.
  EXPECT_EQ(evals, 6u);
  EXPECT_EQ(hits, 54u);
}

TEST_F(SubqueryCacheTest, UnorderedCorrelationReEvaluatesOnValueChange) {
  Load(/*order_by_dno=*/false);
  auto [evals, hits] = RunCorrelated();
  // DNO cycles 0..5 → the previous-value cache almost never hits.
  EXPECT_EQ(evals, 60u);
  EXPECT_EQ(hits, 0u);
}

TEST_F(SubqueryCacheTest, UncorrelatedSubqueryEvaluatedOnce) {
  Load(true);
  const std::string sql =
      "SELECT ID FROM E WHERE SAL > (SELECT AVG(SAL) FROM E)";
  auto prepared = db_->Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  ASSERT_EQ(prepared->subquery_plans.size(), 1u);
  ExecContext ctx(&db_->rss(), &db_->catalog(), &prepared->subquery_plans,
                  db_->options().cost.w);
  auto result = ExecutePlan(&ctx, *prepared->block, prepared->root);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.subquery_evals, 1u)
      << "§6: uncorrelated subqueries are evaluated only once";
}

// --- Index bounds against a key of the other numeric type ---
//
// INT and REAL compare by value, but an index key encodes each under its own
// tag, so a literal, host-variable or outer-row bound must take its key
// column's type before it is encoded. Each statement returns the rows it
// returns without an index, whichever index its plan probes.

// T(K INT, V INT) holds K = 1..300; U(R REAL, W INT) holds R = 0.5..150.0 in
// steps of 0.5. `indexes` is the DDL that tells the two databases apart.
std::unique_ptr<Database> MixedNumericDb(const std::string& indexes) {
  auto db = std::make_unique<Database>(64);
  EXPECT_TRUE(db->ExecuteScript("CREATE TABLE T (K INT, V INT);"
                                "CREATE TABLE U (R REAL, W INT);")
                  .ok());
  for (int i = 1; i <= 300; ++i) {
    EXPECT_TRUE(db->Execute("INSERT INTO T VALUES (" + std::to_string(i) +
                            ", " + std::to_string(10 * i) + ")")
                    .ok());
    EXPECT_TRUE(db->Execute("INSERT INTO U VALUES (" + std::to_string(i / 2) +
                            (i % 2 == 0 ? ".0" : ".5") + ", " +
                            std::to_string(i) + ")")
                    .ok());
  }
  EXPECT_TRUE(db->ExecuteScript(indexes +
                                "UPDATE STATISTICS T; UPDATE STATISTICS U;")
                  .ok())
      << indexes;
  // Joins run as nested loops: the inner scan's key takes the outer value.
  db->options().join.enable_merge_join = false;
  db->options().join.enable_hash_join = false;
  return db;
}

// The DDL of the two indexed variants: INT keys, then REAL keys.
constexpr const char* kIndexTK = "CREATE CLUSTERED INDEX T_K ON T (K);";
constexpr const char* kIndexUR = "CREATE INDEX U_R ON U (R);";

struct MixedProbe {
  const char* sql;
  std::vector<Value> params;
  size_t rows;  // Result rows, or an UPDATE's or DELETE's affected count.
};

const MixedProbe kMixedProbes[] = {
    {"SELECT K FROM T WHERE K = 2.0", {}, 1},
    {"SELECT K FROM T WHERE K > 1.5", {}, 299},
    {"SELECT K FROM T WHERE K > 297.5", {}, 3},
    {"SELECT K FROM T WHERE K < 2.5", {}, 2},
    {"SELECT K FROM T WHERE K BETWEEN 1.5 AND 3.5", {}, 2},
    {"SELECT K FROM T WHERE K = ?", {Value::Real(2.0)}, 1},
    {"SELECT K FROM T WHERE K = ?", {Value::Real(2.5)}, 0},
    {"SELECT K FROM T WHERE K = ?", {Value::Real(1e30)}, 0},
    {"SELECT K FROM T WHERE K = ?", {Value::Null()}, 0},
    {"SELECT K FROM T WHERE K > ? AND K < 5", {Value::Real(-1e30)}, 4},
    {"SELECT K FROM T WHERE K >= ? AND K < 5", {Value::Real(1.5)}, 3},
    {"SELECT K FROM T WHERE K < ? AND K > 296", {Value::Real(1e30)}, 4},
    {"SELECT K FROM T WHERE K <= ? AND K > 296", {Value::Real(298.5)}, 2},
    {"SELECT R FROM U WHERE R = 2", {}, 1},
    {"SELECT R FROM U WHERE R > 148", {}, 4},
    {"SELECT R FROM U WHERE R = ?", {Value::Int(2)}, 1},
    {"SELECT T.V, U.W FROM T, U WHERE T.K = U.R", {}, 150},
    {"UPDATE T SET V = 0 WHERE K = 2.0", {}, 1},
    {"DELETE FROM T WHERE K > 298.5", {}, 2},
    {"SELECT K, V FROM T", {}, 298},
};

// A SELECT's rows, or an UPDATE's or DELETE's affected count.
std::multiset<std::string> RunMixedProbe(Database* db, const MixedProbe& p) {
  std::multiset<std::string> out;
  if (std::strncmp(p.sql, "SELECT", 6) != 0) {
    auto n = db->Mutate(p.sql);
    EXPECT_TRUE(n.ok()) << p.sql << ": " << n.status().ToString();
    if (n.ok()) out.insert("affected " + std::to_string(*n));
    return out;
  }
  auto q = db->Prepare(p.sql);
  EXPECT_TRUE(q.ok()) << p.sql << ": " << q.status().ToString();
  if (!q.ok()) return out;
  auto r = db->Run(*q, p.params);
  EXPECT_TRUE(r.ok()) << p.sql << ": " << r.status().ToString();
  if (r.ok()) {
    for (const Row& row : r->rows) out.insert(RowToString(row));
  }
  return out;
}

TEST(MixedNumericBoundTest, IndexedScansMatchUnindexed) {
  for (const char* indexes : {kIndexTK, kIndexUR}) {
    std::unique_ptr<Database> plain = MixedNumericDb("");
    std::unique_ptr<Database> indexed = MixedNumericDb(indexes);
    for (const MixedProbe& p : kMixedProbes) {
      std::multiset<std::string> want = RunMixedProbe(plain.get(), p);
      if (std::strncmp(p.sql, "SELECT", 6) == 0) {
        EXPECT_EQ(want.size(), p.rows) << p.sql;
      } else {
        EXPECT_EQ(want, std::multiset<std::string>{
                            "affected " + std::to_string(p.rows)})
            << p.sql;
      }
      EXPECT_EQ(RunMixedProbe(indexed.get(), p), want)
          << indexes << " " << p.sql;
    }
  }
}

// Around 2^53 neighbouring INTs round to one double, yet each statement
// compares exactly, and returns the same rows whether or not its plan probes
// an index: an INT bound on a REAL key rounds outward, like a REAL bound on
// an INT key, and the SARG decides. T holds K = 1..299 and 2^53 + 1; U
// holds R = 0.5..149.5 and 2^53.
TEST(MixedNumericBoundTest, ExactAround2To53) {
  struct Probe {
    const char* sql;
    std::vector<Value> params;
    size_t rows;
  };
  const Value above = Value::Int((int64_t{1} << 53) + 1);
  const struct {
    const char* table;
    const char* index;
    std::vector<Probe> probes;
  } kTables[] = {
      {"T",
       "CREATE INDEX T_K ON T (K);",
       {{"SELECT K FROM T WHERE K = 9007199254740992.0", {}, 0},
        {"SELECT K FROM T WHERE K = ?", {Value::Real(0x1p53)}, 0},
        {"SELECT K FROM T WHERE K > 9007199254740992.0", {}, 1},
        {"SELECT K FROM T WHERE K > 1000 AND K <= 9007199254740992.0", {}, 0},
        {"SELECT K FROM T WHERE K = 9007199254740993", {}, 1}}},
      {"U",
       "CREATE INDEX U_R ON U (R);",
       {{"SELECT R FROM U WHERE R < 9007199254740993 AND R > 1000", {}, 1},
        {"SELECT R FROM U WHERE R < ? AND R > 1000", {above}, 1},
        {"SELECT R FROM U WHERE R <= 9007199254740991 AND R > 1000", {}, 0},
        {"SELECT R FROM U WHERE R > 9007199254740991", {}, 1},
        {"SELECT R FROM U WHERE R >= 9007199254740993", {}, 0},
        {"SELECT R FROM U WHERE R = ?", {above}, 0},
        {"SELECT R FROM U WHERE R = 9007199254740992", {}, 1}}},
  };
  for (const auto& table : kTables) {
    for (bool indexed : {false, true}) {
      Database db(64);
      ASSERT_TRUE(db.ExecuteScript("CREATE TABLE T (K INT);"
                                   "CREATE TABLE U (R REAL);"
                                   "INSERT INTO T VALUES (9007199254740993);"
                                   "INSERT INTO U VALUES (9007199254740992.0);")
                      .ok());
      for (int i = 1; i < 300; ++i) {
        ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (" + std::to_string(i) +
                               ")")
                        .ok());
        ASSERT_TRUE(db.Execute("INSERT INTO U VALUES (" +
                               std::to_string(i / 2) +
                               (i % 2 == 0 ? ".0" : ".5") + ")")
                        .ok());
      }
      if (indexed) {
        ASSERT_TRUE(db.ExecuteScript(table.index).ok());
      }
      ASSERT_TRUE(db.ExecuteScript(std::string("UPDATE STATISTICS ") +
                                   table.table + ";")
                      .ok());
      for (const Probe& p : table.probes) {
        auto q = db.Prepare(p.sql);
        ASSERT_TRUE(q.ok()) << p.sql << ": " << q.status().ToString();
        std::string plan = ExplainPlan(q->root, *q->block);
        EXPECT_EQ(plan.find("IndexScan") != std::string::npos, indexed)
            << plan;
        auto r = db.Run(*q, p.params);
        ASSERT_TRUE(r.ok()) << p.sql << ": " << r.status().ToString();
        EXPECT_EQ(r->rows.size(), p.rows)
            << p.sql << (indexed ? " with " : " without ") << "the index";
      }
    }
  }
}

// The probes above reach the index with every operand source, and bound it
// on both sides of a saturated range. A REAL bound prints in full: the two
// 2^53-scale probes differ in their last digit.
TEST(MixedNumericBoundTest, ProbesBoundTheIndex) {
  std::unique_ptr<Database> t_k = MixedNumericDb(kIndexTK);
  std::unique_ptr<Database> u_r = MixedNumericDb(kIndexUR);
  const std::tuple<Database*, const char*, const char*> kPlans[] = {
      {t_k.get(), "SELECT K FROM T WHERE K = 2.0", "via T_K [=2.0]"},
      {t_k.get(), "SELECT K FROM T WHERE K = 9007199254740992.0",
       "via T_K [=9007199254740992.0] sargs(K=9007199254740992.0)"},
      {t_k.get(), "SELECT K FROM T WHERE K = 9007199254740994.0",
       "via T_K [=9007199254740994.0] sargs(K=9007199254740994.0)"},
      {t_k.get(), "SELECT K FROM T WHERE K > 297.5", "via T_K [>297.5]"},
      {t_k.get(), "SELECT K FROM T WHERE K = ?", "via T_K [=?1]"},
      {t_k.get(), "SELECT K FROM T WHERE K > ? AND K < 5", "via T_K [>?1, <5]"},
      {t_k.get(), "SELECT K FROM T WHERE K < ? AND K > 296",
       "via T_K [>296, <?1]"},
      {t_k.get(), "SELECT T.V, U.W FROM T, U WHERE T.K = U.R",
       "via T_K [=outer#2]"},
      {u_r.get(), "SELECT R FROM U WHERE R = ?", "via U_R [=?1]"},
      {u_r.get(), "SELECT T.V, U.W FROM T, U WHERE T.K = U.R",
       "via U_R [=outer#0]"},
  };
  for (const auto& [db, sql, scan] : kPlans) {
    auto q = db->Prepare(sql);
    ASSERT_TRUE(q.ok()) << sql << ": " << q.status().ToString();
    std::string plan = ExplainPlan(q->root, *q->block);
    EXPECT_NE(plan.find(scan), std::string::npos) << sql << "\n" << plan;
  }
}

}  // namespace
}  // namespace systemr
