// End-to-end SQL tests: parse → bind → optimize → execute, with results
// checked against hand-computed expectations on deterministic data.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "db/database.h"

namespace systemr {
namespace {

class E2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(64);
    ASSERT_TRUE(db_->ExecuteScript(R"(
      CREATE TABLE DEPT (DNO INT, DNAME STRING, LOC STRING);
      CREATE TABLE EMP (EMPNO INT, NAME STRING, DNO INT, SAL INT, MGR INT);
    )").ok());
    // 5 departments; Denver is 1 and 3.
    const char* locs[5] = {"AUSTIN", "DENVER", "BOSTON", "DENVER", "MIAMI"};
    for (int d = 0; d < 5; ++d) {
      ASSERT_TRUE(db_->Execute("INSERT INTO DEPT VALUES (" +
                               std::to_string(d) + ", 'D" +
                               std::to_string(d) + "', '" + locs[d] + "')")
                      .ok());
    }
    // 30 employees: EMPNO i, DNO = i%5, SAL = 1000 + 100*i, MGR = i/3.
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(db_->Execute("INSERT INTO EMP VALUES (" +
                               std::to_string(i) + ", 'E" +
                               std::to_string(i) + "', " +
                               std::to_string(i % 5) + ", " +
                               std::to_string(1000 + 100 * i) + ", " +
                               std::to_string(i / 3) + ")")
                      .ok());
    }
    ASSERT_TRUE(db_->Execute("CREATE UNIQUE INDEX EMP_PK ON EMP (EMPNO)").ok());
    ASSERT_TRUE(db_->Execute("CREATE INDEX EMP_DNO ON EMP (DNO)").ok());
    ASSERT_TRUE(
        db_->Execute("CREATE UNIQUE INDEX DEPT_PK ON DEPT (DNO)").ok());
    ASSERT_TRUE(db_->Execute("UPDATE STATISTICS EMP").ok());
    ASSERT_TRUE(db_->Execute("UPDATE STATISTICS DEPT").ok());
  }

  QueryResult Q(const std::string& sql) {
    auto result = db_->Query(sql);
    EXPECT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(E2eTest, SelectAllRows) {
  QueryResult r = Q("SELECT EMPNO FROM EMP");
  EXPECT_EQ(r.rows.size(), 30u);
}

TEST_F(E2eTest, EqualityFilter) {
  QueryResult r = Q("SELECT NAME FROM EMP WHERE EMPNO = 7");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsStr(), "E7");
}

TEST_F(E2eTest, RangeAndArithmetic) {
  QueryResult r = Q("SELECT EMPNO, SAL + 10 FROM EMP WHERE SAL > 3500");
  // SAL > 3500 → 1000+100i > 3500 → i >= 26 → 4 rows.
  ASSERT_EQ(r.rows.size(), 4u);
  for (const Row& row : r.rows) {
    EXPECT_EQ(row[1].AsInt(), 1000 + 100 * row[0].AsInt() + 10);
  }
}

TEST_F(E2eTest, BetweenInListOrNot) {
  EXPECT_EQ(Q("SELECT EMPNO FROM EMP WHERE EMPNO BETWEEN 5 AND 9").rows.size(),
            5u);
  EXPECT_EQ(Q("SELECT EMPNO FROM EMP WHERE DNO IN (1, 3)").rows.size(), 12u);
  EXPECT_EQ(Q("SELECT EMPNO FROM EMP WHERE DNO = 1 OR DNO = 3").rows.size(),
            12u);
  EXPECT_EQ(Q("SELECT EMPNO FROM EMP WHERE NOT DNO = 0").rows.size(), 24u);
  EXPECT_EQ(Q("SELECT EMPNO FROM EMP WHERE EMPNO NOT IN (1,2,3)").rows.size(),
            27u);
}

TEST_F(E2eTest, OrderByAscDesc) {
  QueryResult r = Q("SELECT EMPNO FROM EMP WHERE DNO = 2 ORDER BY SAL DESC");
  ASSERT_EQ(r.rows.size(), 6u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_GT(r.rows[i - 1][0].AsInt(), r.rows[i][0].AsInt());
  }
}

TEST_F(E2eTest, TwoWayJoin) {
  QueryResult r = Q(
      "SELECT NAME, DNAME FROM EMP, DEPT "
      "WHERE EMP.DNO = DEPT.DNO AND LOC = 'DENVER' ORDER BY NAME");
  // Departments 1 and 3: employees i with i%5 in {1,3} → 12 rows.
  ASSERT_EQ(r.rows.size(), 12u);
  for (const Row& row : r.rows) {
    std::string dname = row[1].AsStr();
    EXPECT_TRUE(dname == "D1" || dname == "D3");
  }
  EXPECT_TRUE(std::is_sorted(r.rows.begin(), r.rows.end(),
                             [](const Row& a, const Row& b) {
                               return a[0].AsStr() < b[0].AsStr();
                             }));
}

TEST_F(E2eTest, SelfJoin) {
  // Each employee with their manager's salary; MGR = i/3 is an EMPNO.
  QueryResult r = Q(
      "SELECT X.EMPNO, Y.SAL FROM EMP X, EMP Y WHERE X.MGR = Y.EMPNO");
  ASSERT_EQ(r.rows.size(), 30u);
  for (const Row& row : r.rows) {
    int64_t i = row[0].AsInt();
    EXPECT_EQ(row[1].AsInt(), 1000 + 100 * (i / 3));
  }
}

TEST_F(E2eTest, ThreeWayJoinCountsMatch) {
  QueryResult r = Q(
      "SELECT X.EMPNO FROM EMP X, EMP Y, DEPT "
      "WHERE X.MGR = Y.EMPNO AND Y.DNO = DEPT.DNO AND LOC = 'DENVER'");
  // Manager's dept in Denver: MGR = i/3, dept (i/3)%5 in {1,3}.
  size_t expect = 0;
  for (int i = 0; i < 30; ++i) {
    int d = (i / 3) % 5;
    if (d == 1 || d == 3) ++expect;
  }
  EXPECT_EQ(r.rows.size(), expect);
}

TEST_F(E2eTest, ScalarAggregates) {
  QueryResult r = Q("SELECT COUNT(*), MIN(SAL), MAX(SAL), AVG(SAL), SUM(DNO) "
                    "FROM EMP");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 30);
  EXPECT_EQ(r.rows[0][1].AsInt(), 1000);
  EXPECT_EQ(r.rows[0][2].AsInt(), 3900);
  EXPECT_DOUBLE_EQ(r.rows[0][3].AsReal(), (1000 + 3900) / 2.0);
  EXPECT_EQ(r.rows[0][4].AsInt(), 60);  // 6 * (0+1+2+3+4).
}

TEST_F(E2eTest, GroupBy) {
  QueryResult r =
      Q("SELECT DNO, COUNT(*), AVG(SAL) FROM EMP GROUP BY DNO ORDER BY DNO");
  ASSERT_EQ(r.rows.size(), 5u);
  for (int d = 0; d < 5; ++d) {
    EXPECT_EQ(r.rows[d][0].AsInt(), d);
    EXPECT_EQ(r.rows[d][1].AsInt(), 6);
    // Employees d, d+5, ..., d+25 → mean salary 1000 + 100*(d + 12.5).
    EXPECT_DOUBLE_EQ(r.rows[d][2].AsReal(), 1000 + 100 * (d + 12.5));
  }
}

TEST_F(E2eTest, GroupByWithWhere) {
  QueryResult r = Q(
      "SELECT DNO, COUNT(*) FROM EMP WHERE SAL >= 2000 GROUP BY DNO "
      "ORDER BY DNO");
  // i >= 10: employees 10..29, 4 per department.
  ASSERT_EQ(r.rows.size(), 5u);
  for (const Row& row : r.rows) EXPECT_EQ(row[1].AsInt(), 4);
}

TEST_F(E2eTest, ScalarAggregateOnEmptyInput) {
  QueryResult r = Q("SELECT COUNT(*), MAX(SAL) FROM EMP WHERE SAL > 99999");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(E2eTest, UncorrelatedScalarSubquery) {
  QueryResult r = Q(
      "SELECT EMPNO FROM EMP WHERE SAL > (SELECT AVG(SAL) FROM EMP)");
  // AVG = 2450 → SAL > 2450 → i >= 15 → 15 rows.
  EXPECT_EQ(r.rows.size(), 15u);
}

TEST_F(E2eTest, InSubquery) {
  QueryResult r = Q(
      "SELECT EMPNO FROM EMP WHERE DNO IN "
      "(SELECT DNO FROM DEPT WHERE LOC = 'DENVER')");
  EXPECT_EQ(r.rows.size(), 12u);
}

TEST_F(E2eTest, CorrelatedSubquery) {
  // The paper's example: employees earning more than their manager.
  QueryResult r = Q(
      "SELECT X.NAME FROM EMP X WHERE X.SAL > "
      "(SELECT SAL FROM EMP WHERE EMPNO = X.MGR)");
  size_t expect = 0;
  for (int i = 0; i < 30; ++i) {
    if (1000 + 100 * i > 1000 + 100 * (i / 3)) ++expect;
  }
  EXPECT_EQ(r.rows.size(), expect);
}

TEST_F(E2eTest, TwoLevelCorrelatedSubquery) {
  // §6's level-3 example: employees earning more than their manager's
  // manager.
  QueryResult r = Q(
      "SELECT X.NAME FROM EMP X WHERE X.SAL > "
      "(SELECT SAL FROM EMP WHERE EMPNO = "
      "(SELECT MGR FROM EMP WHERE EMPNO = X.MGR))");
  size_t expect = 0;
  for (int i = 0; i < 30; ++i) {
    int mgr2 = (i / 3) / 3;
    if (1000 + 100 * i > 1000 + 100 * mgr2) ++expect;
  }
  EXPECT_EQ(r.rows.size(), expect);
}

TEST_F(E2eTest, IsNullAndNullHandling) {
  ASSERT_TRUE(db_->Execute("INSERT INTO EMP VALUES (99, 'NULLDEPT', NULL, "
                           "500, 0)").ok());
  EXPECT_EQ(Q("SELECT EMPNO FROM EMP WHERE DNO IS NULL").rows.size(), 1u);
  EXPECT_EQ(Q("SELECT EMPNO FROM EMP WHERE DNO IS NOT NULL").rows.size(),
            30u);
  // NULL never joins.
  QueryResult r = Q(
      "SELECT NAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO");
  EXPECT_EQ(r.rows.size(), 30u);
}

TEST_F(E2eTest, MeteringReportsWork) {
  // Drop buffer residency so the query actually faults pages in.
  db_->rss().pool().FlushAll();
  QueryResult r = Q("SELECT NAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO");
  EXPECT_GT(r.stats.rsi_calls, 0u);
  EXPECT_GT(r.stats.page_fetches, 0u);
  EXPECT_GT(r.actual_cost, 0.0);
}

TEST_F(E2eTest, ExplainProducesTree) {
  auto plan = db_->Explain(
      "SELECT NAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Project"), std::string::npos);
  EXPECT_NE(plan->find("Join"), std::string::npos);
  // Every entry point plans an EXPLAIN, so one the optimizer rejects fails
  // through each of them.
  const std::string bad = "EXPLAIN SELECT DISTINCT NAME FROM EMP ORDER BY SAL";
  EXPECT_FALSE(db_->Explain(bad).ok());
  EXPECT_FALSE(db_->Execute(bad).ok());
  EXPECT_FALSE(db_->ExecuteScript(bad + ";").ok());
}

TEST_F(E2eTest, ResultToStringRenders) {
  QueryResult r = Q("SELECT EMPNO, NAME FROM EMP WHERE EMPNO < 2");
  std::string s = r.ToString();
  EXPECT_NE(s.find("EMPNO"), std::string::npos);
  EXPECT_NE(s.find("'E0'"), std::string::npos);
}

TEST_F(E2eTest, BaselinesProduceSameRows) {
  const std::string sql =
      "SELECT NAME, DNAME FROM EMP, DEPT "
      "WHERE EMP.DNO = DEPT.DNO AND LOC = 'DENVER' AND SAL > 1500";
  auto dp = db_->Prepare(sql);
  ASSERT_TRUE(dp.ok());
  auto dp_rows = db_->Run(*dp);
  ASSERT_TRUE(dp_rows.ok());
  for (BaselineKind kind :
       {BaselineKind::kSyntacticNestedLoop, BaselineKind::kGreedy}) {
    auto base = db_->PrepareBaseline(sql, kind);
    ASSERT_TRUE(base.ok()) << BaselineName(kind);
    auto base_rows = db_->Run(*base);
    ASSERT_TRUE(base_rows.ok());
    auto key = [](const Row& r) {
      return r[0].ToString() + "|" + r[1].ToString();
    };
    std::multiset<std::string> a, b;
    for (const Row& r : dp_rows->rows) a.insert(key(r));
    for (const Row& r : base_rows->rows) b.insert(key(r));
    EXPECT_EQ(a, b) << BaselineName(kind);
    // The DP optimizer's estimate is never worse.
    EXPECT_LE(dp->est_cost, base->est_cost + 1e-6) << BaselineName(kind);
  }
}

}  // namespace
}  // namespace systemr
