// HAVING, SELECT DISTINCT, and LIKE (including the prefix-pattern
// sargability that turns LIKE 'ABC%' into index bounds).
#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "exec/expr_program.h"

namespace systemr {
namespace {

class FeaturesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(64);
    ASSERT_TRUE(db_->ExecuteScript(R"(
      CREATE TABLE EMP (EMPNO INT, NAME STRING, DNO INT, SAL INT);
    )").ok());
    const char* names[] = {"ADAMS", "ADLER", "BAKER", "BATES", "CLARK",
                           "COLES", "DIAZ",  "DUNN",  "EVANS", "ELLIS"};
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db_->Execute("INSERT INTO EMP VALUES (" +
                               std::to_string(i) + ", '" +
                               names[i % 10] + "', " +
                               std::to_string(i % 5) + ", " +
                               std::to_string(1000 + 10 * (i % 20)) + ")")
                      .ok());
    }
    ASSERT_TRUE(db_->Execute("CREATE INDEX EMP_NAME ON EMP (NAME)").ok());
    ASSERT_TRUE(db_->Execute("UPDATE STATISTICS EMP").ok());
  }

  QueryResult Q(const std::string& sql) {
    auto r = db_->Query(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? std::move(*r) : QueryResult{};
  }

  std::unique_ptr<Database> db_;
};

// --- HAVING ---

TEST_F(FeaturesTest, HavingFiltersGroups) {
  // Each DNO has 20 rows; SAL sums differ per department.
  QueryResult r = Q(
      "SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO "
      "HAVING COUNT(*) > 10 ORDER BY DNO");
  EXPECT_EQ(r.rows.size(), 5u) << "all departments have 20 rows";
  QueryResult none = Q(
      "SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO HAVING COUNT(*) > 100");
  EXPECT_EQ(none.rows.size(), 0u);
}

TEST_F(FeaturesTest, HavingOnAggregateValue) {
  QueryResult r = Q(
      "SELECT DNO, AVG(SAL) FROM EMP WHERE EMPNO < 50 GROUP BY DNO "
      "HAVING AVG(SAL) > 1090 ORDER BY DNO");
  // Verify against manual recomputation.
  double sums[5] = {0};
  int counts[5] = {0};
  for (int i = 0; i < 50; ++i) {
    sums[i % 5] += 1000 + 10 * (i % 20);
    ++counts[i % 5];
  }
  size_t expect = 0;
  for (int d = 0; d < 5; ++d) {
    if (sums[d] / counts[d] > 1090) ++expect;
  }
  EXPECT_EQ(r.rows.size(), expect);
}

TEST_F(FeaturesTest, HavingOnScalarAggregate) {
  EXPECT_EQ(Q("SELECT COUNT(*) FROM EMP HAVING COUNT(*) > 50").rows.size(),
            1u);
  EXPECT_EQ(Q("SELECT COUNT(*) FROM EMP HAVING COUNT(*) > 500").rows.size(),
            0u);
}

TEST_F(FeaturesTest, HavingWithoutAggregatesRejected) {
  EXPECT_FALSE(db_->Query("SELECT NAME FROM EMP HAVING NAME = 'X'").ok());
}

// --- DISTINCT ---

TEST_F(FeaturesTest, DistinctRemovesDuplicates) {
  QueryResult r = Q("SELECT DISTINCT DNO FROM EMP");
  EXPECT_EQ(r.rows.size(), 5u);
  std::set<int64_t> seen;
  for (const Row& row : r.rows) seen.insert(row[0].AsInt());
  EXPECT_EQ(seen.size(), 5u);
}

TEST_F(FeaturesTest, DistinctMultiColumn) {
  QueryResult r = Q("SELECT DISTINCT DNO, SAL FROM EMP");
  // (i%5, 1000+10*(i%20)): i%20 determines both → 20 distinct pairs.
  EXPECT_EQ(r.rows.size(), 20u);
}

TEST_F(FeaturesTest, DistinctWithOrderBy) {
  QueryResult r = Q("SELECT DISTINCT DNO FROM EMP ORDER BY DNO DESC");
  ASSERT_EQ(r.rows.size(), 5u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_GT(r.rows[i - 1][0].AsInt(), r.rows[i][0].AsInt());
  }
}

TEST_F(FeaturesTest, DistinctOrderByMustBeSelected) {
  EXPECT_FALSE(db_->Query("SELECT DISTINCT DNO FROM EMP ORDER BY SAL").ok());
}

// --- LIKE ---

TEST_F(FeaturesTest, LikeBasicPatterns) {
  EXPECT_EQ(Q("SELECT EMPNO FROM EMP WHERE NAME LIKE 'AD%'").rows.size(),
            20u);  // ADAMS + ADLER.
  EXPECT_EQ(Q("SELECT EMPNO FROM EMP WHERE NAME LIKE '%S'").rows.size(),
            50u);  // ADAMS, BATES, COLES, EVANS, ELLIS end in S: 5 * 10.
  EXPECT_EQ(Q("SELECT EMPNO FROM EMP WHERE NAME LIKE 'D_AZ'").rows.size(),
            10u);  // DIAZ.
  EXPECT_EQ(Q("SELECT EMPNO FROM EMP WHERE NAME LIKE '%'").rows.size(), 100u);
  EXPECT_EQ(Q("SELECT EMPNO FROM EMP WHERE NAME NOT LIKE 'A%'").rows.size(),
            80u);
}

TEST_F(FeaturesTest, LikeCountsMatchManualCheck) {
  // '%S': ADAMS, BATES, COLES, EVANS, ELLIS end in S → 5 names * 10 = 50?
  // Recompute precisely instead of guessing.
  const char* names[] = {"ADAMS", "ADLER", "BAKER", "BATES", "CLARK",
                         "COLES", "DIAZ",  "DUNN",  "EVANS", "ELLIS"};
  size_t expect = 0;
  for (const char* n : names) {
    std::string s = n;
    if (!s.empty() && s.back() == 'S') expect += 10;
  }
  EXPECT_EQ(Q("SELECT EMPNO FROM EMP WHERE NAME LIKE '%S'").rows.size(),
            expect);
}

TEST_F(FeaturesTest, PrefixLikeUsesIndexBounds) {
  auto plan = db_->Explain("SELECT EMPNO FROM EMP WHERE NAME LIKE 'AD%'");
  ASSERT_TRUE(plan.ok());
  // The prefix pattern becomes a range on the NAME index: [AD, AE).
  EXPECT_NE(plan->find("EMP_NAME"), std::string::npos) << *plan;
  EXPECT_NE(plan->find(">='AD'"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("<'AE'"), std::string::npos) << *plan;
}

TEST_F(FeaturesTest, InnerWildcardLikeStaysResidual) {
  auto plan = db_->Explain("SELECT EMPNO FROM EMP WHERE NAME LIKE 'A%S'");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("LIKE"), std::string::npos) << *plan;
  // Still answers correctly: ADAMS only.
  EXPECT_EQ(Q("SELECT EMPNO FROM EMP WHERE NAME LIKE 'A%S'").rows.size(),
            10u);
}

// Regression: the matcher must stay iterative. The recursive formulation
// backtracked exponentially on repeated-wildcard patterns, so a pattern like
// '%a%a%a%a%a' against a long all-'a' subject that fails only at the last
// literal would effectively hang.
TEST(LikeMatchTest, PathologicalPatternFinishesInstantly) {
  std::string subject(20000, 'a');
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(LikeMatch(subject, "%a%a%a%a%a%a%a%a%a%ab"));
  EXPECT_TRUE(LikeMatch(subject, "%a%a%a%a%a"));
  EXPECT_TRUE(LikeMatch(subject, "%a%a%a%a%a%"));
  EXPECT_FALSE(LikeMatch(subject + "b", "%a%a%a%a%a"));
  EXPECT_TRUE(LikeMatch(subject + "b", "%a%a%a%a%ab"));
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  // The iterative two-pointer matcher is O(subject * pattern); these five
  // calls are microseconds. Give three orders of magnitude of slack.
  EXPECT_LT(ms, 1000.0);
}

// An aggregate leaf compiled without a slot (the binder keeps aggregates
// out of every such program) fails cleanly with kInternal when evaluated.
TEST_F(FeaturesTest, AggregateLeafWithoutSlotIsInternalError) {
  auto prepared = db_->Prepare("SELECT SUM(SAL) + 1 FROM EMP");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ExprProgram program;
  program.CompileExpr(prepared->block->select_list[0].get());
  Row row(prepared->block->row_width);
  Value v;
  EXPECT_EQ(program.EvalValue(nullptr, row, &v).code(), StatusCode::kInternal);
  bool b = false;
  EXPECT_EQ(program.EvalBool(nullptr, row, &b).code(), StatusCode::kInternal);
}

// A bare column reference is copied without running the interpreter, but
// it keeps the interpreter's bounds check.
TEST_F(FeaturesTest, BareColumnOnAShortRowIsInternalError) {
  auto prepared = db_->Prepare("SELECT SAL FROM EMP");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ExprProgram program;
  program.CompileExpr(prepared->block->select_list[0].get());
  Row row(prepared->block->row_width);
  Value v;
  ASSERT_TRUE(program.EvalValue(nullptr, row, &v).ok());
  Row short_row;
  Status s = program.EvalValue(nullptr, short_row, &v);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(s.message(), "column offset out of range");
}

TEST_F(FeaturesTest, LikeTypeChecked) {
  EXPECT_FALSE(db_->Query("SELECT EMPNO FROM EMP WHERE SAL LIKE '1%'").ok());
}

// Combined: DISTINCT + HAVING + LIKE in one statement.
TEST_F(FeaturesTest, CombinedFeatures) {
  QueryResult r = Q(
      "SELECT DISTINCT NAME, COUNT(*) FROM EMP WHERE NAME LIKE '%S' "
      "GROUP BY NAME HAVING COUNT(*) >= 10 ORDER BY NAME");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].AsStr(), "ADAMS");
  for (const Row& row : r.rows) EXPECT_EQ(row[1].AsInt(), 10);
}

// --- Expressions over aggregate values ---
//
// SELECT items and HAVING clauses of any expression kind over aggregates,
// under sorted aggregation (hash join, and so hash aggregation, disabled)
// and hash aggregation (forced). Expected rows are computed by hand from
// the eight rows below; results are compared as sorted "a|b" strings.
class AggExprTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(64);
    // Hash join alone forces hash aggregation; without it, sorted.
    db_->options().join.enable_nested_loop = !GetParam();
    db_->options().join.enable_merge_join = !GetParam();
    db_->options().join.enable_hash_join = GetParam();
    // Groups by A: 1 -> B {10, 20}, S {xa, ya}; 2 -> B {NULL}, S {xb};
    // 3 -> B {5, 6, 7}, S {zz, yb, xc}; 4 -> B {NULL, NULL}, S {ya, yc}.
    ASSERT_TRUE(db_->ExecuteScript(R"(
      CREATE TABLE G (A INT, B INT, S STRING);
      INSERT INTO G VALUES (1, 10, 'xa');
      INSERT INTO G VALUES (1, 20, 'ya');
      INSERT INTO G VALUES (2, NULL, 'xb');
      INSERT INTO G VALUES (3, 5, 'zz');
      INSERT INTO G VALUES (3, 6, 'yb');
      INSERT INTO G VALUES (3, 7, 'xc');
      INSERT INTO G VALUES (4, NULL, 'ya');
      INSERT INTO G VALUES (4, NULL, 'yc');
      UPDATE STATISTICS G;
    )").ok());
  }

  // Rows as sorted "v1|v2|..." strings. For a grouped statement without
  // subqueries, also checks its plan uses the aggregation method under test.
  std::vector<std::string> Rows(const std::string& sql) {
    if (sql.find("GROUP BY") != std::string::npos &&
        sql.find("(SELECT") == std::string::npos) {
      auto plan = db_->Explain(sql);
      EXPECT_TRUE(plan.ok()) << sql;
      if (plan.ok()) {
        EXPECT_EQ(plan->find("HashAggregate") != std::string::npos,
                  GetParam())
            << sql << "\n" << *plan;
      }
    }
    auto r = db_->Query(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    std::vector<std::string> out;
    if (!r.ok()) return out;
    for (const Row& row : r->rows) {
      std::string s;
      for (size_t i = 0; i < row.size(); ++i) {
        s += (i > 0 ? "|" : "") + row[i].ToString();
      }
      out.push_back(s);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  using Strings = std::vector<std::string>;
  std::unique_ptr<Database> db_;
};

TEST_P(AggExprTest, HavingIsNullOverAggregate) {
  EXPECT_EQ(Rows("SELECT A, COUNT(*) FROM G GROUP BY A HAVING MAX(B) IS NULL"),
            (Strings{"2|1", "4|2"}));
}

TEST_P(AggExprTest, HavingInListOverAggregate) {
  EXPECT_EQ(
      Rows("SELECT A, COUNT(*) FROM G GROUP BY A HAVING COUNT(*) IN (2, 3)"),
      (Strings{"1|2", "3|3", "4|2"}));
}

TEST_P(AggExprTest, HavingLikeOverAggregate) {
  EXPECT_EQ(
      Rows("SELECT A, MIN(S) FROM G GROUP BY A HAVING MIN(S) LIKE 'x%'"),
      (Strings{"1|'xa'", "2|'xb'", "3|'xc'"}));
}

TEST_P(AggExprTest, HavingConjunctionWithLike) {
  EXPECT_EQ(Rows("SELECT A, MAX(S) FROM G GROUP BY A "
                 "HAVING COUNT(*) > 1 AND MAX(S) LIKE 'y%'"),
            (Strings{"1|'ya'", "4|'yc'"}));
}

TEST_P(AggExprTest, SelectArithmeticMixesAggregateAndGroupColumn) {
  EXPECT_EQ(Rows("SELECT A, SUM(B) + A FROM G GROUP BY A"),
            (Strings{"1|31", "2|NULL", "3|21", "4|NULL"}));
}

TEST_P(AggExprTest, ScalarAggregateOverEmptyInputWithHaving) {
  EXPECT_EQ(Rows("SELECT COUNT(*), MAX(B) FROM G WHERE A > 100 "
                 "HAVING COUNT(*) = 0"),
            (Strings{"0|NULL"}));
  EXPECT_EQ(Rows("SELECT COUNT(*), MAX(B) FROM G WHERE A > 100 "
                 "HAVING MAX(B) > 0"),
            (Strings{}));
  EXPECT_EQ(Rows("SELECT COUNT(*), MAX(B) FROM G WHERE A > 100 "
                 "HAVING MAX(B) IS NULL"),
            (Strings{"0|NULL"}));
}

// A subquery whose HAVING references the outer row is re-evaluated per
// outer value: the §6 result cache is keyed on HAVING's outer references
// too. Per outer A: groups with COUNT(*) >= A are {1,2,3,4} for A = 1,
// {1,3,4} for 2, {3} for 3 and none for 4.
TEST_P(AggExprTest, CorrelatedHavingInSubquery) {
  EXPECT_EQ(Rows("SELECT F.A FROM G F WHERE F.A IN "
                 "(SELECT H.A FROM G H GROUP BY H.A HAVING COUNT(*) >= F.A)"),
            (Strings{"1", "1", "3", "3", "3"}));
}

INSTANTIATE_TEST_SUITE_P(Method, AggExprTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Hash"
                                                         : "Sorted");
                         });

}  // namespace
}  // namespace systemr
