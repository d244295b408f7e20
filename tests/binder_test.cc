#include "sql/binder.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace systemr {
namespace {

class BinderTest : public ::testing::Test {
 protected:
  BinderTest() : rss_(64), catalog_(&rss_) {
    Schema emp({{"NAME", ValueType::kString},
                {"DNO", ValueType::kInt64},
                {"JOB", ValueType::kInt64},
                {"SAL", ValueType::kInt64}});
    Schema dept({{"DNO", ValueType::kInt64},
                 {"DNAME", ValueType::kString},
                 {"LOC", ValueType::kString}});
    EXPECT_TRUE(catalog_.CreateTable("EMP", emp).ok());
    EXPECT_TRUE(catalog_.CreateTable("DEPT", dept).ok());
  }

  StatusOr<std::unique_ptr<BoundQueryBlock>> Bind(const std::string& sql) {
    auto stmt = Parse(sql);
    if (!stmt.ok()) return stmt.status();
    Binder binder(&catalog_);
    return binder.Bind(*stmt->select);
  }

  Rss rss_;
  Catalog catalog_;
};

TEST_F(BinderTest, ResolvesColumnsAndOffsets) {
  auto block = Bind("SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO=DEPT.DNO");
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  const BoundQueryBlock& b = **block;
  EXPECT_EQ(b.row_width, 7u);
  EXPECT_EQ(b.tables[0].offset, 0u);
  EXPECT_EQ(b.tables[1].offset, 4u);
  // NAME is EMP column 0; DNAME is DEPT column 1 → offset 5.
  EXPECT_EQ(b.select_list[0]->offset, 0u);
  EXPECT_EQ(b.select_list[1]->offset, 5u);
  EXPECT_EQ(b.select_names[1], "DNAME");
}

TEST_F(BinderTest, UnqualifiedUniqueColumnsResolve) {
  auto block = Bind("SELECT NAME, LOC FROM EMP, DEPT");
  ASSERT_TRUE(block.ok());
}

TEST_F(BinderTest, AmbiguousColumnRejected) {
  auto block = Bind("SELECT DNO FROM EMP, DEPT");
  EXPECT_FALSE(block.ok());
}

TEST_F(BinderTest, UnknownTableAndColumn) {
  EXPECT_FALSE(Bind("SELECT A FROM NOPE").ok());
  EXPECT_FALSE(Bind("SELECT NOPE FROM EMP").ok());
  EXPECT_FALSE(Bind("SELECT EMP.NOPE FROM EMP").ok());
}

TEST_F(BinderTest, TypeChecking) {
  EXPECT_FALSE(Bind("SELECT NAME FROM EMP WHERE NAME > 5").ok())
      << "string vs int comparison";
  EXPECT_FALSE(Bind("SELECT NAME FROM EMP WHERE NAME + 1 = 2").ok())
      << "arithmetic on string";
  EXPECT_TRUE(Bind("SELECT NAME FROM EMP WHERE SAL > 5").ok());
  EXPECT_TRUE(Bind("SELECT NAME FROM EMP WHERE SAL + DNO > 5").ok());
}

TEST_F(BinderTest, DuplicateCorrelationRejected) {
  EXPECT_FALSE(Bind("SELECT X.NAME FROM EMP X, DEPT X").ok());
}

TEST_F(BinderTest, SelfJoinWithCorrelations) {
  auto block = Bind("SELECT X.NAME FROM EMP X, EMP Y WHERE X.SAL > Y.SAL");
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ((*block)->tables.size(), 2u);
  EXPECT_EQ((*block)->row_width, 8u);
}

// Bind only: planning a 20-table block takes seconds. optimizer_test checks
// that larger blocks, nested ones included, fail in every planner.
TEST_F(BinderTest, FromListLimitedToMaxBlockRelations) {
  std::string sql = "SELECT E0.NAME FROM EMP E0";
  for (size_t i = 1; i < kMaxBlockRelations; ++i) {
    sql += ", EMP E" + std::to_string(i);
  }
  auto block = Bind(sql);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ((*block)->tables.size(), kMaxBlockRelations);
  sql += ", EMP E" + std::to_string(kMaxBlockRelations);
  EXPECT_EQ(Bind(sql).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BinderTest, SelectStar) {
  auto block = Bind("SELECT * FROM EMP");
  ASSERT_TRUE(block.ok());
  EXPECT_EQ((*block)->select_list.size(), 4u);
  EXPECT_EQ((*block)->select_names[0], "NAME");
}

TEST_F(BinderTest, AggregatesValidated) {
  EXPECT_TRUE(Bind("SELECT AVG(SAL) FROM EMP").ok());
  EXPECT_TRUE(Bind("SELECT DNO, AVG(SAL) FROM EMP GROUP BY DNO").ok());
  EXPECT_FALSE(Bind("SELECT NAME, AVG(SAL) FROM EMP").ok())
      << "non-grouped column with aggregate";
  EXPECT_FALSE(Bind("SELECT NAME FROM EMP GROUP BY DNO").ok())
      << "GROUP BY without aggregates";
  EXPECT_FALSE(Bind("SELECT NAME FROM EMP WHERE AVG(SAL) > 1").ok())
      << "aggregate in WHERE";
  EXPECT_FALSE(Bind("SELECT AVG(NAME) FROM EMP").ok())
      << "AVG of a string";
}

TEST_F(BinderTest, CorrelatedSubqueryLevels) {
  auto block = Bind(
      "SELECT X.NAME FROM EMP X WHERE X.SAL > "
      "(SELECT AVG(SAL) FROM EMP WHERE DNO = X.DNO)");
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  const BoundQueryBlock& b = **block;
  EXPECT_EQ(b.correlation_reach, 0) << "top block is not correlated";
  const BoundExpr& cmp = *b.where;
  ASSERT_EQ(cmp.kind, BoundExprKind::kCompare);
  const BoundQueryBlock& sub = *cmp.children[1]->subquery;
  EXPECT_EQ(sub.correlation_reach, 1) << "subquery references X";
  // The DNO = X.DNO comparison: X.DNO has outer_level 1.
  const BoundExpr& sw = *sub.where;
  EXPECT_EQ(sw.children[1]->outer_level, 1);
  EXPECT_EQ(sw.children[1]->offset, 1u) << "X.DNO offset in outer row";
}

TEST_F(BinderTest, UncorrelatedSubquery) {
  auto block = Bind(
      "SELECT NAME FROM EMP WHERE DNO IN "
      "(SELECT DNO FROM DEPT WHERE LOC = 'DENVER')");
  ASSERT_TRUE(block.ok());
  const BoundExpr& w = *(*block)->where;
  ASSERT_EQ(w.kind, BoundExprKind::kInSubquery);
  EXPECT_EQ(w.subquery->correlation_reach, 0);
}

TEST_F(BinderTest, InSubqueryArityChecked) {
  EXPECT_FALSE(
      Bind("SELECT NAME FROM EMP WHERE DNO IN (SELECT DNO, DNAME FROM DEPT)")
          .ok());
}

TEST_F(BinderTest, OrderByBinds) {
  auto block = Bind("SELECT NAME FROM EMP ORDER BY SAL DESC, EMP.DNO");
  ASSERT_TRUE(block.ok());
  ASSERT_EQ((*block)->order_by.size(), 2u);
  EXPECT_FALSE((*block)->order_by[0].asc);
  EXPECT_EQ((*block)->order_by[0].column, 3u);
  EXPECT_TRUE((*block)->order_by[1].asc);
}

}  // namespace
}  // namespace systemr
