// TABLE 1 selectivity factors, equi-depth histogram estimates, and
// boolean-factor extraction (CNF) tests.
#include "optimizer/selectivity.h"

#include <gtest/gtest.h>

#include "catalog/column_stats.h"
#include "db/database.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "workload/datagen.h"

namespace systemr {
namespace {

class SelectivityTest : public ::testing::Test {
 protected:
  SelectivityTest() : db_(256) {
    DataGen gen(&db_, 1);
    TableSpec t;
    t.name = "T";
    t.num_rows = 2000;
    t.columns = {{"K", ValueType::kInt64, 2000, 0, /*sequential=*/true},
                 {"A", ValueType::kInt64, 100, 0, false},  // Indexed.
                 {"B", ValueType::kInt64, 50, 0, false},   // Not indexed.
                 {"S", ValueType::kString, 20, 0, false}};
    t.indexes = {{"T_K", {"K"}, true, false}, {"T_A", {"A"}, false, false}};
    EXPECT_TRUE(gen.CreateAndLoad(t).ok());

    TableSpec u;
    u.name = "U";
    u.num_rows = 500;
    u.columns = {{"K", ValueType::kInt64, 500, 0, true},
                 {"A", ValueType::kInt64, 25, 0, false}};
    u.indexes = {{"U_A", {"A"}, false, false}};
    EXPECT_TRUE(gen.CreateAndLoad(u).ok());
  }

  // Binds the query and returns F of the first boolean factor, estimated
  // with or without the column histograms (CreateAndLoad ran UPDATE
  // STATISTICS, so T and U have them).
  double FactorF(const std::string& sql, bool use_column_stats) {
    auto stmt = Parse(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Binder binder(&db_.catalog());
    auto block = binder.Bind(*stmt->select);
    EXPECT_TRUE(block.ok()) << block.status().ToString();
    block_ = std::move(*block);
    auto factors = ExtractBooleanFactors(*block_);
    EXPECT_FALSE(factors.empty());
    SelectivityEstimator est(&db_.catalog(), block_.get(), use_column_stats);
    return est.FactorSelectivity(*factors[0].expr);
  }
  // The paper's Table 1 guesses: histograms ignored.
  double Table1F(const std::string& sql) { return FactorF(sql, false); }
  // The histogram-backed estimate.
  double HistF(const std::string& sql) { return FactorF(sql, true); }

  // Fraction of T's rows actually satisfying the predicate.
  double ActualFractionT(const std::string& where) {
    auto r = db_.Query("SELECT K FROM T WHERE " + where);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return static_cast<double>(r->rows.size()) / 2000.0;
  }

  Database db_;
  std::unique_ptr<BoundQueryBlock> block_;
};

// Table 1 row: column = value, F = 1/ICARD with an index.
TEST_F(SelectivityTest, EqWithIndex) {
  EXPECT_NEAR(Table1F("SELECT K FROM T WHERE A = 5"), 1.0 / 100, 1e-9);
}

// Table 1: F = 1/10 without an index.
TEST_F(SelectivityTest, EqWithoutIndex) {
  EXPECT_DOUBLE_EQ(Table1F("SELECT K FROM T WHERE B = 5"), 0.1);
}

// Table 1: col1 = col2 with indexes on both → 1/max(ICARDs).
TEST_F(SelectivityTest, ColEqColBothIndexed) {
  EXPECT_NEAR(Table1F("SELECT T.K FROM T, U WHERE T.A = U.A"),
              1.0 / 100, 1e-9);
}

// col1 = col2 with one index → 1/ICARD of that index.
TEST_F(SelectivityTest, ColEqColOneIndexed) {
  EXPECT_NEAR(Table1F("SELECT T.K FROM T, U WHERE T.B = U.A"),
              1.0 / 25, 1e-9);
}

// col1 = col2 with no index → 1/10.
TEST_F(SelectivityTest, ColEqColNoIndex) {
  EXPECT_DOUBLE_EQ(Table1F("SELECT T.K FROM T, U WHERE T.B = U.K"),
                   0.1) << "neither B nor U.K is indexed";
  EXPECT_DOUBLE_EQ(Table1F("SELECT X.K FROM T X, T Y WHERE X.B = Y.B"),
                   0.1);
}

// Range with interpolation: A uniform on [0,99], A > 49 → about half.
TEST_F(SelectivityTest, RangeInterpolation) {
  double f = Table1F("SELECT K FROM T WHERE A > 49");
  EXPECT_NEAR(f, 0.5, 0.05);
  double g = Table1F("SELECT K FROM T WHERE A < 25");
  EXPECT_NEAR(g, 0.25, 0.05);
}

// Range without stats basis → 1/3.
TEST_F(SelectivityTest, RangeDefault) {
  EXPECT_DOUBLE_EQ(Table1F("SELECT K FROM T WHERE B > 10"), 1.0 / 3);
  EXPECT_DOUBLE_EQ(Table1F("SELECT K FROM T WHERE S > 'M'"), 1.0 / 3)
      << "non-arithmetic column";
}

// BETWEEN with interpolation and default.
TEST_F(SelectivityTest, Between) {
  double f = Table1F("SELECT K FROM T WHERE A BETWEEN 10 AND 29");
  EXPECT_NEAR(f, 19.0 / 99.0, 0.03);
  EXPECT_DOUBLE_EQ(
      Table1F("SELECT K FROM T WHERE B BETWEEN 10 AND 20"), 0.25);
}

// IN list: n * F(eq), capped at 1/2.
TEST_F(SelectivityTest, InList) {
  EXPECT_NEAR(Table1F("SELECT K FROM T WHERE A IN (1,2,3)"), 3.0 / 100,
              1e-9);
  EXPECT_DOUBLE_EQ(
      Table1F("SELECT K FROM T WHERE B IN (1,2,3,4,5,6,7,8)"), 0.5)
      << "8 * 1/10 capped at 1/2";
}

// OR / AND / NOT combinators.
TEST_F(SelectivityTest, BooleanCombinators) {
  double f_or = Table1F("SELECT K FROM T WHERE B = 1 OR B = 2");
  EXPECT_NEAR(f_or, 0.1 + 0.1 - 0.01, 1e-9);
  double f_not = Table1F("SELECT K FROM T WHERE NOT B = 1");
  EXPECT_NEAR(f_not, 0.9, 1e-9);
}

// AND inside one boolean factor (parenthesized OR of ANDs).
TEST_F(SelectivityTest, NestedAndInsideOr) {
  double f =
      Table1F("SELECT K FROM T WHERE (B = 1 AND B = 2) OR B = 3");
  EXPECT_NEAR(f, 0.01 + 0.1 - 0.001, 1e-9);
}

// IN subquery: QCARD(sub) / product of subquery FROM cardinalities.
TEST_F(SelectivityTest, InSubquery) {
  double f = Table1F(
      "SELECT K FROM T WHERE A IN (SELECT A FROM U WHERE U.A = 3)");
  // Subquery QCARD = 500 * (1/25); denominator = 500 → F = 1/25.
  EXPECT_NEAR(f, 1.0 / 25, 1e-9);
}

// Scalar-subquery comparison: value unknown at compile time → defaults.
TEST_F(SelectivityTest, ScalarSubqueryComparison) {
  double f = Table1F(
      "SELECT K FROM T WHERE A = (SELECT MIN(A) FROM U)");
  EXPECT_NEAR(f, 1.0 / 100, 1e-9) << "eq uses 1/ICARD even if value unknown";
  double g = Table1F(
      "SELECT K FROM T WHERE B > (SELECT MIN(A) FROM U)");
  EXPECT_DOUBLE_EQ(g, 1.0 / 3);
}

// --- Histogram-backed estimates (UPDATE STATISTICS ran on T and U) ---

// The histogram estimate for an unindexed equality tracks the data, not the
// 1/10 guess: B is uniform on [0,50), so B = 5 matches about 1/50 of rows.
TEST_F(SelectivityTest, HistogramEqMatchesData) {
  double actual = ActualFractionT("B = 5");
  EXPECT_NEAR(HistF("SELECT K FROM T WHERE B = 5"), actual, 0.015);
  EXPECT_GT(actual, 0.0);
  // The Table 1 guess is 5x off here; the histogram must not be.
  EXPECT_LT(HistF("SELECT K FROM T WHERE B = 5"), 0.05);
}

// Range estimates on unindexed columns come from histogram mass, within the
// ~1/32 bucket resolution.
TEST_F(SelectivityTest, HistogramRangeMatchesData) {
  EXPECT_NEAR(HistF("SELECT K FROM T WHERE B <= 24"),
              ActualFractionT("B <= 24"), 0.05);
  EXPECT_NEAR(HistF("SELECT K FROM T WHERE B > 40"),
              ActualFractionT("B > 40"), 0.05);
  EXPECT_NEAR(HistF("SELECT K FROM T WHERE B BETWEEN 10 AND 20"),
              ActualFractionT("B BETWEEN 10 AND 20"), 0.05);
}

// IN over distinct literals sums per-value mass (no 1/2 cap needed — the
// items cannot overlap).
TEST_F(SelectivityTest, HistogramInListSumsMass) {
  double f = HistF("SELECT K FROM T WHERE B IN (1,2,3,4,5,6,7,8)");
  EXPECT_NEAR(f, ActualFractionT("B IN (1,2,3,4,5,6,7,8)"), 0.05);
  EXPECT_LT(f, 0.3) << "8/50 of the rows, nowhere near the 1/2 cap";
}

// A literal outside the column's [min, max] range has (clamped) zero mass.
TEST_F(SelectivityTest, HistogramOutOfRangeLiteral) {
  EXPECT_LE(HistF("SELECT K FROM T WHERE B = 999"), 1e-8);
  EXPECT_LE(HistF("SELECT K FROM T WHERE B < -5"), 1e-8);
}

// `?` host variables have no value at optimize time: the estimator falls
// back to even spread over the observed distinct count.
TEST_F(SelectivityTest, HistogramParameterFallsBackToDistinct) {
  EXPECT_NEAR(HistF("SELECT K FROM T WHERE B = ?"), 1.0 / 50, 0.01);
}

// A table never analyzed keeps the paper's Table 1 guesses even with
// histograms globally enabled.
TEST_F(SelectivityTest, NoStatsFallsBackToTable1) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE V (X INT, Y INT)").ok());
  ASSERT_TRUE(
      db_.Execute("INSERT INTO V VALUES (1, 2), (3, 4), (5, 6)").ok());
  EXPECT_DOUBLE_EQ(HistF("SELECT X FROM V WHERE X = 1"), 0.1);
  EXPECT_DOUBLE_EQ(HistF("SELECT X FROM V WHERE X > 1"), 1.0 / 3);
  EXPECT_DOUBLE_EQ(HistF("SELECT X FROM V WHERE X BETWEEN 1 AND 3"), 0.25);
}

// --- BuildColumnStats unit tests ---

TEST(ColumnStatsTest, UniformColumn) {
  std::vector<Value> vals;
  for (int64_t i = 0; i < 1000; ++i) vals.push_back(Value::Int(i));
  ColumnStats s = BuildColumnStats(std::move(vals));
  ASSERT_TRUE(s.valid);
  EXPECT_EQ(s.nrows, 1000u);
  EXPECT_EQ(s.ndistinct, 1000u);
  EXPECT_EQ(s.nulls, 0u);
  EXPECT_LE(s.buckets.size(), kHistogramBuckets);
  EXPECT_EQ(s.min_value.Compare(Value::Int(0)), 0);
  EXPECT_EQ(s.max_value.Compare(Value::Int(999)), 0);
  // Each value holds exactly 1/1000 of the mass.
  EXPECT_NEAR(s.EqFraction(Value::Int(500)), 1.0 / 1000, 1e-3);
  // Cumulative fractions track the true CDF within bucket resolution.
  for (int64_t v : {0, 99, 499, 750, 999}) {
    double truth = static_cast<double>(v + 1) / 1000.0;
    EXPECT_NEAR(s.LeFraction(Value::Int(v), true), truth,
                1.0 / kHistogramBuckets)
        << "v = " << v;
  }
  EXPECT_DOUBLE_EQ(s.LeFraction(Value::Int(999), true), 1.0);
  EXPECT_EQ(s.EqFraction(Value::Int(-1)), 0.0);
  EXPECT_EQ(s.EqFraction(Value::Int(1000)), 0.0);
}

TEST(ColumnStatsTest, ZipfHeavyHitter) {
  // One value holds 90% of the rows; the tail is uniform.
  std::vector<Value> vals;
  for (int i = 0; i < 900; ++i) vals.push_back(Value::Int(0));
  for (int64_t i = 1; i <= 100; ++i) vals.push_back(Value::Int(i));
  ColumnStats s = BuildColumnStats(std::move(vals));
  ASSERT_TRUE(s.valid);
  EXPECT_EQ(s.ndistinct, 101u);
  // Bucket boundaries land on value changes, so the heavy value's mass is
  // captured exactly — not smeared by even-spread assumptions.
  EXPECT_NEAR(s.EqFraction(Value::Int(0)), 0.9, 1e-9);
  // Tail values: ~1/1000 each, bounded by the depth of one bucket.
  EXPECT_NEAR(s.EqFraction(Value::Int(50)), 1.0 / 1000, 32.0 / 1000);
  EXPECT_NEAR(s.LeFraction(Value::Int(0), true), 0.9, 1e-9);
}

TEST(ColumnStatsTest, AllDuplicates) {
  std::vector<Value> vals(500, Value::Int(7));
  ColumnStats s = BuildColumnStats(std::move(vals));
  ASSERT_TRUE(s.valid);
  EXPECT_EQ(s.ndistinct, 1u);
  EXPECT_EQ(s.buckets.size(), 1u);
  EXPECT_DOUBLE_EQ(s.EqFraction(Value::Int(7)), 1.0);
  EXPECT_DOUBLE_EQ(s.EqFraction(Value::Int(8)), 0.0);
  EXPECT_DOUBLE_EQ(s.LeFraction(Value::Int(7), true), 1.0);
  EXPECT_DOUBLE_EQ(s.LeFraction(Value::Int(7), false), 0.0)
      << "nothing is strictly below the only value";
}

TEST(ColumnStatsTest, EmptyAndAllNullColumns) {
  ColumnStats empty = BuildColumnStats({});
  EXPECT_TRUE(empty.valid);
  EXPECT_EQ(empty.nrows, 0u);
  EXPECT_EQ(empty.EqFraction(Value::Int(1)), 0.0);
  EXPECT_EQ(empty.LeFraction(Value::Int(1), true), 0.0);

  std::vector<Value> nulls(10, Value::Null());
  ColumnStats s = BuildColumnStats(std::move(nulls));
  EXPECT_TRUE(s.valid);
  EXPECT_EQ(s.nulls, 10u);
  EXPECT_EQ(s.ndistinct, 0u);
  EXPECT_TRUE(s.buckets.empty());
  EXPECT_DOUBLE_EQ(s.NullFraction(), 1.0);
  EXPECT_EQ(s.EqFraction(Value::Int(1)), 0.0);
}

TEST(ColumnStatsTest, NullsStayOutOfBucketsButInDenominator) {
  std::vector<Value> vals;
  for (int64_t i = 0; i < 75; ++i) vals.push_back(Value::Int(i % 25));
  for (int i = 0; i < 25; ++i) vals.push_back(Value::Null());
  ColumnStats s = BuildColumnStats(std::move(vals));
  EXPECT_EQ(s.nrows, 100u);
  EXPECT_EQ(s.nulls, 25u);
  EXPECT_DOUBLE_EQ(s.NullFraction(), 0.25);
  // Each of the 25 values appears 3 times out of 100 rows.
  EXPECT_NEAR(s.EqFraction(Value::Int(3)), 0.03, 0.01);
  // A predicate can match at most the non-null mass.
  EXPECT_NEAR(s.LeFraction(s.max_value, true), 0.75, 1e-9);
}

// Per-value and cumulative error bounds on a skewed multiset: equi-depth
// buckets bound both by roughly one bucket's share of the rows.
TEST(ColumnStatsTest, ErrorBounds) {
  std::vector<Value> vals;
  std::vector<uint64_t> freq(200);
  for (int64_t v = 0; v < 200; ++v) {
    freq[v] = static_cast<uint64_t>(v % 7) + 1;
    for (uint64_t k = 0; k < freq[v]; ++k) vals.push_back(Value::Int(v));
  }
  const double n = static_cast<double>(vals.size());
  ColumnStats s = BuildColumnStats(vals);
  ASSERT_TRUE(s.valid);
  const double bucket_share = 2.0 / kHistogramBuckets;
  double cum = 0;
  for (int64_t v = 0; v < 200; ++v) {
    cum += static_cast<double>(freq[v]);
    EXPECT_NEAR(s.EqFraction(Value::Int(v)), freq[v] / n, bucket_share)
        << "eq error at v = " << v;
    EXPECT_NEAR(s.LeFraction(Value::Int(v), true), cum / n, bucket_share)
        << "cdf error at v = " << v;
  }
}

TEST(ColumnStatsTest, StringColumnsUseHalfBucketInterpolation) {
  std::vector<Value> vals;
  for (int i = 0; i < 26; ++i) {
    vals.push_back(Value::Str(std::string(1, 'a' + i)));
  }
  ColumnStats s = BuildColumnStats(std::move(vals));
  ASSERT_TRUE(s.valid);
  EXPECT_EQ(s.ndistinct, 26u);
  double f = s.LeFraction(Value::Str("m"), true);
  EXPECT_GT(f, 0.2);
  EXPECT_LT(f, 0.8);
}

// --- Boolean factor extraction ---

class CnfTest : public SelectivityTest {
 protected:
  std::vector<BooleanFactor> Extract(const std::string& sql) {
    auto stmt = Parse(sql);
    EXPECT_TRUE(stmt.ok());
    Binder binder(&db_.catalog());
    auto block = binder.Bind(*stmt->select);
    EXPECT_TRUE(block.ok()) << block.status().ToString();
    block_ = std::move(*block);
    return ExtractBooleanFactors(*block_);
  }
};

TEST_F(CnfTest, SplitsConjuncts) {
  auto factors =
      Extract("SELECT K FROM T WHERE A = 1 AND B > 2 AND S = 'x'");
  EXPECT_EQ(factors.size(), 3u);
  for (const auto& f : factors) {
    EXPECT_TRUE(f.sargable);
    EXPECT_EQ(f.sarg_table, 0);
  }
}

TEST_F(CnfTest, OrOfSargablesIsOneSargableFactor) {
  auto factors = Extract("SELECT K FROM T WHERE A = 1 OR B = 2");
  ASSERT_EQ(factors.size(), 1u);
  EXPECT_TRUE(factors[0].sargable);
  EXPECT_EQ(factors[0].dnf.size(), 2u);
}

TEST_F(CnfTest, InListIsSargableDnf) {
  auto factors = Extract("SELECT K FROM T WHERE A IN (1, 2, 3)");
  ASSERT_EQ(factors.size(), 1u);
  EXPECT_TRUE(factors[0].sargable);
  EXPECT_EQ(factors[0].dnf.size(), 3u);
}

TEST_F(CnfTest, BetweenIsSargableConjunct) {
  auto factors = Extract("SELECT K FROM T WHERE A BETWEEN 2 AND 9");
  ASSERT_EQ(factors.size(), 1u);
  ASSERT_TRUE(factors[0].sargable);
  ASSERT_EQ(factors[0].dnf.size(), 1u);
  EXPECT_EQ(factors[0].dnf[0].size(), 2u);
}

TEST_F(CnfTest, HostVariableSargableOnlyAsOneComparisonOrBetween) {
  // A ? is an operand like a literal in one comparison or one BETWEEN.
  auto factors =
      Extract("SELECT K FROM T WHERE ? = A AND B BETWEEN ? AND 4");
  ASSERT_EQ(factors.size(), 2u);
  ASSERT_TRUE(factors[0].sargable);
  ASSERT_EQ(factors[0].dnf.size(), 1u);
  ASSERT_EQ(factors[0].dnf[0].size(), 1u);
  EXPECT_EQ(factors[0].dnf[0][0].column, 1u);
  EXPECT_EQ(factors[0].dnf[0][0].value.source, ScanOperand::Source::kParam);
  EXPECT_EQ(factors[0].dnf[0][0].value.ToString(), "?1");
  ASSERT_TRUE(factors[1].sargable);
  ASSERT_EQ(factors[1].dnf.size(), 1u);
  ASSERT_EQ(factors[1].dnf[0].size(), 2u);
  EXPECT_EQ(factors[1].dnf[0][0].value.ToString(), "?2");
  EXPECT_EQ(factors[1].dnf[0][1].value.source, ScanOperand::Source::kLiteral);
  EXPECT_EQ(factors[1].dnf[0][1].value.ToString(), "4");
  // Anywhere else it leaves its factor residual. (The parser takes only
  // literals in an IN list, and the binder only a string LIKE pattern.)
  for (const char* where :
       {"A = ? OR B = 1", "(A = ? AND B = 1) OR B = 2", "NOT A = ?"}) {
    auto residual = Extract(std::string("SELECT K FROM T WHERE ") + where);
    ASSERT_EQ(residual.size(), 1u) << where;
    EXPECT_FALSE(residual[0].sargable) << where;
  }
}

TEST_F(CnfTest, JoinPredicateDetected) {
  auto factors = Extract("SELECT T.K FROM T, U WHERE T.A = U.A AND T.B = 1");
  ASSERT_EQ(factors.size(), 2u);
  ASSERT_TRUE(factors[0].join.has_value());
  EXPECT_TRUE(factors[0].join->is_equi());
  EXPECT_FALSE(factors[0].sargable);
  EXPECT_EQ(factors[0].tables_mask, 0b11u);
  EXPECT_TRUE(factors[1].sargable);
}

TEST_F(CnfTest, NonEquiJoinPredicate) {
  auto factors = Extract("SELECT T.K FROM T, U WHERE T.A < U.A");
  ASSERT_EQ(factors.size(), 1u);
  ASSERT_TRUE(factors[0].join.has_value());
  EXPECT_FALSE(factors[0].join->is_equi());
}

TEST_F(CnfTest, CrossTableOrIsResidualNotSargable) {
  auto factors = Extract("SELECT T.K FROM T, U WHERE T.A = 1 OR U.A = 2");
  ASSERT_EQ(factors.size(), 1u);
  EXPECT_FALSE(factors[0].sargable);
  EXPECT_EQ(factors[0].tables_mask, 0b11u);
}

TEST_F(CnfTest, SubqueryAndCorrelationFlags) {
  auto factors = Extract(
      "SELECT K FROM T WHERE A IN (SELECT A FROM U) AND B = 1");
  ASSERT_EQ(factors.size(), 2u);
  EXPECT_TRUE(factors[0].has_subquery);
  EXPECT_FALSE(factors[0].sargable);
  EXPECT_FALSE(factors[1].has_subquery);
}

TEST_F(CnfTest, SameTableColumnComparisonIsResidual) {
  auto factors = Extract("SELECT K FROM T WHERE A = B");
  ASSERT_EQ(factors.size(), 1u);
  EXPECT_FALSE(factors[0].sargable);
  EXPECT_FALSE(factors[0].join.has_value());
  EXPECT_EQ(factors[0].tables_mask, 0b1u);
}

}  // namespace
}  // namespace systemr
