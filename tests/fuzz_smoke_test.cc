// Tier-1 smoke run of the differential fuzzing harness: 50 fixed seeds with
// every oracle enabled must produce zero violations, deterministically.
#include <gtest/gtest.h>

#include "db/database.h"
#include "harness/differ.h"
#include "harness/fuzz_session.h"
#include "harness/ref_executor.h"
#include "workload/querygen.h"

namespace systemr {
namespace {

TEST(FuzzSmokeTest, FiftySeedsAllOraclesClean) {
  FuzzOptions options;
  options.queries_per_seed = 4;
  FuzzReport report;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SeedResult result = RunFuzzSeed(seed, options, &report);
    for (const std::string& v : result.violations) {
      ADD_FAILURE() << v;
    }
  }
  EXPECT_EQ(report.seeds, 50u);
  EXPECT_EQ(report.queries, 200u);
  EXPECT_FALSE(report.records.empty());
  // Every calibration record carries a finite, non-negative cost estimate
  // (empty-table queries may legitimately estimate zero).
  bool any_positive = false;
  uint64_t total_gets = 0;
  for (const CalibrationRecord& r : report.records) {
    EXPECT_GE(r.est_cost, 0.0) << r.sql;
    any_positive |= r.est_cost > 0.0;
    // Buffer counters: hits are a subset of gets, and every simulated fetch
    // is itself a get (gets = fetches + hits by construction).
    EXPECT_GE(r.stats.buffer_gets, r.stats.buffer_hits) << r.sql;
    total_gets += r.stats.buffer_gets;
  }
  EXPECT_TRUE(any_positive);
  EXPECT_GT(total_gets, 0u);
}

// Directed differential coverage for the rebindable-operator executor paths:
// multi-way joins (cached inner subtrees re-bound per outer row) and
// correlated subqueries (operator tree built once, Rebind() per evaluation),
// checked multiset-identical against the reference executor over 50 seeds.
TEST(FuzzSmokeTest, CorrelatedSubqueriesAndMultiwayJoinsMatchReference) {
  // (family, sql): chain is F0-FK->F1-FK->F2; star is F0 with FK1/FK2/FK3.
  const struct {
    FuzzSchema::Family family;
    const char* sql;
  } kCases[] = {
      {FuzzSchema::Family::kChain,
       "SELECT F0.PK, F1.A, F2.B FROM F0, F1, F2 "
       "WHERE F0.FK = F1.PK AND F1.FK = F2.PK AND F0.A <> F2.D"},
      {FuzzSchema::Family::kStar,
       "SELECT F0.PK, F2.A FROM F0, F1, F2, F3 "
       "WHERE F0.FK1 = F1.PK AND F0.FK2 = F2.PK AND F0.FK3 = F3.PK "
       "AND F1.B <> F3.B"},
      {FuzzSchema::Family::kChain,
       "SELECT F0.PK, F0.A FROM F0 "
       "WHERE F0.B >= (SELECT MAX(F1.A) FROM F1 WHERE F1.PK = F0.FK)"},
      {FuzzSchema::Family::kChain,
       "SELECT F1.PK FROM F1 "
       "WHERE F1.A < (SELECT COUNT(*) FROM F2 WHERE F2.D = F1.D)"},
      {FuzzSchema::Family::kChain,
       "SELECT F0.PK FROM F0, F1 WHERE F0.FK = F1.PK "
       "AND F1.A <= (SELECT MAX(F2.A) FROM F2 WHERE F2.PK = F1.FK)"},
  };
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    for (const auto& c : kCases) {
      FuzzSchema schema = MakeFuzzSchema(c.family, seed);
      Database db(64);
      ASSERT_TRUE(BuildFuzzSchema(&db, schema, seed, true).ok());
      RefExecutor ref(&db.rss().store(), RelPageMap(&db));

      auto prepared = db.Prepare(c.sql);
      ASSERT_TRUE(prepared.ok()) << c.sql;
      auto ref_rows = ref.Execute(*prepared->block);
      ASSERT_TRUE(ref_rows.ok()) << c.sql;
      auto result = db.Run(*prepared);
      ASSERT_TRUE(result.ok())
          << c.sql << "\n" << result.status().ToString();
      EXPECT_TRUE(SameRowMultiset(*ref_rows, result->rows))
          << "seed=" << seed << " sql=[" << c.sql << "] "
          << DiffSummary(*ref_rows, result->rows);
    }
  }
}

// Engine vs reference on SELECT items and HAVING clauses over aggregate
// values — IS NULL, IN, LIKE, AND, arithmetic with a group column, a scalar
// aggregate over empty input, and a subquery with a correlated HAVING —
// under sorted aggregation and forced hash aggregation.
TEST(FuzzSmokeTest, AggregateExpressionsMatchReference) {
  const char* kQueries[] = {
      "SELECT A, COUNT(*) FROM G GROUP BY A HAVING MAX(B) IS NULL",
      "SELECT A, COUNT(*) FROM G GROUP BY A HAVING COUNT(*) IN (2, 3)",
      "SELECT A, MIN(S) FROM G GROUP BY A HAVING MIN(S) LIKE 'x%'",
      "SELECT A, MAX(S) FROM G GROUP BY A "
      "HAVING COUNT(*) > 1 AND MAX(S) LIKE 'y%'",
      "SELECT A, SUM(B) + A FROM G GROUP BY A",
      "SELECT COUNT(*), MAX(B) FROM G WHERE A > 100 HAVING MAX(B) IS NULL",
      "SELECT F.A FROM G F WHERE F.A IN "
      "(SELECT H.A FROM G H GROUP BY H.A HAVING COUNT(*) >= F.A)",
  };
  for (bool hash : {false, true}) {
    Database db(64);
    // Hash join alone forces hash aggregation; without it, sorted.
    db.options().join.enable_nested_loop = !hash;
    db.options().join.enable_merge_join = !hash;
    db.options().join.enable_hash_join = hash;
    ASSERT_TRUE(db.ExecuteScript(R"(
      CREATE TABLE G (A INT, B INT, S STRING);
      INSERT INTO G VALUES (1, 10, 'xa');
      INSERT INTO G VALUES (1, 20, 'ya');
      INSERT INTO G VALUES (2, NULL, 'xb');
      INSERT INTO G VALUES (3, 5, 'zz');
      INSERT INTO G VALUES (3, 6, 'yb');
      INSERT INTO G VALUES (3, 7, 'xc');
      INSERT INTO G VALUES (4, NULL, 'ya');
      INSERT INTO G VALUES (4, NULL, 'yc');
    )").ok());
    RefExecutor ref(&db.rss().store(), RelPageMap(&db));
    for (const char* sql : kQueries) {
      auto prepared = db.Prepare(sql);
      ASSERT_TRUE(prepared.ok()) << sql;
      auto ref_rows = ref.Execute(*prepared->block);
      auto result = db.Run(*prepared);
      if (!ref_rows.ok() || !result.ok()) {
        ADD_FAILURE() << "hash=" << hash << " sql=[" << sql << "] reference: "
                      << ref_rows.status().ToString()
                      << " engine: " << result.status().ToString();
        continue;
      }
      EXPECT_TRUE(SameRowMultiset(*ref_rows, result->rows))
          << "hash=" << hash << " sql=[" << sql << "] "
          << DiffSummary(*ref_rows, result->rows);
    }
  }
}

// Targeted join differential runs: 200 seeds with every multi-table query
// joined by the one enabled method wherever the query allows it (with merge
// or hash alone, non-equi joins keep nested loop — a disabled method must
// never lose DP completeness). Baselines and metamorphic variants are off:
// this is pure engine-vs-reference coverage of each join operator's batch
// loop; hash alone also forces hash aggregation for GROUP BY blocks.
class ForcedJoinFuzzTest : public ::testing::TestWithParam<PlanKind> {};

TEST_P(ForcedJoinFuzzTest, TwoHundredSeedsClean) {
  FuzzOptions options;
  options.queries_per_seed = 3;
  options.check_baselines = false;
  options.metamorphic = false;
  options.record_calibration = true;
  options.join.enable_nested_loop = GetParam() == PlanKind::kNestedLoopJoin;
  options.join.enable_merge_join = GetParam() == PlanKind::kMergeJoin;
  options.join.enable_hash_join = GetParam() == PlanKind::kHashJoin;
  FuzzReport report;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SeedResult result = RunFuzzSeed(seed, options, &report);
    for (const std::string& v : result.violations) {
      ADD_FAILURE() << v;
    }
  }
  EXPECT_EQ(report.seeds, 200u);
  EXPECT_EQ(report.queries, 600u);
  if (GetParam() != PlanKind::kHashJoin) return;
  // The forced runs must actually exercise the hash table: across 600
  // queries at least some joins build and probe.
  uint64_t build = 0, probe = 0;
  for (const CalibrationRecord& r : report.records) {
    build += r.stats.hash_build_rows;
    probe += r.stats.hash_probe_rows;
  }
  EXPECT_GT(build, 0u);
  EXPECT_GT(probe, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    FuzzSmokeTest, ForcedJoinFuzzTest,
    ::testing::Values(PlanKind::kNestedLoopJoin, PlanKind::kMergeJoin,
                      PlanKind::kHashJoin),
    [](const ::testing::TestParamInfo<PlanKind>& info) {
      std::string name = PlanKindName(info.param);
      return name.substr(0, name.size() - 4);  // Drop "Join".
    });

TEST(FuzzSmokeTest, Deterministic) {
  FuzzOptions options;
  options.queries_per_seed = 3;
  FuzzReport a, b;
  RunFuzzSeed(7, options, &a);
  RunFuzzSeed(7, options, &b);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].sql, b.records[i].sql);
    EXPECT_EQ(a.records[i].actual_rows, b.records[i].actual_rows);
    EXPECT_DOUBLE_EQ(a.records[i].est_cost, b.records[i].est_cost);
  }
}

// The oracles are only trustworthy if the comparator itself can fail: feed
// it deliberate mismatches.
TEST(FuzzSmokeTest, DifferDetectsMismatches) {
  std::vector<Row> a = {{Value::Int(1), Value::Int(2)},
                        {Value::Int(3), Value::Int(4)}};
  std::vector<Row> reordered = {a[1], a[0]};
  EXPECT_TRUE(SameRowMultiset(a, reordered));

  std::vector<Row> missing = {a[0]};
  EXPECT_FALSE(SameRowMultiset(a, missing));

  std::vector<Row> duplicated = {a[0], a[0]};
  EXPECT_FALSE(SameRowMultiset(a, duplicated));  // Multiplicities matter.

  std::vector<Row> null_vs_zero = {{Value::Int(1), Value::Null()},
                                   {Value::Int(3), Value::Int(4)}};
  EXPECT_FALSE(SameRowMultiset(a, null_vs_zero));

  EXPECT_NE(DiffSummary(a, missing), DiffSummary(a, a));
}

TEST(FuzzSmokeTest, SortednessOracleDetectsDisorder) {
  std::vector<Row> asc = {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(2)}};
  EXPECT_TRUE(RowsSorted(asc, {{0, true}}));
  EXPECT_FALSE(RowsSorted(asc, {{0, false}}));
  std::vector<Row> desc = {{Value::Int(5)}, {Value::Int(3)}};
  EXPECT_TRUE(RowsSorted(desc, {{0, false}}));
  EXPECT_FALSE(RowsSorted(desc, {{0, true}}));
}

}  // namespace
}  // namespace systemr
