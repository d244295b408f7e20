// Cross-strategy property tests over random queries (the DESIGN.md
// invariants):
//  1. Every optimizer strategy returns the same multiset of rows.
//  2. The DP optimizer's estimated cost is never above any baseline's.
//  3. For n <= 3 relations, DP's estimate is <= every feasible left-deep
//     join permutation costed with the same model (checked via the
//     heuristic-free enumerator, which covers all permutations).
//  4. Every plan node's COST is its own PAGE FETCHES + W * RSI CALLS.
#include <cmath>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "optimizer/baseline.h"
#include "optimizer/cnf.h"
#include "optimizer/selectivity.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "workload/querygen.h"

namespace systemr {
namespace {

class PlansPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  PlansPropertyTest() : db_(std::make_unique<Database>(64)) {
    ChainSchemaSpec spec;
    spec.num_tables = 3;
    spec.base_rows = 1500;
    spec.shrink = 0.5;
    spec.a_domain = 20;
    spec.b_domain = 20;
    EXPECT_TRUE(BuildChainSchema(db_.get(), spec, 777).ok());
    spec_ = spec;
    // The cost-dominance invariants below compare estimates across plans
    // optimized at different times; executing a query in between would
    // record selectivity feedback and shift the model mid-comparison.
    db_->set_feedback_enabled(false);
  }

  OptimizedQuery MakeWithOptions(const std::string& sql,
                                 OptimizerOptions opts) {
    auto stmt = Parse(sql);
    EXPECT_TRUE(stmt.ok());
    Binder binder(&db_->catalog());
    auto block = binder.Bind(*stmt->select);
    EXPECT_TRUE(block.ok()) << block.status().ToString();
    Optimizer opt(&db_->catalog(), opts);
    auto q = opt.Optimize(std::move(*block));
    EXPECT_TRUE(q.ok()) << sql << ": " << q.status().ToString();
    return std::move(*q);
  }

  std::multiset<std::string> RowsOf(const OptimizedQuery& q) {
    auto r = db_->Run(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::multiset<std::string> out;
    for (const Row& row : r->rows) out.insert(RowToString(row));
    return out;
  }

  std::unique_ptr<Database> db_;
  ChainSchemaSpec spec_;
};

TEST_P(PlansPropertyTest, AllStrategiesAgreeOnResults) {
  QueryGen qgen(spec_, GetParam() * 1000 + 17);
  for (int q = 0; q < 6; ++q) {
    std::string sql =
        q % 2 == 0 ? qgen.RandomJoinQuery(2 + q % 3) : qgen.RandomSingleTableQuery();

    OptimizedQuery dp = MakeWithOptions(sql, db_->options());
    std::multiset<std::string> expected = RowsOf(dp);

    // DP variants.
    for (int variant = 0; variant < 3; ++variant) {
      OptimizerOptions opts = db_->options();
      if (variant == 0) opts.join.use_interesting_orders = false;
      if (variant == 1) opts.join.enable_merge_join = false;
      if (variant == 2) opts.join.cartesian_heuristic = false;
      OptimizedQuery alt = MakeWithOptions(sql, opts);
      EXPECT_EQ(RowsOf(alt), expected) << sql << " variant " << variant;
      // More search can only help the estimate; less never beats DP... but
      // variants restrict/extend differently, so only check the heuristic
      // variant (a strict superset search).
      if (variant == 2) {
        EXPECT_LE(alt.est_cost, dp.est_cost + 1e-6) << sql;
      }
    }

    // Baselines.
    for (BaselineKind kind :
         {BaselineKind::kSyntacticNestedLoop, BaselineKind::kGreedy}) {
      auto base = db_->PrepareBaseline(sql, kind);
      ASSERT_TRUE(base.ok()) << sql;
      EXPECT_EQ(RowsOf(*base), expected) << sql << " " << BaselineName(kind);
      EXPECT_LE(dp.est_cost, base->est_cost + 1e-6)
          << sql << " " << BaselineName(kind);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlansPropertyTest, ::testing::Values(1, 2, 3));

// Exhaustive check: for a 3-relation chain query, the DP result matches a
// brute-force minimum over all join orders reachable in the heuristic-free
// search (which enumerates every left-deep permutation).
TEST_F(PlansPropertyTest, DpMatchesExhaustiveSearchMinimum) {
  const std::string sql =
      "SELECT R0.PK FROM R0, R1, R2 "
      "WHERE R0.FK = R1.PK AND R1.FK = R2.PK AND R0.A = 3";
  OptimizerOptions exhaustive = db_->options();
  exhaustive.join.cartesian_heuristic = false;
  OptimizedQuery dp = MakeWithOptions(sql, db_->options());
  OptimizedQuery full = MakeWithOptions(sql, exhaustive);
  // The heuristic-free search covers a superset of join orders; for this
  // connected chain both must land on the same optimum.
  EXPECT_NEAR(dp.est_cost, full.est_cost, 1e-9);
}

// Selectivity sanity over many random predicates: F stays in (0, 1].
TEST_F(PlansPropertyTest, SelectivitiesAreProbabilities) {
  QueryGen qgen(spec_, 4321);
  for (int q = 0; q < 30; ++q) {
    std::string sql = qgen.RandomSingleTableQuery();
    auto stmt = Parse(sql);
    ASSERT_TRUE(stmt.ok());
    Binder binder(&db_->catalog());
    auto block = binder.Bind(*stmt->select);
    ASSERT_TRUE(block.ok());
    SelectivityEstimator est(&db_->catalog(), block->get());
    for (const BooleanFactor& f : ExtractBooleanFactors(**block)) {
      double sel = est.FactorSelectivity(*f.expr);
      EXPECT_GT(sel, 0.0) << sql;
      EXPECT_LE(sel, 1.0) << sql;
    }
  }
}

// Plan shapes whose split the cost-split walk below has seen.
struct SplitCoverage {
  int sorted_inner_merges = 0;
  int spilling_hash_joins = 0;
  int distinct_sorts = 0;
  int exchanges = 0;
};

// COST = PAGE FETCHES + W * RSI CALLS (§4) at every node: each carries the
// cost model's own two parts for itself and everything under it. An
// exchange divides the cost among its workers but not their work, so its
// pages and RSI calls are its fragment's, plus the per-row work of an
// aggregation it absorbed.
void ExpectCostSplit(const PlanNode& n, double w, const std::string& sql,
                     SplitCoverage* seen) {
  const PathCost& est = n.est;
  if (n.kind == PlanKind::kExchange) {
    ++seen->exchanges;
    const PathCost& frag = n.left->est;
    double agg_rsi = n.exchange_partial_agg
                         ? std::max(n.left->est_rows, 0.0) +
                               std::max(n.est_rows, 1.0)
                         : 0.0;
    EXPECT_EQ(est.pages, frag.pages) << sql;
    EXPECT_NEAR(est.rsi, frag.rsi + agg_rsi, 1e-9 * est.rsi) << sql;
  } else {
    EXPECT_NEAR(est.cost, est.pages + w * est.rsi, 1e-9 * std::abs(est.cost))
        << PlanKindName(n.kind) << " at W=" << w << ": " << sql;
  }
  if (n.kind == PlanKind::kMergeJoin && n.right->kind == PlanKind::kSort) {
    ++seen->sorted_inner_merges;
  }
  if (n.kind == PlanKind::kHashJoin &&
      est.pages > n.left->est.pages + n.right->est.pages) {
    ++seen->spilling_hash_joins;
  }
  if (n.kind == PlanKind::kSort && n.distinct) ++seen->distinct_sorts;
  if (n.left != nullptr) ExpectCostSplit(*n.left, w, sql, seen);
  if (n.right != nullptr) ExpectCostSplit(*n.right, w, sql, seen);
}

void ExpectQuerySplit(const OptimizedQuery& q, double w,
                      const std::string& sql, SplitCoverage* seen) {
  ExpectCostSplit(*q.root, w, sql, seen);
  for (const auto& [block, plan] : q.subquery_plans) {
    ExpectCostSplit(*plan, w, sql, seen);
  }
}

// Plans every query of 50 fuzz seeds with the DP optimizer and both
// baselines, on the fuzz schema with its secondary indexes and without
// them, at W = 0.1, at W = 4, and forced to dop 4; then, with a 2-page
// buffer, with merge joins only (inners without an index on the join
// column are sorted) and with hash joins only (builds spill).
TEST(PlanCostSplitTest, EveryNodeCostIsPagesPlusWTimesRsi) {
  SplitCoverage seen;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    FuzzSchema schema =
        MakeFuzzSchema(static_cast<FuzzSchema::Family>(seed % 3), seed);
    for (bool indexes : {true, false}) {
      Database db(64);
      ASSERT_TRUE(BuildFuzzSchema(&db, schema, seed, indexes).ok()) << seed;
      db.set_feedback_enabled(false);
      FuzzQueryGen gen(schema, seed ^ 0x9e3779b97f4a7c15ULL);
      for (int qi = 0; qi < 6; ++qi) {
        std::string sql = gen.Next().Sql();
        for (int config = 0; config < 5; ++config) {
          OptimizerOptions& opts = db.options();
          opts.cost.w = config == 1 ? 4.0 : 0.1;
          opts.cost.buffer_pages = config >= 3 ? 2 : 128;
          opts.max_dop = config == 2 ? 4 : 1;
          opts.force_parallel = config == 2;
          opts.join.enable_nested_loop = config < 3;
          opts.join.enable_merge_join = config != 4;
          opts.join.enable_hash_join = config != 3;
          auto dp = db.Prepare(sql);
          ASSERT_TRUE(dp.ok()) << sql << ": " << dp.status().ToString();
          ExpectQuerySplit(*dp, opts.cost.w, sql, &seen);
          for (BaselineKind kind : {BaselineKind::kSyntacticNestedLoop,
                                    BaselineKind::kGreedy}) {
            auto base = db.PrepareBaseline(sql, kind);
            ASSERT_TRUE(base.ok()) << sql << ": " << base.status().ToString();
            ExpectQuerySplit(*base, opts.cost.w, sql, &seen);
          }
        }
      }
    }
  }
  EXPECT_GT(seen.sorted_inner_merges, 0);
  EXPECT_GT(seen.spilling_hash_joins, 0);
  EXPECT_GT(seen.distinct_sorts, 0);
  EXPECT_GT(seen.exchanges, 0);
}

}  // namespace
}  // namespace systemr
