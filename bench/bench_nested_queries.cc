// E10 — §6 reproduction (nested queries): evaluation counts for scalar,
// IN-list, and correlated subqueries, including the paper's two key
// optimizations:
//   (a) uncorrelated subqueries are evaluated exactly once;
//   (b) a correlated subquery is re-evaluated only when the referenced value
//       changes — so ordering the outer relation on the referenced column
//       collapses re-evaluations to one per distinct value ("it might even
//       pay to sort the referenced relation on the referenced column").
#include <cstdio>

#include "bench_common.h"
#include "exec/executor.h"
#include "workload/datagen.h"

namespace systemr {
namespace bench {
namespace {

struct RunResult {
  size_t rows;
  uint64_t evaluations;
  uint64_t hits;
  double actual_cost;
};

RunResult RunWithCache(Database* db, const std::string& sql) {
  OptimizedQuery q = Unwrap(db->Prepare(sql));
  db->rss().pool().FlushAll();
  ExecContext ctx(&db->rss(), &db->catalog(), &q.subquery_plans,
                  db->options().cost.w);
  auto result = ExecutePlan(&ctx, *q.block, q.root);
  Die(result.status());
  RunResult out;
  out.rows = result->rows.size();
  // Each query below has one nested block, so the statement's counts are
  // that block's.
  out.evaluations = result->stats.subquery_evals;
  out.hits = result->stats.subquery_cache_hits;
  out.actual_cost = result->stats.ActualCost(db->options().cost.w);
  return out;
}

int Main() {
  // EMP clustered on DNO: the correlated DNO value repeats consecutively.
  Database clustered(256);
  {
    DataGen gen(&clustered, 42);
    Die(gen.LoadPaperExample(12000, 60, 30));
  }
  // A second database with EMP physically scattered on DNO.
  Database scattered(256);
  {
    DataGen gen(&scattered, 42);
    TableSpec emp;
    emp.name = "EMP";
    emp.num_rows = 12000;
    emp.columns = {{"NAME", ValueType::kString, 12000, 0, false, 10},
                   {"DNO", ValueType::kInt64, 60, 0, false},
                   {"JOB", ValueType::kInt64, 30, 0.5, false},
                   {"SAL", ValueType::kInt64, 50000, 0, false}};
    emp.indexes = {{"EMP_DNO", {"DNO"}, false, false}};
    Die(gen.CreateAndLoad(emp));
    TableSpec dept;
    dept.name = "DEPT";
    dept.num_rows = 60;
    dept.columns = {{"DNO", ValueType::kInt64, 60, 0, true},
                    {"LOC", ValueType::kString, 10, 0, false, 8}};
    dept.indexes = {{"DEPT_DNO", {"DNO"}, true, true}};
    Die(gen.CreateAndLoad(dept));
  }

  Header("E10 — §6 nested query evaluation counts");

  // (a) Uncorrelated scalar subquery: the §2/§6 AVG example.
  {
    RunResult r = RunWithCache(
        &clustered,
        "SELECT NAME FROM EMP WHERE SAL > (SELECT AVG(SAL) FROM EMP)");
    std::printf(
        "uncorrelated scalar (AVG):    evaluated %llu time(s), reused %llu "
        "times, %zu rows\n",
        (unsigned long long)r.evaluations, (unsigned long long)r.hits,
        r.rows);
  }

  // (b) Uncorrelated IN subquery → temporary list.
  {
    RunResult r = RunWithCache(
        &clustered,
        "SELECT NAME FROM EMP WHERE DNO IN "
        "(SELECT DNO FROM DEPT WHERE LOC = 'DENVER')");
    std::printf(
        "uncorrelated IN (temp list):  evaluated %llu time(s), reused %llu "
        "times, %zu rows\n",
        (unsigned long long)r.evaluations, (unsigned long long)r.hits,
        r.rows);
  }

  // (c) Correlated subquery, outer clustered vs scattered on the referenced
  // column.
  const std::string correlated =
      "SELECT NAME FROM EMP X WHERE SAL > "
      "(SELECT AVG(SAL) FROM EMP WHERE DNO = X.DNO)";
  RunResult ordered = RunWithCache(&clustered, correlated);
  RunResult random = RunWithCache(&scattered, correlated);
  std::printf(
      "correlated, EMP ordered by DNO:   %6llu evaluations, %6llu cache "
      "reuses  (cost %.0f)\n",
      (unsigned long long)ordered.evaluations,
      (unsigned long long)ordered.hits, ordered.actual_cost);
  std::printf(
      "correlated, EMP scattered on DNO: %6llu evaluations, %6llu cache "
      "reuses  (cost %.0f)\n",
      (unsigned long long)random.evaluations, (unsigned long long)random.hits,
      random.actual_cost);
  std::printf(
      "\nPaper §6: with the outer relation ordered on the referenced column,\n"
      "re-evaluation 'can be made conditional on a test of whether the\n"
      "current referenced value is the same as the previous candidate\n"
      "tuple's' — here %llu evaluations for 60 distinct departments instead\n"
      "of one per candidate tuple (%llu).\n",
      (unsigned long long)ordered.evaluations,
      (unsigned long long)random.evaluations);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace systemr

int main() { return systemr::bench::Main(); }
