// E6 — Figure 6 reproduction: the three-relation level of the search tree
// and the winning plan for the example join, executed to verify the choice.
#include <cstdio>

#include "bench_common.h"
#include "workload/datagen.h"

namespace systemr {
namespace bench {
namespace {

constexpr const char* kFig1Sql =
    "SELECT NAME, TITLE, SAL, DNAME "
    "FROM EMP, DEPT, JOB "
    "WHERE TITLE = 'CLERK' AND LOC = 'DENVER' "
    "AND EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB";

int Main() {
  Database db(256);
  DataGen gen(&db, 1979);
  Die(gen.LoadPaperExample(20000, 100, 50));

  auto h = Harness::Make(&db, kFig1Sql);
  uint32_t full = (1u << h->block->tables.size()) - 1;

  Header("Figure 6 — complete (three-relation) solutions");
  const auto& sols = h->enumerator->SolutionsFor(full);
  for (const PlanRef& s : sols) {
    std::printf("  C = %10.1f  order=%-10s N=%-8.1f %s\n", s->est.cost,
                OrderSpecToString(s->order).c_str(), s->est_rows,
                DescribePlan(*s).c_str());
  }

  PlanRef best = Unwrap(h->enumerator->Best({}, {}));
  Header("Winning solution");
  std::printf("%s  (estimated cost %.1f)\n\n", DescribePlan(*best).c_str(),
              best->est.cost);
  std::printf("%s", ExplainPlan(best, *h->block).c_str());

  // Execute every stored complete solution and verify the estimate ranking
  // against reality — a small preview of the §7 accuracy study (E7).
  Header("Estimated vs actual cost for each stored complete solution");
  std::printf("%10s %12s   %s\n", "est. cost", "actual cost", "solution");
  double best_actual = -1;
  double chosen_actual = -1;
  for (const PlanRef& s : sols) {
    ExecResult exec = ExecuteCold(&db, *h->block, s);
    double actual = exec.stats.ActualCost(db.options().cost.w);
    std::printf("%10.1f %12.1f   %s\n", s->est.cost, actual,
                DescribePlan(*s).c_str());
    if (best_actual < 0 || actual < best_actual) best_actual = actual;
    if (s == best) chosen_actual = actual;
  }
  if (chosen_actual >= 0 && best_actual > 0) {
    std::printf("\nchosen plan actual cost / best stored actual cost = %.2f\n",
                chosen_actual / best_actual);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace systemr

int main() { return systemr::bench::Main(); }
