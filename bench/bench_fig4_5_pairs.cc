// E5 — Figures 4 & 5 reproduction: the two-relation level of the search
// tree — nested-loop extensions (Fig. 4) and merging-scan extensions with
// and without sorts (Fig. 5) — for the example join.
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
  const BoundQueryBlock& block = *h->block;

  auto mask_name = [&](uint32_t mask) {
    std::string s = "(";
    bool first = true;
    for (size_t t = 0; t < block.tables.size(); ++t) {
      if ((mask >> t) & 1) {
        if (!first) s += ", ";
        s += block.tables[t].table->name;
        first = false;
      }
    }
    return s + ")";
  };

  Header("Figures 4 & 5 — solutions for pairs of relations");
  std::printf(
      "Stored solutions per pair; 'NLJ' entries reproduce Fig. 4 (nested\n"
      "loops), 'MJ' entries reproduce Fig. 5 (merging scans, with 'sort'\n"
      "marking the sorted-temporary-list variants). Dominated alternatives\n"
      "were pruned as they were generated, exactly as the paper describes\n"
      "('as each of the costs are computed they are compared with the\n"
      "cheapest equivalent solution found so far').\n");
  for (uint32_t mask = 1; mask < (1u << block.tables.size()); ++mask) {
    if (__builtin_popcount(mask) != 2) continue;
    const auto& sols = h->enumerator->SolutionsFor(mask);
    std::printf("\n%s%s:\n", mask_name(mask).c_str(),
                sols.empty() ? "  [not expanded: join-order heuristic]" : "");
    for (const PlanRef& s : sols) {
      std::printf("  C = %10.1f  order=%-10s N=%-10.1f %s\n", s->est.cost,
                  OrderSpecToString(s->order).c_str(), s->est_rows,
                  DescribePlan(*s).c_str());
    }
  }
  std::printf("\nsolutions generated at all levels: %zu, stored: %zu\n",
              h->enumerator->solutions_generated(),
              h->enumerator->solutions_stored());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace systemr

int main() { return systemr::bench::Main(); }
