// E4 — Figures 2 & 3 reproduction: the single-relation level of the search
// tree for the example join. For each relation: every access path with its
// eligible (local) predicates applied, its cost, its output order, and
// whether pruning kept or discarded it.
#include <cstdio>

#include "bench_common.h"
#include "optimizer/access_path_gen.h"
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

  Header("Figure 2 — access paths for single relations "
         "(local predicates only)");
  const auto& interesting = h->enumerator->interesting_orders();
  std::printf("Interesting orderings (order-equivalence classes):\n");
  for (const OrderSpec& spec : interesting) {
    std::printf("  %s", OrderSpecToString(spec).c_str());
    if (spec.size() == 1) {
      auto [t, c] = h->ctx->classes.Representative(spec[0].cls);
      std::printf("  (e.g. %s)", h->block->ColumnName(t, c).c_str());
    }
    std::printf("\n");
  }

  for (size_t t = 0; t < h->block->tables.size(); ++t) {
    std::printf("\n%s:\n", h->block->tables[t].table->name.c_str());
    const std::vector<PlanRef>& paths =
        h->ctx->AccessPaths(static_cast<int>(t), 0);
    std::vector<bool> pruned = PrunedAccessPaths(paths, interesting);
    for (size_t i = 0; i < paths.size(); ++i) {
      const PlanNode& p = *paths[i];
      std::printf("  C(%-28s) = %8.1f  order=%-10s rows=%8.1f  %s\n",
                  DescribePlan(p).c_str(), p.est.cost,
                  OrderSpecToString(p.order).c_str(), p.est_rows,
                  pruned[i] ? "X pruned" : "kept");
    }
  }

  Header("Figure 3 — search tree entries for single relations (as stored)");
  for (size_t t = 0; t < h->block->tables.size(); ++t) {
    uint32_t mask = 1u << t;
    std::printf("{%s}:\n", h->block->tables[t].table->name.c_str());
    for (const PlanRef& s : h->enumerator->SolutionsFor(mask)) {
      std::printf("  C(%-28s) = %8.1f  order=%-10s N=%0.1f\n",
                  DescribePlan(*s).c_str(), s->est.cost,
                  OrderSpecToString(s->order).c_str(), s->est_rows);
    }
  }
  std::printf(
      "\nAs in the paper, only the cheapest path per interesting order plus\n"
      "the cheapest unordered path survive into the search tree.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace systemr

int main() { return systemr::bench::Main(); }
