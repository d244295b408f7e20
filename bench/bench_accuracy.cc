// E7 — §7 accuracy claims: "although the costs predicted by the optimizer
// are often not accurate in absolute value, the true optimal path is
// selected in a large majority of cases. In many cases, the ordering among
// the estimated costs is precisely the same as that among the actual
// measured costs."
//
// Method: random single-table and join queries over a synthetic chain
// schema. For each query, every candidate plan (all single-relation access
// paths, or all stored complete join solutions plus the baseline plans) is
// executed cold; we report how often the optimizer's choice is truly
// optimal, the mean actual-cost ratio to the true optimum, and the Spearman
// rank correlation between estimated and actual costs.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "optimizer/access_path_gen.h"
#include "workload/querygen.h"

namespace systemr {
namespace bench {
namespace {

struct Candidate {
  double est = 0;
  double actual = 0;
  bool chosen = false;
};

double SpearmanRho(const std::vector<Candidate>& cands) {
  size_t n = cands.size();
  auto ranks = [&](auto key) {
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      return key(cands[a]) < key(cands[b]);
    });
    std::vector<double> rank(n);
    for (size_t r = 0; r < n; ++r) rank[idx[r]] = static_cast<double>(r);
    return rank;
  };
  std::vector<double> re = ranks([](const Candidate& c) { return c.est; });
  std::vector<double> ra = ranks([](const Candidate& c) { return c.actual; });
  double d2 = 0;
  for (size_t i = 0; i < n; ++i) d2 += (re[i] - ra[i]) * (re[i] - ra[i]);
  double nn = static_cast<double>(n);
  return 1.0 - 6.0 * d2 / (nn * (nn * nn - 1.0));
}

struct Tally {
  int queries = 0;
  int optimal = 0;
  int near_optimal = 0;  // Within 10% of the true best.
  double ratio_sum = 0;
  double rho_sum = 0;
  int rho_count = 0;
  int identical_ordering = 0;

  void Account(std::vector<Candidate>& cands) {
    if (cands.empty()) return;
    ++queries;
    double best_actual = cands[0].actual;
    double chosen_actual = -1;
    for (const Candidate& c : cands) {
      best_actual = std::min(best_actual, c.actual);
      if (c.chosen) chosen_actual = c.actual;
    }
    if (chosen_actual < 0) return;
    if (chosen_actual <= best_actual * 1.01) ++optimal;
    if (chosen_actual <= best_actual * 1.10) ++near_optimal;
    ratio_sum += chosen_actual / std::max(best_actual, 1e-9);
    if (cands.size() >= 3) {
      double rho = SpearmanRho(cands);
      rho_sum += rho;
      ++rho_count;
      // "the ordering among the estimated costs is precisely the same".
      std::vector<Candidate> by_est = cands;
      std::stable_sort(by_est.begin(), by_est.end(),
                       [](const Candidate& a, const Candidate& b) {
                         return a.est < b.est;
                       });
      bool same = std::is_sorted(by_est.begin(), by_est.end(),
                                 [](const Candidate& a, const Candidate& b) {
                                   return a.actual < b.actual;
                                 });
      if (same) ++identical_ordering;
    }
  }

  void Print(const char* label) const {
    std::printf("%-22s %4d queries | optimal: %5.1f%% | within 10%%: %5.1f%% "
                "| mean cost-vs-best: %.3fx | Spearman rho: %.3f | identical "
                "ranking: %5.1f%%\n",
                label, queries, 100.0 * optimal / std::max(queries, 1),
                100.0 * near_optimal / std::max(queries, 1),
                ratio_sum / std::max(queries, 1),
                rho_sum / std::max(rho_count, 1),
                100.0 * identical_ordering / std::max(rho_count, 1));
  }
};

int Main() {
  Database db(128);
  ChainSchemaSpec spec;
  spec.num_tables = 4;
  spec.base_rows = 6000;
  spec.shrink = 0.5;
  Die(BuildChainSchema(&db, spec, 99));
  QueryGen qgen(spec, 4242);
  double w = db.options().cost.w;

  Header("E7 — optimizer accuracy (paper §7)");

  // --- Single-relation queries: every access path is a candidate ---
  Tally single;
  for (int q = 0; q < 60; ++q) {
    std::string sql = qgen.RandomSingleTableQuery();
    auto h = Harness::Make(&db, sql, {}, /*run=*/false);
    if (h->block->tables.size() != 1) continue;
    const std::vector<PlanRef>& paths = h->ctx->AccessPaths(0, 0);
    // The optimizer's choice is the cheapest estimated path.
    PlanRef chosen = CheapestPath(paths);
    std::vector<Candidate> cands;
    for (const PlanRef& p : paths) {
      ExecResult exec = ExecuteCold(&db, *h->block, p);
      cands.push_back(
          Candidate{p->est.cost, exec.stats.ActualCost(w), p == chosen});
    }
    single.Account(cands);
  }
  single.Print("single-relation:");

  // --- Join queries: every stored complete solution is a candidate ---
  for (int tables = 2; tables <= 3; ++tables) {
    Tally joins;
    for (int q = 0; q < 25; ++q) {
      std::string sql = qgen.RandomJoinQuery(tables);
      auto h = Harness::Make(&db, sql);
      uint32_t full = (1u << h->block->tables.size()) - 1;
      PlanRef best = Unwrap(h->enumerator->Best({}, {}));
      std::vector<Candidate> cands;
      for (const PlanRef& s : h->enumerator->SolutionsFor(full)) {
        ExecResult exec = ExecuteCold(&db, *h->block, s);
        cands.push_back(
            Candidate{s->est.cost, exec.stats.ActualCost(w), s == best});
      }
      joins.Account(cands);
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%d-way joins:", tables);
    joins.Print(label);
  }

  std::printf(
      "\nPaper claim: optimal in 'a large majority of cases'; estimated\n"
      "orderings often 'precisely the same' as actual. Expect the optimal\n"
      "rate well above 50%% and rho near 1.0.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace systemr

int main() { return systemr::bench::Main(); }
