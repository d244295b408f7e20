// E8 — §7 optimization-cost claims: "for a two-way join, the cost of
// optimization is approximately equivalent to between 5 and 20 database
// retrievals"; "joins of 8 tables have been optimized in a few seconds";
// "typical cases require only a few thousand bytes of storage"; the number
// of stored solutions is bounded by 2^n times the number of interesting
// orders.
//
// Every optimization time is the median of kTimingRuns parse + bind +
// enumerate runs on steady_clock, per (tables, heuristic).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "workload/querygen.h"

namespace systemr {
namespace bench {
namespace {

Database* g_db = nullptr;
ChainSchemaSpec g_spec;

std::string JoinSql(int n) {
  std::string sql = "SELECT R0.PK FROM ";
  for (int i = 0; i < n; ++i) {
    if (i > 0) sql += ", ";
    sql += "R" + std::to_string(i);
  }
  sql += " WHERE R0.A = 3";
  for (int i = 0; i + 1 < n; ++i) {
    sql += " AND R" + std::to_string(i) + ".FK = R" + std::to_string(i + 1) +
           ".PK";
  }
  return sql;
}

void SetUpDatabase() {
  static Database db(128);
  g_spec.num_tables = 8;
  g_spec.base_rows = 3000;
  g_spec.shrink = 0.7;
  Die(BuildChainSchema(&db, g_spec, 7));
  g_db = &db;
}

constexpr int kTimingRuns = 21;

/// Median wall time, in ms, of optimizing `sql` from text.
double MedianOptimizeMs(const std::string& sql,
                        JoinEnumerator::Options options = {}) {
  std::vector<double> ms;
  for (int i = 0; i < kTimingRuns; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    auto h = Harness::Make(g_db, sql, options);  // Parse + bind + enumerate.
    auto t1 = std::chrono::steady_clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::nth_element(ms.begin(), ms.begin() + kTimingRuns / 2, ms.end());
  return ms[kTimingRuns / 2];
}

void PrintSearchTable() {
  Header("E8 — search size and time vs number of relations");
  std::printf("%7s | %10s %10s %10s %9s %12s | %12s\n", "tables", "stored",
              "generated", "subsets", "bytes", "time(ms)", "2^n*orders");
  for (int n = 2; n <= 8; ++n) {
    std::string sql = JoinSql(n);
    auto h = Harness::Make(g_db, sql);
    double ms = MedianOptimizeMs(sql);
    size_t bound =
        (1u << n) * (h->enumerator->interesting_orders().size() + 1);
    std::printf("%7d | %10zu %10zu %10zu %9zu %12.2f | %12zu\n", n,
                h->enumerator->solutions_stored(),
                h->enumerator->solutions_generated(),
                h->enumerator->subsets_expanded(),
                h->enumerator->ApproxBytes(), ms, bound);
  }

  // "Equivalent database retrievals": time one single-tuple fetch through
  // the full execution stack and express the 2-way optimization time in
  // that unit.
  auto probe = Unwrap(g_db->Prepare("SELECT PK FROM R0 WHERE PK = 123"));
  double probe_ms = 0;
  const int kProbeReps = 200;
  for (int i = 0; i < kProbeReps; ++i) {
    g_db->rss().pool().FlushAll();
    auto t0 = std::chrono::steady_clock::now();
    auto r = g_db->Run(probe);
    auto t1 = std::chrono::steady_clock::now();
    Die(r.status());
    probe_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
  }
  probe_ms /= kProbeReps;

  double opt2_ms = 0;
  const int kOptReps = 50;
  for (int i = 0; i < kOptReps; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    auto h = Harness::Make(g_db, JoinSql(2));
    auto t1 = std::chrono::steady_clock::now();
    opt2_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
  }
  opt2_ms /= kOptReps;

  std::printf(
      "\n2-way join: optimize = %.3f ms, one indexed tuple retrieval = %.3f "
      "ms\n  → optimization ≈ %.1f database retrievals "
      "(paper: 5–20)\n",
      opt2_ms, probe_ms, opt2_ms / probe_ms);

  Header("Heuristic ablation (Cartesian-product deferral)");
  std::printf("%7s | %14s %14s | %14s %14s | %12s %12s\n", "tables",
              "stored(on)", "stored(off)", "generated(on)", "generated(off)",
              "ms(on)", "ms(off)");
  JoinEnumerator::Options off_opt;
  off_opt.cartesian_heuristic = false;
  for (int n = 3; n <= 8; ++n) {
    auto on = Harness::Make(g_db, JoinSql(n));
    auto off = Harness::Make(g_db, JoinSql(n), off_opt);
    std::printf("%7d | %14zu %14zu | %14zu %14zu | %12.2f %12.2f\n", n,
                on->enumerator->solutions_stored(),
                off->enumerator->solutions_stored(),
                on->enumerator->solutions_generated(),
                off->enumerator->solutions_generated(),
                MedianOptimizeMs(JoinSql(n)),
                MedianOptimizeMs(JoinSql(n), off_opt));
  }
}

}  // namespace
}  // namespace bench
}  // namespace systemr

int main() {
  systemr::bench::SetUpDatabase();
  systemr::bench::PrintSearchTable();
  return 0;
}
