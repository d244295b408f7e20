// E2 — TABLE 2 reproduction: for each access-path situation, the predicted
// cost formula vs the metered cost of actually executing that path.
#include <cstdio>

#include "bench_common.h"
#include "workload/datagen.h"

namespace systemr {
namespace bench {
namespace {

void Report(const char* label, const char* formula, const PlanNode& path,
            const ExecResult& exec, double w) {
  std::printf("%-38s %-34s | %9.1f %9.1f %9.1f | %9llu %9llu %9.1f\n", label,
              formula, path.est.pages, path.est.rsi, path.est.cost,
              static_cast<unsigned long long>(exec.stats.page_io()),
              static_cast<unsigned long long>(exec.stats.rsi_calls),
              exec.stats.ActualCost(w));
}

PlanRef FindPath(const std::vector<PlanRef>& paths, AccessSituation situation,
                 const std::string& index_name = "") {
  for (const PlanRef& p : paths) {
    if (p->est.situation != situation) continue;
    if (!index_name.empty() &&
        (p->scan.index == nullptr || p->scan.index->name != index_name)) {
      continue;
    }
    return p;
  }
  return nullptr;
}

int Main() {
  const size_t kBufferPages = 128;
  Database db(kBufferPages);
  DataGen gen(&db, 23);
  // 120000 rows ≈ 1500 data pages >> buffer, so the non-clustered
  // large-relation case is exercised. C is the clustered key; A is a
  // non-clustered indexed column; K is a unique key.
  TableSpec t;
  t.name = "T";
  t.num_rows = 120000;
  t.columns = {{"K", ValueType::kInt64, 120000, 0, true},
               {"C", ValueType::kInt64, 100, 0, false},
               {"A", ValueType::kInt64, 100, 0, false},
               {"PAD", ValueType::kString, 120000, 0, false, 16}};
  t.indexes = {{"T_K", {"K"}, true, false},
               {"T_C", {"C"}, false, true},
               {"T_A", {"A"}, false, false}};
  t.cluster_by = "C";
  Die(gen.CreateAndLoad(t));

  const TableInfo* info = db.catalog().FindTable("T");
  std::printf("Catalog: NCARD=%llu TCARD=%llu P=%.2f buffer=%zu pages\n",
              static_cast<unsigned long long>(info->ncard),
              static_cast<unsigned long long>(info->tcard), info->p,
              kBufferPages);
  double w = db.options().cost.w;

  Header("TABLE 2 — single-relation access path costs: predicted vs metered");
  std::printf("%-38s %-34s | %9s %9s %9s | %9s %9s %9s\n", "situation",
              "paper formula", "pred.pg", "pred.rsi", "pred.cost", "act.pg",
              "act.rsi", "act.cost");

  struct Probe {
    const char* label;
    const char* formula;
    std::string sql;
    AccessSituation situation;
    std::string index;
  };
  std::vector<Probe> probes = {
      {"unique index, equal predicate", "1 + 1 + W",
       "SELECT K FROM T WHERE K = 60000", AccessSituation::kUniqueIndexEqual,
       "T_K"},
      {"clustered index, matching factor", "F*(NINDX+TCARD) + W*RSICARD",
       "SELECT K FROM T WHERE C = 42",
       AccessSituation::kClusteredIndexMatching, "T_C"},
      {"non-clustered index, matching", "F*(NINDX+NCARD) + W*RSICARD",
       "SELECT K FROM T WHERE A = 42",
       AccessSituation::kNonClusteredIndexMatching, "T_A"},
      {"clustered index, non-matching", "(NINDX+TCARD) + W*RSICARD",
       "SELECT K FROM T", AccessSituation::kClusteredIndexNonMatching,
       "T_C"},
      {"non-clustered index, non-matching", "(NINDX+NCARD) + W*RSICARD",
       "SELECT K FROM T", AccessSituation::kNonClusteredIndexNonMatching,
       "T_A"},
      {"segment scan", "TCARD/P + W*RSICARD", "SELECT K FROM T",
       AccessSituation::kSegmentScan, ""},
  };

  for (const Probe& probe : probes) {
    auto h = Harness::Make(&db, probe.sql, {}, /*run=*/false);
    PlanRef path =
        FindPath(h->ctx->AccessPaths(0, 0), probe.situation, probe.index);
    if (path == nullptr) {
      std::printf("%-38s: situation not generated!\n", probe.label);
      continue;
    }
    ExecResult exec = ExecuteCold(&db, *h->block, path);
    Report(probe.label, probe.formula, *path, exec, w);
  }

  Header("Buffer-fit variant (non-clustered matching)");
  std::printf(
      "The formula switches from F*(NINDX+TCARD) to F*(NINDX+NCARD) when the\n"
      "touched pages no longer fit in the buffer:\n\n");
  std::printf("%-14s %12s %12s %12s\n", "buffer(pages)", "pred.pages",
              "act.pages", "regime");
  for (size_t buffers : {8u, 32u, 128u, 4096u}) {
    db.options().cost.buffer_pages = buffers;
    db.rss().pool().set_capacity(buffers);
    auto h = Harness::Make(&db, "SELECT K FROM T WHERE A = 42", {}, false);
    PlanRef path = FindPath(h->ctx->AccessPaths(0, 0),
                            AccessSituation::kNonClusteredIndexMatching, "T_A");
    if (path == nullptr) continue;
    ExecResult exec = ExecuteCold(&db, *h->block, path);
    double fit = path->est.pages;
    bool small = fit > static_cast<double>(buffers);
    std::printf("%-14zu %12.1f %12llu %12s\n", buffers, fit,
                static_cast<unsigned long long>(exec.stats.page_io()),
                small ? "NCARD (thrash)" : "TCARD (fits)");
  }
  db.options().cost.buffer_pages = kBufferPages;
  db.rss().pool().set_capacity(kBufferPages);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace systemr

int main() { return systemr::bench::Main(); }
