// BENCH 8 — morsel-driven parallel speedup (scan / join / aggregation).
//
//   bench_parallel_scan [--out PATH] [--iters N]
//
// One fact table (~20k rows, well over a hundred heap pages) is scanned,
// joined against a small dimension, and aggregated at PARALLEL 1/2/4/8 in
// the paper's I/O-bound regime: the buffer pool holds a fraction of the
// working set and every miss pays a simulated device read (a sleep taken
// with the pool latch released, so concurrent workers overlap their waits —
// the same mechanism BENCH 5 uses for multi-session scaling, applied here
// to morsels of a single statement). Each iteration starts from a cold
// pool, so wall-clock is dominated by the fetches the exchange divides
// across its workers.
//
// Speedups are reported against the embedded pre-exchange serial baseline
// (measured at the commit before the parallel executor landed; dop=1 plans
// are byte-identical to that serial optimizer's) and against the live dop=1
// run of the same binary. The headline acceptance number is
// speedup_dop4_join_vs_baseline (>= 2.5 required).
//
// Writes BENCH_8.json with mean / p50 / p95 / p99 latency per mode plus the
// achieved worker and morsel counts from the statement's ExecStats.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "session/session.h"

namespace systemr {
namespace bench {
namespace {

constexpr int kFactRows = 20000;
constexpr size_t kPoolPages = 32;       // Working set is ~150 heap pages.
constexpr uint32_t kIoLatencyUs = 100;  // Simulated device read.
const int kDops[] = {1, 2, 4, 8};

struct Workload {
  const char* name;
  const char* sql;
  // Pre-exchange serial mean latency (microseconds) in this exact regime,
  // measured at the commit before the parallel executor landed. The serial
  // plan and executor path for these statements did not change, so the live
  // dop=1 numbers below should land near these.
  double baseline_serial_us;
};

const Workload kWorkloads[] = {
    {"scan", "SELECT A, B FROM BIG WHERE B < 10", 25275.0},
    {"join",
     "SELECT DIM.V, COUNT(*) FROM BIG, DIM "
     "WHERE BIG.B = DIM.K GROUP BY DIM.V",
     26505.0},
    {"agg", "SELECT B, COUNT(*), SUM(A) FROM BIG GROUP BY B", 25227.0},
};

struct ModeResult {
  std::string workload;
  int dop = 1;
  size_t rows = 0;
  uint64_t workers = 0;  // From the last iteration's ExecStats.
  uint64_t morsels = 0;
  double mean_us = 0, p50_us = 0, p95_us = 0, p99_us = 0;
};

double Percentile(const std::vector<double>& sorted, double q) {
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

ModeResult RunMode(Database* db, const Workload& w, int dop, int iters) {
  Session session(db);
  session.set_max_dop(dop);
  // Pin the requested dop: this bench measures executor scaling at fixed
  // dop, not the cost model's choice (that policy is covered by the
  // optimizer tests).
  db->options().force_parallel = dop > 1;
  PreparedStatement stmt = Unwrap(session.Prepare(w.sql));

  ModeResult r;
  r.workload = w.name;
  r.dop = dop;
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    db->rss().pool().FlushAll();  // Cold pool: every page pays the device.
    auto t0 = std::chrono::steady_clock::now();
    QueryResult result = Unwrap(stmt.Execute());
    auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    r.rows = result.rows.size();
    r.workers = result.stats.parallel_workers;
    r.morsels = result.stats.parallel_morsels;
  }
  std::sort(samples.begin(), samples.end());
  for (double s : samples) r.mean_us += s;
  r.mean_us /= static_cast<double>(samples.size());
  r.p50_us = Percentile(samples, 0.50);
  r.p95_us = Percentile(samples, 0.95);
  r.p99_us = Percentile(samples, 0.99);
  return r;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_8.json";
  int iters = 15;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: bench_parallel_scan [--out PATH] "
                           "[--iters N]\n");
      return 2;
    }
  }

  Database db(kPoolPages);
  // Heap-only tables: morsel fragments drive segment scans, and the equi
  // join must hash (a nested loop over an index-less inner would drown the
  // measurement; merge would serialize behind its sorts).
  db.options().join.enable_nested_loop = false;
  db.options().join.enable_merge_join = false;
  Die(db.ExecuteScript(R"(
    CREATE TABLE BIG (A INT, B INT);
    CREATE TABLE DIM (K INT, V STRING);
  )"));
  for (int k = 0; k < 100; ++k) {
    Die(db.Execute("INSERT INTO DIM VALUES (" + std::to_string(k) + ", 'V" +
                   std::to_string(k) + "')"));
  }
  for (int i = 0; i < kFactRows; ++i) {
    Die(db.Execute("INSERT INTO BIG VALUES (" + std::to_string(i) + ", " +
                   std::to_string(i % 100) + ")"));
  }
  Die(db.Execute("UPDATE STATISTICS BIG"));
  Die(db.Execute("UPDATE STATISTICS DIM"));
  db.rss().pool().set_sim_fetch_latency_us(kIoLatencyUs);

  Header("BENCH 8 — morsel-driven parallel speedup (I/O-bound, cold pool)");
  std::printf("pool %zu pages, %u us/fetch, %d iterations/mode, "
              "%u hardware threads\n\n",
              kPoolPages, kIoLatencyUs, iters,
              std::thread::hardware_concurrency());
  std::printf("%-6s | %3s | %7s | %9s %9s %9s %9s | %7s %7s | %8s %8s\n",
              "wl", "dop", "rows", "mean_us", "p50_us", "p95_us", "p99_us",
              "workers", "morsels", "vs_dop1", "vs_base");

  std::vector<ModeResult> results;
  for (const Workload& w : kWorkloads) {
    double dop1_mean = 0;
    for (int dop : kDops) {
      ModeResult r = RunMode(&db, w, dop, iters);
      if (dop == 1) dop1_mean = r.mean_us;
      std::printf(
          "%-6s | %3d | %7zu | %9.0f %9.0f %9.0f %9.0f | %7llu %7llu "
          "| %7.2fx %7.2fx\n",
          r.workload.c_str(), r.dop, r.rows, r.mean_us, r.p50_us, r.p95_us,
          r.p99_us, (unsigned long long)r.workers,
          (unsigned long long)r.morsels, dop1_mean / r.mean_us,
          w.baseline_serial_us / r.mean_us);
      results.push_back(std::move(r));
    }
  }

  auto mean_of = [&](const std::string& wl, int dop) {
    for (const ModeResult& r : results) {
      if (r.workload == wl && r.dop == dop) return r.mean_us;
    }
    return 0.0;
  };
  auto baseline_of = [&](const std::string& wl) {
    for (const Workload& w : kWorkloads) {
      if (wl == w.name) return w.baseline_serial_us;
    }
    return 0.0;
  };
  double headline = baseline_of("join") / mean_of("join", 4);
  std::printf("\nspeedup at dop=4 vs pre-exchange serial baseline: "
              "scan %.2fx, join %.2fx, agg %.2fx\n",
              baseline_of("scan") / mean_of("scan", 4), headline,
              baseline_of("agg") / mean_of("agg", 4));

  std::string out = "{\n  \"bench\": \"parallel_scan\",\n";
  out += "  \"fact_rows\": " + std::to_string(kFactRows) + ",\n";
  out += "  \"pool_pages\": " + std::to_string(kPoolPages) + ",\n";
  out += "  \"io_latency_us\": " + std::to_string(kIoLatencyUs) + ",\n";
  out += "  \"iters_per_mode\": " + std::to_string(iters) + ",\n";
  out += "  \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  out += "  \"modes\": [\n";
  char buf[512];
  for (size_t i = 0; i < results.size(); ++i) {
    const ModeResult& r = results[i];
    std::snprintf(
        buf, sizeof buf,
        "    {\"workload\": \"%s\", \"dop\": %d, \"rows\": %zu, "
        "\"workers\": %llu, \"morsels\": %llu, \"mean_us\": %.0f, "
        "\"p50_us\": %.0f, \"p95_us\": %.0f, \"p99_us\": %.0f, "
        "\"speedup_vs_dop1\": %.2f, \"speedup_vs_baseline\": %.2f}%s\n",
        r.workload.c_str(), r.dop, r.rows, (unsigned long long)r.workers,
        (unsigned long long)r.morsels, r.mean_us, r.p50_us, r.p95_us,
        r.p99_us, mean_of(r.workload, 1) / r.mean_us,
        baseline_of(r.workload) / r.mean_us,
        i + 1 < results.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n";
  std::snprintf(buf, sizeof buf,
                "  \"baseline_serial_us\": {\"scan\": %.0f, \"join\": %.0f, "
                "\"agg\": %.0f},\n"
                "  \"speedup_dop4_join_vs_baseline\": %.2f\n",
                baseline_of("scan"), baseline_of("join"), baseline_of("agg"),
                headline);
  out += buf;
  out += "}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("report: %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace systemr

int main(int argc, char** argv) { return systemr::bench::Main(argc, argv); }
