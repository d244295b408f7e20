// olap_mix: one in-process Session with cached plans at dop 1 over the
// BENCH_6 chain schema (R0/R1/R2 = 20k/10k/5k rows, 399 data pages) and a
// 128-frame pool, under half the data pages alone. SQL and the optimizer
// are idle in the timed phase (plans are prepared and warmed in set-up), so
// exec, RSS decode and the buffer pool do the work. The traced run also
// runs the same statements on a second Session at Session::set_max_dop(2):
// the benchmark's only use of exec/parallel, with the dop-1 phase as its
// control.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "harness/differ.h"
#include "session/plan_cache.h"
#include "session/session.h"
#include "workload/querygen.h"

namespace perfbench {
namespace {

using systemr::Database;
using systemr::ExecStats;
using systemr::QueryResult;
using systemr::Rng;
using systemr::Row;
using systemr::Status;
using systemr::StatusOr;

constexpr size_t kPoolPages = 128;
// Rounds per second of --seconds. A round runs every class its weight's
// number of times, in one fixed order that all rounds share.
constexpr double kRoundsPerSecond = 5.1;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

struct OlapClass {
  const char* name;
  int weight;        // Executions per round.
  std::string head;  // SELECT ... FROM ...
  std::string where;  // Conjunction without WHERE (may be empty).
  std::string tail;   // GROUP BY / ORDER BY.
  // Reference check on a PK slice of the first FROM table (output column
  // 0) when the full reference run is too slow (join3: about 45M row
  // pairs); empty = check everything.
  std::string slice_pk;
  int64_t slice_width = 0;
  int64_t slice_domain = 0;
  bool sorted_on_col1 = false;

  std::string Sql() const {
    return head + (where.empty() ? "" : " WHERE " + where) +
           (tail.empty() ? "" : " " + tail);
  }
};

// The classes. Literals are drawn from the seed as fixed-width windows over
// uniform columns, so each class does about the same work for every seed.
// The classes fall into two latency clusters: scan, hagg, count and subq
// (5-7.5 ms) and sort, join3 and hjoin (13-16 ms). Within one run each
// class's latency varies by about a fifth with the host, so the clusters'
// edges blur. Weights (20 statements a round, 14 of them in the fast
// cluster) keep p50 well inside the fast cluster and p90 well inside the
// slow one, away from the edge where they meet (METHOD.md).
std::vector<OlapClass> MakeClasses(uint64_t seed) {
  Rng rng(seed ^ 0x6f6c6170ull);
  auto window = [&](const std::string& col, int64_t width, int64_t domain) {
    int64_t lo = rng.Uniform(0, domain - width);
    return col + " BETWEEN " + std::to_string(lo) + " AND " +
           std::to_string(lo + width - 1);
  };
  std::vector<OlapClass> c;
  c.push_back({"scan", 4, "SELECT R0.PK, R0.A, R0.B FROM R0",
               "R0.A + R0.B < 60 OR " + window("R0.PK", 2000, 20000), "", "",
               0, 0, false});
  c.push_back({"join3", 2, "SELECT R0.PK, R2.A FROM R0, R1, R2",
               "R0.FK = R1.PK AND R1.FK = R2.PK AND " +
                   window("R0.B", 15, 100) + " AND R0.A + R2.B < 70",
               "", "R0.PK", 100, 20000, false});
  c.push_back({"hjoin", 2, "SELECT R1.PK, R2.PK FROM R1, R2",
               "R1.B = R2.B AND " + window("R1.A", 10, 100), "", "", 0, 0,
               false});
  c.push_back({"hagg", 3, "SELECT R0.B, COUNT(*), SUM(R0.A) FROM R0", "",
               "GROUP BY R0.B", "", 0, 0, false});
  c.push_back({"count", 4, "SELECT COUNT(*) FROM R0", "", "", "", 0, 0, false});
  c.push_back({"sort", 2, "SELECT R1.PK, R1.B FROM R1", "", "ORDER BY R1.B",
               "", 0, 0, true});
  c.push_back({"subq", 3, "SELECT X.PK FROM R1 X",
               window("X.A", 5, 100) +
                   " AND X.B <= (SELECT MAX(Y.B) FROM R2 Y WHERE Y.A = X.A)",
               "", "", 0, 0, false});
  return c;
}

struct Env {
  std::unique_ptr<Database> db;
  std::unique_ptr<systemr::PlanCache> cache;
  std::unique_ptr<systemr::Session> session;
  std::vector<systemr::PreparedStatement> stmts;  // One per class.
};

std::vector<systemr::PreparedStatement> PrepareAll(
    systemr::Session* session, const std::vector<OlapClass>& classes) {
  std::vector<systemr::PreparedStatement> out;
  for (const OlapClass& c : classes) {
    StatusOr<systemr::PreparedStatement> p = session->Prepare(c.Sql());
    Die(p.status(), std::string("prepare ") + c.name);
    out.push_back(std::move(*p));
  }
  // Warm-up, twice: the first run may trigger the one-time feedback
  // replan, the second runs the final plan (and starts the worker pool).
  for (int pass = 0; pass < 2; ++pass) {
    for (systemr::PreparedStatement& s : out) {
      Die(s.Execute().status(), "warm-up " + s.sql());
    }
  }
  return out;
}

std::unique_ptr<Env> BuildEnv(uint64_t seed,
                              const std::vector<OlapClass>& classes) {
  auto env = std::make_unique<Env>();
  env->db = std::make_unique<Database>(kPoolPages);
  systemr::ChainSchemaSpec spec;
  spec.num_tables = 3;
  spec.base_rows = 20000;
  spec.shrink = 0.5;
  spec.a_domain = 100;
  spec.b_domain = 100;
  Die(systemr::BuildChainSchema(env->db.get(), spec, seed), "load chain");
  env->cache = std::make_unique<systemr::PlanCache>(64);
  env->session =
      std::make_unique<systemr::Session>(env->db.get(), env->cache.get());
  env->stmts = PrepareAll(env->session.get(), classes);
  return env;
}

// Per-class sums over one phase's executions.
struct ClassStats {
  uint64_t runs = 0;
  ExecStats sum;
  uint64_t rows_out = 0;
  std::vector<double> run_us;
};

void Accumulate(ClassStats* c, const QueryResult& r) {
  ++c->runs;
  c->rows_out += r.rows.size();
  AddExecStats(&c->sum, r.stats);
}

struct Phase {
  Timing timing;
  std::vector<ClassStats> classes;
};

// Runs `rounds` rounds of the mix. The first result of each class is kept
// in `first_rows` (when non-null) for the correctness checks; every later
// execution must return the same number of rows.
Phase RunPhase(std::vector<systemr::PreparedStatement>* stmts,
               const std::vector<int>& order, size_t rounds, TraceBuffer* tb,
               std::vector<std::vector<Row>>* first_rows, Report* report) {
  Phase ph;
  ph.classes.resize(stmts->size());
  std::vector<size_t> want_rows(stmts->size(), SIZE_MAX);
  ph.timing.Start(rounds * order.size());
  uint32_t stmt_id = 0;
  for (size_t r = 0; r < rounds; ++r) {
    for (int ci : order) {
      size_t c = static_cast<size_t>(ci);
      if (tb != nullptr) tb->set_stmt(stmt_id++);
      StatusOr<QueryResult> res = Status::OK();
      int64_t t0 = NowNs();
      {
        SpanScope stmt(tb, SpanName::kStmt);
        SpanScope exec(tb, SpanName::kSessionExecute);
        res = (*stmts)[c].Execute();
      }
      int64_t t1 = NowNs();
      ph.timing.Record(t0, t1, res.ok());
      if (!res.ok()) continue;
      ph.classes[c].run_us.push_back((t1 - t0) / 1e3);
      Accumulate(&ph.classes[c], *res);
      if (want_rows[c] == SIZE_MAX) {
        want_rows[c] = res->rows.size();
        if (first_rows != nullptr) (*first_rows)[c] = std::move(res->rows);
      } else if (res->rows.size() != want_rows[c]) {
        report->Fail("olap: " + (*stmts)[c].sql() +
                     " returned a different row count on a repeat run");
      }
    }
  }
  return ph;
}

// Reference checks for every class's timed-phase result.
void CheckAgainstReference(Database* db, uint64_t seed,
                           const std::vector<OlapClass>& classes,
                           const std::vector<std::vector<Row>>& rows,
                           Report* report) {
  Rng rng(seed ^ 0x736c696365ull);
  for (size_t c = 0; c < classes.size(); ++c) {
    const OlapClass& k = classes[c];
    std::string what = std::string("olap class ") + k.name;
    if (k.sorted_on_col1 &&
        !systemr::RowsSorted(rows[c], {{1, true}})) {
      report->Fail(what + ": ORDER BY output not sorted");
    }
    if (k.slice_pk.empty()) {
      StatusOr<std::vector<Row>> ref = ReferenceRows(db, k.Sql());
      if (!ref.ok()) {
        report->Fail(what + ": reference failed: " + ref.status().ToString());
        continue;
      }
      CheckSameRows(report, what, *ref, rows[c]);
      continue;
    }
    // Seeded PK slice: the reference's nested loops over the full tables
    // would take minutes.
    int64_t lo = rng.Uniform(0, k.slice_domain - k.slice_width);
    int64_t hi = lo + k.slice_width - 1;
    StatusOr<std::vector<Row>> ref = ReferenceRows(
        db, k.head + " WHERE " + k.where + " AND " + k.slice_pk + " BETWEEN " +
                std::to_string(lo) + " AND " + std::to_string(hi));
    if (!ref.ok()) {
      report->Fail(what + ": reference failed: " + ref.status().ToString());
      continue;
    }
    std::vector<Row> mine;
    for (const Row& row : rows[c]) {
      int64_t pk = row[0].AsInt();
      if (pk >= lo && pk <= hi) mine.push_back(row);
    }
    CheckSameRows(report, what + " (PK slice)", *ref, mine);
  }
}

// Raw segment scans of each table, no operators above: ns per tuple.
double ScanNsPerTuple(Database* db, TraceBuffer* tb) {
  std::vector<double> per_pass;
  for (int pass = 0; pass < 3; ++pass) {
    int64_t ns = 0;
    uint64_t tuples = 0;
    for (size_t i = 0; i < db->catalog().num_tables(); ++i) {
      const systemr::TableInfo* t =
          db->catalog().table(static_cast<systemr::RelId>(i));
      SpanScope span(tb, SpanName::kSegmentScan);
      int64_t t0 = NowNs();
      std::unique_ptr<systemr::RsiScan> scan =
          db->rss().OpenSegmentScan(t->id, {});
      Die(scan->Open(), "raw scan open");
      std::vector<Row> batch;
      std::vector<systemr::Tid> tids;
      size_t n = 0;
      do {
        Die(scan->NextBatch(&batch, &tids, 1024, &n), "raw scan");
        tuples += n;
      } while (n > 0);
      scan->Close();
      ns += NowNs() - t0;
    }
    per_pass.push_back(static_cast<double>(ns) /
                       static_cast<double>(std::max<uint64_t>(tuples, 1)));
  }
  return Median(per_pass);
}

double PerRun(uint64_t v, uint64_t runs) {
  return static_cast<double>(v) / static_cast<double>(std::max<uint64_t>(runs, 1));
}

// Per-layer figures of the traced dop-1 phase `ph`; the parallel ones come
// from the dop-2 phase `par`, with `ph` as the serial control.
void AddPerLayer(const Phase& ph, const Phase& par,
                 const std::vector<OlapClass>& classes, Report* report) {
  ClassStats all;
  ExecStats par_sum;
  uint64_t par_runs = 0;
  for (size_t c = 0; c < classes.size(); ++c) {
    const ClassStats& s = ph.classes[c];
    const ClassStats& p = par.classes[c];
    const std::string n = classes[c].name;
    report->Add("exec.run_us." + n, Median(s.run_us));
    report->Add("rss.buffer_gets." + n, PerRun(s.sum.buffer_gets, s.runs));
    report->Add("rss.page_fetches." + n, PerRun(s.sum.page_fetches, s.runs));
    report->Add("rss.rsi_calls." + n, PerRun(s.sum.rsi_calls, s.runs));
    report->Add("exec.rows_out." + n, PerRun(s.rows_out, s.runs));
    report->Add("exec.batches." + n, PerRun(s.sum.batches, s.runs));
    report->Add("parallel.morsels." + n, PerRun(p.sum.parallel_morsels, p.runs));
    report->Add("parallel.speedup." + n, Median(s.run_us) / Median(p.run_us));
    AddExecStats(&par_sum, p.sum);
    par_runs += p.runs;
    all.runs += s.runs;
    all.rows_out += s.rows_out;
    all.run_us.insert(all.run_us.end(), s.run_us.begin(), s.run_us.end());
    AddExecStats(&all.sum, s.sum);
  }
  const ExecStats& t = all.sum;
  double run_ns = 0;
  for (double us : all.run_us) run_ns += us * 1e3;
  report->Add("exec.run_us", Median(all.run_us));
  report->Add("exec.ns_per_rsi", run_ns / std::max<double>(1, t.rsi_calls));
  report->Add("exec.rows_out", PerRun(all.rows_out, all.runs));
  report->Add("exec.batches", PerRun(t.batches, all.runs));
  report->Add("exec.sel_density", t.AvgSelectionDensity());
  report->Add("exec.hash_build_rows", PerRun(t.hash_build_rows, all.runs));
  report->Add("exec.hash_probe_rows", PerRun(t.hash_probe_rows, all.runs));
  report->Add("exec.subquery_evals", PerRun(t.subquery_evals, all.runs));
  report->Add("exec.subquery_cache_hits",
              PerRun(t.subquery_cache_hits, all.runs));
  report->Add("rss.buffer_gets", PerRun(t.buffer_gets, all.runs));
  report->Add("rss.page_fetches", PerRun(t.page_fetches, all.runs));
  report->Add("rss.rsi_calls", PerRun(t.rsi_calls, all.runs));
  report->Add("rss.buffer_hit_ratio", t.BufferHitRatio());
  report->Add("parallel.workers", PerRun(par_sum.parallel_workers, par_runs));
  report->Add("parallel.morsels", PerRun(par_sum.parallel_morsels, par_runs));
}

}  // namespace

void RunOlap(const Options& opt, Report* report) {
  std::vector<OlapClass> classes = MakeClasses(opt.seed);
  // One fixed interleaving, shared by every round: classes take turns
  // until each has run its weight's number of times.
  std::vector<int> order;
  int turns = 0;
  for (const OlapClass& c : classes) turns = std::max(turns, c.weight);
  for (int turn = 0; turn < turns; ++turn) {
    for (size_t c = 0; c < classes.size(); ++c) {
      if (turn < classes[c].weight) order.push_back(static_cast<int>(c));
    }
  }

  double setup_s = 0;
  std::unique_ptr<Env> env = RepeatSetup(
      kSetups, [&] { return BuildEnv(opt.seed, classes); }, &setup_s);

  size_t rounds = std::max<size_t>(
      2, static_cast<size_t>(kRoundsPerSecond * opt.seconds));
  if (opt.trace) rounds /= 2;
  std::vector<std::vector<Row>> rows(classes.size());
  Phase a = RunPhase(&env->stmts, order, rounds, nullptr, &rows, report);
  report->attempted += a.timing.latency_us.size();
  report->failed += a.timing.failed;
  double rate_a = MedianBlockRate({&a.timing}, order.size());
  // A second session at dop 2 over the same data and plan cache (its plans
  // are cached under their own dop keys): the traced run times it, and
  // every run checks its rows against the timed dop-1 phase's.
  systemr::Session par(env->db.get(), env->cache.get());
  par.set_max_dop(2);

  if (!opt.trace) {
    report->Add("stmts_per_s", rate_a);
    report->Add("p50_us", Percentile(a.timing.latency_us, 0.50));
    report->Add("p90_us", Percentile(a.timing.latency_us, 0.90));
    report->Add("setup_s", setup_s);
    // Read before the correctness checks, whose reference runs are not
    // the engine's memory.
    report->Add("peak_rss_mb", PeakRssMb());
  } else {
    TraceBuffer tb(true, 0);
    TraceBuffer par_tb(true, 1);
    Phase b = RunPhase(&env->stmts, order, rounds, &tb, nullptr, report);
    report->attempted += b.timing.latency_us.size();
    report->failed += b.timing.failed;
    double rate_b = MedianBlockRate({&b.timing}, order.size());
    report->Add("trace.overhead_frac", 1.0 - rate_b / rate_a);
    const systemr::SessionStats& ss = env->session->stats();
    report->Add("session.optimizations", static_cast<double>(ss.optimizations));
    report->Add("session.feedback_replans",
                static_cast<double>(ss.feedback_replans));
    systemr::PlanCacheStats cs = env->cache->stats();
    report->Add("session.cache_hit_ratio",
                static_cast<double>(cs.hits) /
                    static_cast<double>(std::max<uint64_t>(1, cs.hits + cs.misses)));
    report->Add("session.invalidations", static_cast<double>(cs.invalidations));

    std::vector<systemr::PreparedStatement> pstmts = PrepareAll(&par, classes);
    Phase p = RunPhase(&pstmts, order, std::max<size_t>(1, rounds / 2),
                       &par_tb, nullptr, report);
    report->attempted += p.timing.latency_us.size();
    report->failed += p.timing.failed;
    AddPerLayer(b, p, classes, report);
    report->Add("rss.scan_ns_per_tuple", ScanNsPerTuple(env->db.get(), &tb));
    if (!opt.trace_out.empty() && !WriteTrace(opt.trace_out, {&tb, &par_tb})) {
      report->notes.push_back("could not write " + opt.trace_out);
    }
  }

  // Correctness, outside the timed phase.
  CheckAgainstReference(env->db.get(), opt.seed, classes, rows, report);
  for (size_t c = 0; c < classes.size(); ++c) {
    StatusOr<QueryResult> r = par.ExecuteQuery(classes[c].Sql());
    if (!r.ok()) {
      report->Fail(std::string("dop-2 run failed: ") + classes[c].name);
      continue;
    }
    CheckSameRows(report, std::string("olap dop 2 vs dop 1, class ") +
                              classes[c].name,
                  rows[c], r->rows);
  }
  std::vector<double> rates = a.timing.BlockRates(order.size());
  char spread[128];
  std::snprintf(spread, sizeof spread,
                "round rates (1/s) Q1 %.1f, median %.1f, Q3 %.1f",
                Percentile(rates, 0.25), Median(rates), Percentile(rates, 0.75));
  report->notes.push_back("pool " + std::to_string(kPoolPages) +
                          " frames, dop 1, rounds " + std::to_string(rounds) +
                          " x " + std::to_string(order.size()) +
                          " statements; " + spread);
}

}  // namespace perfbench
