// adhoc_plan: one in-process Session issuing seeded QueryGen statements
// (single-table queries and 3-5-way chain joins) with fresh literals over
// small tables that fit the pool. Every text misses the plan cache, so
// parse, bind and the DP optimizer dominate and exec is small.
//
// The traced phase issues its statements through the public pieces the
// Session composes (NormalizeSql and PlanCache, Parse, Binder::Bind,
// Optimizer::Optimize, Database::Run, and the feedback replan), so each
// layer gets its own span.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "optimizer/feedback.h"
#include "session/plan_cache.h"
#include "session/session.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "workload/querygen.h"

namespace perfbench {
namespace {

using systemr::Database;
using systemr::ExecStats;
using systemr::OptimizedQuery;
using systemr::QueryResult;
using systemr::Rng;
using systemr::Row;
using systemr::Status;
using systemr::StatusOr;

constexpr size_t kPoolPages = 256;  // Holds every data and index page.
constexpr double kStmtsPerSecond = 1400;
constexpr size_t kBlock = 250;  // Statements per rate block.
constexpr size_t kRefSamples = 24;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// Tables joined by each slot of a round; 1 = single-table query.
constexpr int kRound[] = {1, 3, 1, 4, 1, 5, 1, 3, 4, 5};

systemr::ChainSchemaSpec Spec() {
  systemr::ChainSchemaSpec spec;
  spec.num_tables = 5;
  spec.base_rows = 1000;
  spec.shrink = 0.5;
  spec.a_domain = 50;
  spec.b_domain = 50;
  return spec;
}

std::vector<std::string> MakeStatements(uint64_t seed, uint64_t stream,
                                        size_t n) {
  systemr::QueryGen gen(Spec(), seed * 0x9E3779B97F4A7C15ull + stream);
  std::vector<std::string> out;
  out.reserve(n);
  constexpr size_t kSlots = sizeof(kRound) / sizeof(kRound[0]);
  for (size_t i = 0; i < n; ++i) {
    int k = kRound[i % kSlots];
    out.push_back(k == 1 ? gen.RandomSingleTableQuery()
                         : gen.RandomJoinQuery(k));
  }
  return out;
}

struct Env {
  std::unique_ptr<Database> db;
  std::unique_ptr<systemr::PlanCache> cache;
  std::unique_ptr<systemr::Session> session;
};

std::unique_ptr<Env> BuildEnv(uint64_t seed) {
  auto env = std::make_unique<Env>();
  env->db = std::make_unique<Database>(kPoolPages);
  Die(systemr::BuildChainSchema(env->db.get(), Spec(), seed), "load chain");
  env->cache = std::make_unique<systemr::PlanCache>(64);
  env->session =
      std::make_unique<systemr::Session>(env->db.get(), env->cache.get());
  for (const std::string& sql : MakeStatements(seed, 99, 20)) {
    Die(env->session->ExecuteQuery(sql).status(), "warm-up " + sql);
  }
  return env;
}

struct TracedStats {
  std::vector<double> parse_us, bind_us, optimize_us, run_us;
  uint64_t generated = 0, stored = 0, search_bytes = 0, rows_out = 0;
  ExecStats exec;
};

// One statement through the Session's steps, each under its own span.
Status RunTraced(Env* env, const std::string& sql, TraceBuffer* tb,
                 TracedStats* ts) {
  Database* db = env->db.get();
  auto compile = [&](OptimizedQuery* out) -> Status {
    int64_t t0 = NowNs();
    StatusOr<systemr::Statement> stmt = Status::OK();
    {
      SpanScope span(tb, SpanName::kParse);
      stmt = systemr::Parse(sql);
    }
    int64_t t1 = NowNs();
    RETURN_IF_ERROR(stmt.status());
    StatusOr<std::unique_ptr<systemr::BoundQueryBlock>> block = Status::OK();
    {
      SpanScope span(tb, SpanName::kBind);
      systemr::Binder binder(&db->catalog());
      block = binder.Bind(*stmt->select);
    }
    int64_t t2 = NowNs();
    RETURN_IF_ERROR(block.status());
    StatusOr<OptimizedQuery> q = Status::OK();
    {
      SpanScope span(tb, SpanName::kOptimize);
      systemr::Optimizer optimizer(&db->catalog(), db->options());
      q = optimizer.Optimize(std::move(*block));
    }
    int64_t t3 = NowNs();
    RETURN_IF_ERROR(q.status());
    ts->parse_us.push_back((t1 - t0) / 1e3);
    ts->bind_us.push_back((t2 - t1) / 1e3);
    ts->optimize_us.push_back((t3 - t2) / 1e3);
    ts->generated += q->solutions_generated;
    ts->stored += q->solutions_stored;
    ts->search_bytes += q->search_bytes;
    q->num_params = stmt->num_params;
    *out = std::move(*q);
    return Status::OK();
  };

  std::string key;
  uint64_t version = db->catalog().version();
  std::shared_ptr<const OptimizedQuery> plan;
  {
    SpanScope span(tb, SpanName::kSessionPlan);
    key = systemr::NormalizeSql(sql);
    plan = env->cache->Lookup(key, version);
  }
  if (plan == nullptr) {
    OptimizedQuery query;
    RETURN_IF_ERROR(compile(&query));
    plan = std::make_shared<const OptimizedQuery>(std::move(query));
    SpanScope span(tb, SpanName::kSessionPlan);
    env->cache->Insert(key, version, plan);
  }
  StatusOr<QueryResult> r = Status::OK();
  int64_t t0 = NowNs();
  {
    SpanScope span(tb, SpanName::kRun);
    r = db->Run(*plan, {}, &env->session->limits());
  }
  ts->run_us.push_back((NowNs() - t0) / 1e3);
  RETURN_IF_ERROR(r.status());
  ts->rows_out += r->rows.size();
  AddExecStats(&ts->exec, r->stats);
  // The Session replans a plan once when its result is off the estimate by
  // more than the q-error threshold.
  double est = std::max(plan->est_rows, 1.0);
  double actual = std::max(static_cast<double>(r->rows.size()), 1.0);
  if (db->options().feedback != nullptr && !plan->feedback_replanned &&
      std::max(est / actual, actual / est) > systemr::kReplanQErrorThreshold) {
    SpanScope span(tb, SpanName::kReplan);
    env->cache->Remove(key);
    OptimizedQuery again;
    RETURN_IF_ERROR(compile(&again));
    again.feedback_replanned = true;
    env->cache->Insert(key, version,
                       std::make_shared<const OptimizedQuery>(std::move(again)));
  }
  return Status::OK();
}

double PerStmt(uint64_t v, size_t n) {
  return static_cast<double>(v) / static_cast<double>(std::max<size_t>(n, 1));
}

}  // namespace

void RunAdhocPlan(const Options& opt, Report* report) {
  double setup_s = 0;
  std::unique_ptr<Env> env =
      RepeatSetup(kSetups, [&] { return BuildEnv(opt.seed); }, &setup_s);

  size_t n = static_cast<size_t>(kStmtsPerSecond * opt.seconds);
  if (opt.trace) n /= 2;
  std::vector<std::string> stmts = MakeStatements(opt.seed, 0, n);
  // A seeded sample of the timed statements is checked against the
  // reference executor afterwards.
  Rng pick(opt.seed ^ 0x73616d70ull);
  size_t stride = std::max<size_t>(1, n / kRefSamples);
  size_t offset = static_cast<size_t>(pick.Uniform(0, static_cast<int64_t>(stride) - 1));
  std::vector<std::pair<size_t, std::vector<Row>>> sample;

  Timing a;
  a.Start(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t t0 = NowNs();
    StatusOr<QueryResult> r = env->session->ExecuteQuery(stmts[i]);
    int64_t t1 = NowNs();
    a.Record(t0, t1, r.ok());
    if (r.ok() && i % stride == offset) sample.emplace_back(i, std::move(r->rows));
  }
  report->attempted += n;
  report->failed += a.failed;
  double rate_a = MedianBlockRate({&a}, kBlock);

  if (!opt.trace) {
    report->Add("stmts_per_s", rate_a);
    report->Add("p50_us", Percentile(a.latency_us, 0.50));
    report->Add("p90_us", Percentile(a.latency_us, 0.90));
    report->Add("setup_s", setup_s);
    // Read before the correctness checks, whose reference runs are not
    // the engine's memory.
    report->Add("peak_rss_mb", PeakRssMb());
  } else {
    std::vector<std::string> traced = MakeStatements(opt.seed, 1, n);
    TraceBuffer tb(true, 0);
    TracedStats ts;
    Timing b;
    b.Start(n);
    for (size_t i = 0; i < n; ++i) {
      tb.set_stmt(static_cast<uint32_t>(i));
      int64_t t0 = NowNs();
      Status s;
      {
        SpanScope stmt(&tb, SpanName::kStmt);
        s = RunTraced(env.get(), traced[i], &tb, &ts);
      }
      b.Record(t0, NowNs(), s.ok());
    }
    report->attempted += n;
    report->failed += b.failed;
    double rate_b = MedianBlockRate({&b}, kBlock);
    report->Add("trace.overhead_frac", 1.0 - rate_b / rate_a);
    report->Add("sql.parse_us", Median(ts.parse_us));
    report->Add("sql.bind_us", Median(ts.bind_us));
    report->Add("optimizer.optimize_us", Median(ts.optimize_us));
    report->Add("exec.run_us", Median(ts.run_us));
    report->Add("optimizer.plans_generated", PerStmt(ts.generated, n));
    report->Add("optimizer.plans_stored", PerStmt(ts.stored, n));
    report->Add("optimizer.search_bytes", PerStmt(ts.search_bytes, n));
    double run_ns = 0;
    for (double us : ts.run_us) run_ns += us * 1e3;
    report->Add("exec.ns_per_rsi",
                run_ns / std::max<double>(1, ts.exec.rsi_calls));
    report->Add("exec.rows_out", PerStmt(ts.rows_out, n));
    report->Add("exec.batches", PerStmt(ts.exec.batches, n));
    report->Add("exec.sel_density", ts.exec.AvgSelectionDensity());
    report->Add("exec.hash_build_rows", PerStmt(ts.exec.hash_build_rows, n));
    report->Add("exec.hash_probe_rows", PerStmt(ts.exec.hash_probe_rows, n));
    report->Add("rss.buffer_gets", PerStmt(ts.exec.buffer_gets, n));
    report->Add("rss.page_fetches", PerStmt(ts.exec.page_fetches, n));
    report->Add("rss.rsi_calls", PerStmt(ts.exec.rsi_calls, n));
    report->Add("rss.buffer_hit_ratio", ts.exec.BufferHitRatio());
    const systemr::SessionStats& ss = env->session->stats();
    report->Add("session.optimizations", static_cast<double>(ss.optimizations));
    report->Add("session.feedback_replans",
                static_cast<double>(ss.feedback_replans));
    systemr::PlanCacheStats cs = env->cache->stats();
    report->Add("session.cache_hit_ratio",
                static_cast<double>(cs.hits) /
                    static_cast<double>(std::max<uint64_t>(1, cs.hits + cs.misses)));
    report->Add("session.invalidations", static_cast<double>(cs.invalidations));
    if (!opt.trace_out.empty() && !WriteTrace(opt.trace_out, {&tb})) {
      report->notes.push_back("could not write " + opt.trace_out);
    }
  }

  for (const auto& [i, rows] : sample) {
    StatusOr<std::vector<Row>> ref = ReferenceRows(env->db.get(), stmts[i]);
    if (!ref.ok()) {
      report->Fail("adhoc reference failed: " + ref.status().ToString());
      continue;
    }
    CheckSameRows(report, "adhoc statement [" + stmts[i] + "]", *ref, rows);
  }
  report->notes.push_back("chain R0..R4 from 1000 rows, pool " +
                          std::to_string(kPoolPages) + " frames, " +
                          std::to_string(sample.size()) +
                          " statements checked against the reference");
}

}  // namespace perfbench
