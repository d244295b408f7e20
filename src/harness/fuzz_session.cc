#include "harness/fuzz_session.h"

#include <atomic>
#include <thread>
#include <utility>

#include "db/database.h"
#include "harness/differ.h"
#include "harness/ref_executor.h"
#include "session/session.h"
#include "workload/querygen.h"

namespace systemr {

std::unordered_map<RelId, std::vector<PageId>> RelPageMap(Database* db) {
  std::unordered_map<RelId, std::vector<PageId>> map;
  const Catalog& catalog = db->catalog();
  for (size_t i = 0; i < catalog.num_tables(); ++i) {
    const TableInfo* t = catalog.table(static_cast<RelId>(i));
    map[t->id] = db->rss().segment(t->segment)->pages();
  }
  return map;
}

namespace {

struct Violation {
  std::vector<std::string>* sink;
  uint64_t seed;
  const std::string* sql;
  int thread = -1;  // >= 0 in concurrent mode.

  void Add(const std::string& oracle, const std::string& detail) {
    std::string line = "seed=" + std::to_string(seed);
    if (thread >= 0) line += " thread=" + std::to_string(thread);
    line += " oracle=" + oracle + " sql=[" + *sql + "] " + detail;
    sink->push_back(std::move(line));
  }
};

// Status codes a query may surface when storage faults or statement limits
// are in play. Anything else (kInternal, a crash) is a robustness violation.
bool IsCleanFaultStatus(StatusCode code) {
  return code == StatusCode::kDataLoss || code == StatusCode::kIoError ||
         code == StatusCode::kResourceExhausted ||
         code == StatusCode::kCancelled;
}

// Fault-injection oracle for one prepared query. The injector is armed only
// around the engine run; the reference rows were computed from the pristine
// store. Protocol:
//   1. armed run: either the reference-correct multiset, or a clean Status
//      whose code is one of the storage/limit codes;
//   2. disarmed rerun on the same engine: must succeed and match — faults
//      are transient and must not have corrupted any durable state.
void RunFaultProtocol(Database* db, const OptimizedQuery& prepared,
                      const std::vector<Row>& ref_rows, FaultInjector* injector,
                      bool tiny_budget, FuzzReport* report, Violation* v) {
  // Flush so the armed run actually reads from the simulated device; a warm
  // pool would see only injection-free hits.
  db->rss().pool().FlushAll();
  ExecLimits limits;
  if (tiny_budget) limits.max_buffer_gets = 32;
  db->set_exec_limits(limits);
  injector->Arm();
  auto run = db->Run(prepared);
  injector->Disarm();
  db->set_exec_limits(ExecLimits{});
  if (report != nullptr) ++report->fault_queries;

  if (run.ok()) {
    if (!SameRowMultiset(ref_rows, run->rows)) {
      v->Add("fault-wrong-answer",
             "injected faults changed the result without an error: " +
                 DiffSummary(ref_rows, run->rows));
      return;
    }
    if (report != nullptr) ++report->fault_clean_results;
  } else {
    if (!IsCleanFaultStatus(run.status().code())) {
      v->Add("fault-bad-status",
             "unexpected status under injection: " + run.status().ToString());
      return;
    }
    if (report != nullptr) {
      ++report->fault_clean_errors;
      if (run.status().code() == StatusCode::kResourceExhausted) {
        ++report->fault_budget_aborts;
      }
    }
  }

  // Fault-free rerun: the same engine instance must still be fully usable
  // and still agree with the reference.
  db->rss().pool().FlushAll();
  auto rerun = db->Run(prepared);
  if (!rerun.ok()) {
    v->Add("fault-rerun", "fault-free rerun failed: " +
                              rerun.status().ToString());
    return;
  }
  if (!SameRowMultiset(ref_rows, rerun->rows)) {
    v->Add("fault-rerun",
           "fault-free rerun diverged: " + DiffSummary(ref_rows, rerun->rows));
  }
}

// Runs `sql` through Prepare+Run and compares against the reference rows.
// Returns true if the query executed (regardless of comparison outcome).
bool RunAndCompare(Database* db, const std::string& sql,
                   const std::vector<Row>& ref_rows, const std::string& oracle,
                   Violation* v) {
  auto prepared = db->Prepare(sql);
  if (!prepared.ok()) {
    v->Add(oracle, "prepare failed: " + prepared.status().message());
    return false;
  }
  auto result = db->Run(*prepared);
  if (!result.ok()) {
    v->Add(oracle, "run failed: " + result.status().message());
    return false;
  }
  if (!SameRowMultiset(ref_rows, result->rows)) {
    v->Add(oracle, DiffSummary(ref_rows, result->rows));
  }
  return true;
}

}  // namespace

SeedResult RunFuzzSeed(uint64_t seed, const FuzzOptions& options,
                       FuzzReport* report) {
  SeedResult out;
  out.seed = seed;

  auto family = static_cast<FuzzSchema::Family>(seed % 3);
  FuzzSchema schema = MakeFuzzSchema(family, seed);

  Database db(64);
  Database twin(64);  // Identical data, no secondary indexes.
  Status built = BuildFuzzSchema(&db, schema, seed, /*secondary_indexes=*/true);
  if (built.ok()) {
    built = BuildFuzzSchema(&twin, schema, seed, /*secondary_indexes=*/false);
  }
  if (!built.ok()) {
    out.violations.push_back("seed=" + std::to_string(seed) +
                             " oracle=schema-build " + built.message());
    return out;
  }
  db.options().join = options.join;
  twin.options().join = options.join;
  db.options().use_column_stats = options.use_column_stats;
  twin.options().use_column_stats = options.use_column_stats;
  if (options.max_dop > 1) {
    // Forced: fuzz tables are tiny, so the startup penalty would otherwise
    // keep every plan serial and the parallel machinery untested.
    db.options().max_dop = options.max_dop;
    db.options().force_parallel = true;
    twin.options().max_dop = options.max_dop;
    twin.options().force_parallel = true;
  }
  if (!options.use_feedback) {
    db.set_feedback_enabled(false);
    twin.set_feedback_enabled(false);
  }

  RefExecutor ref(&db.rss().store(), RelPageMap(&db));
  FuzzQueryGen gen(schema, seed ^ 0x9e3779b97f4a7c15ULL);
  Rng shuffle_rng(seed ^ 0xdeadbeefULL);

  // Fault mode: the injector attaches to the engine's buffer pool only —
  // the reference executor reads the raw store and stays pristine. It is
  // armed per-query inside RunFaultProtocol, so schema build and prepare
  // above/below never fault.
  FaultInjector injector(seed, options.fault_config);
  if (options.inject_faults) {
    db.rss().pool().set_fault_injector(&injector);
  }

  for (int qi = 0; qi < options.queries_per_seed; ++qi) {
    if (options.dml_every > 0 && qi % options.dml_every == 0) {
      // DML parity oracle: the same (order-independent) statement against the
      // engine and the index-less twin must agree on outcome — same status
      // code, same affected-row count — even though they pick different
      // access paths to find the target rows. Afterward the reference
      // executor re-reads the mutated heaps, so every query oracle below
      // now also validates the DML's effect on data, indexes, and scans.
      std::string dml = gen.NextDml();
      Violation dv{&out.violations, seed, &dml};
      auto db_res = db.Mutate(dml, nullptr);
      auto twin_res = twin.Mutate(dml, nullptr);
      if (db_res.ok() != twin_res.ok() ||
          (!db_res.ok() &&
           db_res.status().code() != twin_res.status().code())) {
        dv.Add("dml-status-parity",
               "engine=" +
                   (db_res.ok() ? "ok" : db_res.status().ToString()) +
                   " twin=" +
                   (twin_res.ok() ? "ok" : twin_res.status().ToString()));
      } else if (db_res.ok() && *db_res != *twin_res) {
        dv.Add("dml-rows-parity",
               "engine affected " + std::to_string(*db_res) + " rows, twin " +
                   std::to_string(*twin_res));
      }
      ref.set_rel_pages(RelPageMap(&db));
    }

    GeneratedQuery q = gen.Next();
    std::string sql = q.Sql();
    ++out.queries;
    Violation v{&out.violations, seed, &sql};

    auto prepared = db.Prepare(sql);
    if (!prepared.ok()) {
      v.Add("prepare", prepared.status().message());
      continue;
    }
    auto ref_rows = ref.Execute(*prepared->block);
    if (!ref_rows.ok()) {
      v.Add("reference", ref_rows.status().message());
      continue;
    }

    if (options.inject_faults) {
      // Every 5th query gets a deliberately tiny page budget so the
      // kResourceExhausted path is exercised alongside the storage faults.
      RunFaultProtocol(&db, *prepared, *ref_rows, &injector,
                       /*tiny_budget=*/qi % 5 == 4, report, &v);
      continue;
    }

    // Differential oracle: DP plan vs. the reference executor.
    auto dp = db.Run(*prepared);
    if (!dp.ok()) {
      v.Add("dp-run", dp.status().message());
      continue;
    }
    if (!SameRowMultiset(*ref_rows, dp->rows)) {
      v.Add("dp-diff", DiffSummary(*ref_rows, dp->rows));
      continue;  // Downstream oracles would only repeat the mismatch.
    }

    // Ordering oracle: ORDER BY keys map to select positions by design.
    if (!q.order_positions.empty() &&
        !RowsSorted(dp->rows, q.order_positions)) {
      v.Add("order-by", "engine output not sorted per ORDER BY");
    }

    if (options.record_calibration && report != nullptr) {
      CalibrationRecord rec;
      rec.seed = seed;
      rec.sql = sql;
      rec.est_cost = prepared->est_cost;
      rec.actual_cost = dp->actual_cost;
      rec.est_pages = prepared->root->est.pages;
      rec.est_rsi = prepared->root->est.rsi;
      rec.est_rows = prepared->est_rows;
      rec.actual_rows = dp->rows.size();
      rec.stats = dp->stats;
      report->records.push_back(std::move(rec));
    }

    // Differential oracle: every baseline join strategy.
    if (options.check_baselines) {
      for (BaselineKind kind :
           {BaselineKind::kSyntacticNestedLoop, BaselineKind::kGreedy}) {
        auto base = db.PrepareBaseline(sql, kind);
        if (!base.ok()) {
          v.Add("baseline-prepare", base.status().message());
          continue;
        }
        auto run = db.Run(*base);
        if (!run.ok()) {
          v.Add("baseline-run", run.status().message());
          continue;
        }
        if (!SameRowMultiset(*ref_rows, run->rows)) {
          v.Add("baseline-diff", DiffSummary(*ref_rows, run->rows));
        }
      }
    }

    if (options.metamorphic) {
      // Conjunct shuffling must not change results.
      if (q.conjuncts.size() > 1) {
        std::vector<size_t> perm(q.conjuncts.size());
        for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
        for (size_t i = perm.size() - 1; i > 0; --i) {
          std::swap(perm[i],
                    perm[shuffle_rng.Uniform(0, static_cast<int64_t>(i))]);
        }
        std::string shuffled = q.Sql(&perm);
        RunAndCompare(&db, shuffled, *ref_rows, "shuffle", &v);
      }

      // The W cost knob steers plan choice, never results.
      double saved_w = db.options().cost.w;
      for (double w : {0.0, 4.0}) {
        db.options().cost.w = w;
        RunAndCompare(&db, sql, *ref_rows, "w-variation", &v);
      }
      db.options().cost.w = saved_w;

      // Dropping every secondary index (the twin database) forces different
      // access paths over identical data.
      RunAndCompare(&twin, sql, *ref_rows, "index-drop", &v);
    }
  }

  if (options.inject_faults) {
    db.rss().pool().set_fault_injector(nullptr);
  }
  if (report != nullptr) {
    if (options.inject_faults) report->faults_injected += injector.faults_injected();
    ++report->seeds;
    report->queries += out.queries;
    report->violations.insert(report->violations.end(),
                              out.violations.begin(), out.violations.end());
  }
  return out;
}

SeedResult RunConcurrentFuzzSeed(uint64_t seed, int threads,
                                 int queries_per_thread,
                                 const JoinEnumerator::Options& join,
                                 int max_dop) {
  SeedResult out;
  out.seed = seed;

  auto family = static_cast<FuzzSchema::Family>(seed % 3);
  FuzzSchema schema = MakeFuzzSchema(family, seed);
  Database db(128);
  Status built = BuildFuzzSchema(&db, schema, seed, /*secondary_indexes=*/true);
  if (!built.ok()) {
    out.violations.push_back("seed=" + std::to_string(seed) +
                             " oracle=schema-build " + built.message());
    return out;
  }
  db.options().join = join;
  if (max_dop > 1) {
    db.options().max_dop = max_dop;
    db.options().force_parallel = true;
  }

  // One shared plan cache: identical statements generated by different
  // threads compile once and execute everywhere, so plan sharing itself is
  // under test here, not just storage.
  PlanCache cache(32);
  const auto page_map = RelPageMap(&db);

  std::vector<std::vector<std::string>> violations(threads);
  std::vector<uint64_t> counts(static_cast<size_t>(threads), 0);
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Session session(&db, &cache);
      // Per-thread reference executor over the raw page store: no engine
      // code, no shared mutable state with the sessions under test.
      RefExecutor ref(&db.rss().store(), page_map);
      FuzzQueryGen gen(schema,
                       seed ^ (0x9e3779b97f4a7c15ULL * (uint64_t)(t + 1)));
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < threads) {
        std::this_thread::yield();
      }
      for (int qi = 0; qi < queries_per_thread; ++qi) {
        GeneratedQuery q = gen.Next();
        std::string sql = q.Sql();
        ++counts[t];
        Violation v{&violations[t], seed, &sql, t};

        auto stmt = session.Prepare(sql);
        if (!stmt.ok()) {
          v.Add("prepare", stmt.status().message());
          continue;
        }
        auto ref_rows = ref.Execute(*stmt->plan().block);
        if (!ref_rows.ok()) {
          v.Add("reference", ref_rows.status().message());
          continue;
        }
        auto run = stmt->Execute();
        if (!run.ok()) {
          v.Add("session-run", run.status().message());
          continue;
        }
        if (!SameRowMultiset(*ref_rows, run->rows)) {
          v.Add("session-diff", DiffSummary(*ref_rows, run->rows));
          continue;
        }
        if (!q.order_positions.empty() &&
            !RowsSorted(run->rows, q.order_positions)) {
          v.Add("order-by", "engine output not sorted per ORDER BY");
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < threads; ++t) {
    out.queries += counts[t];
    out.violations.insert(out.violations.end(), violations[t].begin(),
                          violations[t].end());
  }
  return out;
}

}  // namespace systemr
