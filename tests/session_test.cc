// Session subsystem tests: parameterized prepared statements and the
// operands they hand the scans, the shared plan cache (hit / invalidation /
// eviction semantics), and concurrent multi-session execution with
// race-free per-statement ExecStats.
#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "session/plan_cache.h"
#include "session/session.h"

namespace systemr {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(64);
    ASSERT_TRUE(db_->ExecuteScript(R"(
      CREATE TABLE DEPT (DNO INT, DNAME STRING, LOC STRING);
      CREATE TABLE EMP (EMPNO INT, NAME STRING, DNO INT, SAL INT, MGR INT);
    )").ok());
    const char* locs[5] = {"AUSTIN", "DENVER", "BOSTON", "DENVER", "MIAMI"};
    for (int d = 0; d < 5; ++d) {
      ASSERT_TRUE(db_->Execute("INSERT INTO DEPT VALUES (" +
                               std::to_string(d) + ", 'D" +
                               std::to_string(d) + "', '" + locs[d] + "')")
                      .ok());
    }
    // 30 employees: EMPNO i, DNO = i%5, SAL = 1000 + 100*i, MGR = i/3.
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(db_->Execute("INSERT INTO EMP VALUES (" +
                               std::to_string(i) + ", 'E" +
                               std::to_string(i) + "', " +
                               std::to_string(i % 5) + ", " +
                               std::to_string(1000 + 100 * i) + ", " +
                               std::to_string(i / 3) + ")")
                      .ok());
    }
    ASSERT_TRUE(db_->Execute("CREATE UNIQUE INDEX EMP_PK ON EMP (EMPNO)").ok());
    ASSERT_TRUE(db_->Execute("CREATE INDEX EMP_DNO ON EMP (DNO)").ok());
    ASSERT_TRUE(
        db_->Execute("CREATE UNIQUE INDEX DEPT_PK ON DEPT (DNO)").ok());
    ASSERT_TRUE(db_->Execute("UPDATE STATISTICS EMP").ok());
    ASSERT_TRUE(db_->Execute("UPDATE STATISTICS DEPT").ok());
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SessionTest, ParameterizedPointLookup) {
  Session session(db_.get());
  auto stmt = session.Prepare("SELECT NAME FROM EMP WHERE EMPNO = ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->num_params(), 1);
  for (int i = 0; i < 30; ++i) {
    auto r = stmt->Execute({Value::Int(i)});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0].AsStr(), "E" + std::to_string(i));
  }
  // Compiled once, executed thirty times.
  EXPECT_EQ(session.stats().optimizations, 1u);
  EXPECT_EQ(session.stats().executions, 30u);
}

TEST_F(SessionTest, ParameterIsSargable) {
  // A `?` in an equality predicate must be pushed into the scan as a
  // dynamic sarg (filled in at execute time), not left as a residual
  // filter above it.
  Session session(db_.get());
  auto stmt = session.Prepare("SELECT NAME FROM EMP WHERE EMPNO = ?");
  ASSERT_TRUE(stmt.ok());
  EXPECT_NE(stmt->Explain().find("dynsarg(EMPNO=?1)"), std::string::npos)
      << stmt->Explain();
}

TEST_F(SessionTest, ParameterNeverConstantFolded) {
  // One plan object, two executions, different parameter values: if the
  // first value had been folded into the compiled plan, the second
  // execution would return the first answer.
  Session session(db_.get());
  auto stmt = session.Prepare("SELECT EMPNO FROM EMP WHERE SAL > ?");
  ASSERT_TRUE(stmt.ok());
  const OptimizedQuery* plan_before = &stmt->plan();
  auto r1 = stmt->Execute({Value::Int(3500)});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->rows.size(), 4u);  // i >= 26.
  auto r2 = stmt->Execute({Value::Int(1000)});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows.size(), 29u);  // i >= 1.
  EXPECT_EQ(&stmt->plan(), plan_before);  // Same compiled plan both times.
}

TEST_F(SessionTest, ParameterArityChecked) {
  Session session(db_.get());
  auto stmt = session.Prepare("SELECT NAME FROM EMP WHERE EMPNO = ?");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(stmt->Execute({}).ok());
  EXPECT_FALSE(stmt->Execute({Value::Int(1), Value::Int(2)}).ok());
  EXPECT_TRUE(stmt->Execute({Value::Int(1)}).ok());
}

TEST_F(SessionTest, ThousandExecutionsOptimizeOnce) {
  PlanCache cache;
  Session session(db_.get(), &cache);
  auto stmt = session.Prepare("SELECT NAME FROM EMP WHERE EMPNO = ?");
  ASSERT_TRUE(stmt.ok());
  for (int i = 0; i < 1000; ++i) {
    auto r = stmt->Execute({Value::Int(i % 30)});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u);
  }
  EXPECT_EQ(session.stats().executions, 1000u);
  EXPECT_EQ(session.stats().optimizations, 1u);
  EXPECT_EQ(session.stats().reprepares, 0u);
  // The cache saw exactly one miss (the Prepare) and no invalidations.
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

TEST_F(SessionTest, CacheHitOnRepeatedSql) {
  PlanCache cache;
  Session session(db_.get(), &cache);
  ASSERT_TRUE(session.ExecuteQuery("SELECT NAME FROM EMP WHERE DNO = 2").ok());
  // Same statement modulo casing and whitespace: one cache entry.
  ASSERT_TRUE(
      session.ExecuteQuery("select  name from emp\n where dno=2").ok());
  EXPECT_EQ(session.stats().optimizations, 1u);
  EXPECT_EQ(session.stats().cache_hits, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(NormalizeSqlTest, CanonicalizesCaseAndSpacing) {
  EXPECT_EQ(NormalizeSql("select * from t where a=1"),
            NormalizeSql("SELECT  *  FROM T\nWHERE A = 1"));
  EXPECT_NE(NormalizeSql("SELECT * FROM T WHERE A = 1"),
            NormalizeSql("SELECT * FROM T WHERE A = 2"));
  EXPECT_NE(NormalizeSql("SELECT * FROM T WHERE A = ?"),
            NormalizeSql("SELECT * FROM T WHERE A = 1"));
  // Literals render exactly: reals past six significant digits, an
  // integral real against its int, a quote inside a string.
  EXPECT_NE(NormalizeSql("SELECT * FROM T WHERE X < 0.1234568"),
            NormalizeSql("SELECT * FROM T WHERE X < 0.1234569"));
  EXPECT_NE(NormalizeSql("SELECT K + 1 FROM T"),
            NormalizeSql("SELECT K + 1.0 FROM T"));
  EXPECT_NE(NormalizeSql("SELECT * FROM T WHERE S IN ('a'' , ''b')"),
            NormalizeSql("SELECT * FROM T WHERE S IN ('a', 'b')"));
}

// Statements whose keys used to collide, run through one cached Session in
// both orders: each must return what an uncached Database::Query returns,
// value types included.
TEST_F(SessionTest, DistinctLiteralsNeverShareAPlan) {
  ASSERT_TRUE(db_->ExecuteScript(R"(
    CREATE TABLE T (K INT, X REAL, S STRING);
    INSERT INTO T VALUES (1, 0.1, 'a');
    INSERT INTO T VALUES (2, 0.12345685, 'b');
    INSERT INTO T VALUES (3, 0.5, 'a'' , ''b');
  )").ok());
  const std::pair<const char*, const char*> pairs[] = {
      {"SELECT K FROM T WHERE X < 0.1234568",
       "SELECT K FROM T WHERE X < 0.1234569"},
      {"SELECT K + 1 FROM T", "SELECT K + 1.0 FROM T"},
      {"SELECT K FROM T WHERE S IN ('a'' , ''b')",
       "SELECT K FROM T WHERE S IN ('a', 'b')"}};
  auto typed_rows = [](const QueryResult& r) {
    std::vector<std::string> out;
    for (const Row& row : r.rows) {
      std::string line;
      for (const Value& v : row) {
        line += std::to_string(static_cast<int>(v.type())) + ":" +
                v.ToString() + " ";
      }
      out.push_back(line);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  for (const auto& [a, b] : pairs) {
    for (const auto& order : {std::make_pair(a, b), std::make_pair(b, a)}) {
      PlanCache cache;
      Session session(db_.get(), &cache);
      for (const char* sql : {order.first, order.second}) {
        auto cached = session.ExecuteQuery(sql);
        auto direct = db_->Query(sql);
        ASSERT_TRUE(cached.ok() && direct.ok()) << sql;
        EXPECT_EQ(typed_rows(*cached), typed_rows(*direct)) << sql;
      }
      EXPECT_EQ(cache.size(), 2u) << order.first;
    }
  }
}

TEST_F(SessionTest, UpdateStatisticsInvalidatesPlan) {
  PlanCache cache;
  Session session(db_.get(), &cache);
  auto stmt = session.Prepare("SELECT NAME FROM EMP WHERE DNO = ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt->Execute({Value::Int(1)}).ok());
  EXPECT_EQ(session.stats().reprepares, 0u);

  // §2: UPDATE STATISTICS changes a dependency; the next execution must
  // transparently re-optimize, not run the stale access module.
  ASSERT_TRUE(db_->Execute("UPDATE STATISTICS EMP").ok());
  auto r = stmt->Execute({Value::Int(1)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 6u);
  EXPECT_EQ(session.stats().reprepares, 1u);
  EXPECT_EQ(session.stats().optimizations, 2u);
  EXPECT_GE(cache.stats().invalidations, 1u);

  // Re-optimized plan is cached again: a further execution is stable.
  ASSERT_TRUE(stmt->Execute({Value::Int(1)}).ok());
  EXPECT_EQ(session.stats().reprepares, 1u);
}

TEST_F(SessionTest, CreateIndexReoptimizesToIndexScan) {
  // A table big enough that an index point lookup beats a full scan (on a
  // page-sized table the optimizer correctly prefers the segment scan
  // either way), but with no index yet: the compiled plan must scan.
  ASSERT_TRUE(db_->Execute("CREATE TABLE BIG (K INT, V INT)").ok());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(db_->Execute("INSERT INTO BIG VALUES (" + std::to_string(i) +
                             ", " + std::to_string(i * 7) + ")")
                    .ok());
  }
  ASSERT_TRUE(db_->Execute("UPDATE STATISTICS BIG").ok());

  PlanCache cache;
  Session session(db_.get(), &cache);
  auto stmt = session.Prepare("SELECT V FROM BIG WHERE K = ?");
  ASSERT_TRUE(stmt.ok());
  EXPECT_NE(stmt->Explain().find("SegScan"), std::string::npos)
      << stmt->Explain();
  auto r1 = stmt->Execute({Value::Int(70)});
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(r1->rows.size(), 1u);
  EXPECT_EQ(r1->rows[0][0].AsInt(), 490);

  // CREATE INDEX bumps the catalog version; the stale plan is dropped and
  // the statement recompiles onto the new access path.
  ASSERT_TRUE(db_->Execute("CREATE UNIQUE INDEX BIG_K ON BIG (K)").ok());
  auto r2 = stmt->Execute({Value::Int(70)});
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->rows.size(), 1u);
  EXPECT_EQ(r2->rows[0][0].AsInt(), 490);
  EXPECT_EQ(session.stats().reprepares, 1u);
  EXPECT_NE(stmt->Explain().find("IndexScan"), std::string::npos)
      << stmt->Explain();
  // The recompiled access path does a point probe, not 5000 RSI calls.
  EXPECT_LT(r2->stats.rsi_calls, 10u);
}

TEST_F(SessionTest, HashJoinChosenWithoutUsefulOrderAndInvalidated) {
  // Two tables joined on a column with no index on either side: no access
  // path delivers the join order, so merge join pays two sorts and nested
  // loop pays |outer| inner scans — the hash join must win the §5
  // enumeration on cost alone.
  ASSERT_TRUE(db_->Execute("CREATE TABLE BIG1 (K INT, V INT)").ok());
  ASSERT_TRUE(db_->Execute("CREATE TABLE BIG2 (K INT, V INT)").ok());
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(db_->Execute("INSERT INTO BIG1 VALUES (" + std::to_string(i) +
                             ", " + std::to_string(i) + ")")
                    .ok());
    ASSERT_TRUE(db_->Execute("INSERT INTO BIG2 VALUES (" + std::to_string(i) +
                             ", " + std::to_string(2 * i) + ")")
                    .ok());
  }
  ASSERT_TRUE(db_->Execute("UPDATE STATISTICS BIG1").ok());
  ASSERT_TRUE(db_->Execute("UPDATE STATISTICS BIG2").ok());

  PlanCache cache;
  Session session(db_.get(), &cache);
  auto stmt = session.Prepare(
      "SELECT BIG1.K, BIG2.K FROM BIG1, BIG2 WHERE BIG1.V = BIG2.V");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_NE(stmt->Explain().find("HashJoin"), std::string::npos)
      << stmt->Explain();
  EXPECT_NE(stmt->Explain().find("method=hash"), std::string::npos)
      << stmt->Explain();
  auto r1 = stmt->Execute();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  // BIG1.V = i, BIG2.V = 2i: matches are the even i in [0, 1500).
  EXPECT_EQ(r1->rows.size(), 750u);
  EXPECT_GT(r1->stats.hash_build_rows, 0u);
  EXPECT_GT(r1->stats.hash_probe_rows, 0u);

  // CREATE INDEX on the join column bumps the catalog version: the cached
  // hash plan is invalidated and the statement recompiles (possibly onto an
  // order-delivering access path) with identical results.
  ASSERT_TRUE(db_->Execute("CREATE INDEX BIG2_V ON BIG2 (V)").ok());
  auto r2 = stmt->Execute();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->rows.size(), 750u);
  EXPECT_EQ(session.stats().reprepares, 1u);
}

TEST_F(SessionTest, LruEvictionAtCapacity) {
  PlanCache cache(2);
  Session session(db_.get(), &cache);
  ASSERT_TRUE(session.ExecuteQuery("SELECT EMPNO FROM EMP").ok());
  ASSERT_TRUE(session.ExecuteQuery("SELECT DNO FROM DEPT").ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  // Third distinct statement evicts the least recently used (the first).
  ASSERT_TRUE(session.ExecuteQuery("SELECT NAME FROM EMP").ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The first statement misses again; the second was evicted next.
  ASSERT_TRUE(session.ExecuteQuery("SELECT EMPNO FROM EMP").ok());
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(session.stats().optimizations, 4u);
  EXPECT_EQ(session.stats().cache_hits, 0u);
}

TEST_F(SessionTest, SharedCacheAcrossSessions) {
  PlanCache cache;
  Session alice(db_.get(), &cache);
  Session bob(db_.get(), &cache);
  ASSERT_TRUE(alice.ExecuteQuery("SELECT NAME FROM EMP WHERE DNO = 2").ok());
  ASSERT_TRUE(bob.ExecuteQuery("SELECT NAME FROM EMP WHERE DNO = 2").ok());
  EXPECT_EQ(alice.stats().optimizations, 1u);
  EXPECT_EQ(bob.stats().optimizations, 0u);
  EXPECT_EQ(bob.stats().cache_hits, 1u);
}

// Two sessions scanning disjoint tables in parallel: each session's
// per-statement ExecStats must match its own single-threaded baseline
// exactly. Before per-statement metering, concurrent statements bled
// page fetches and buffer gets into each other's counters.
TEST_F(SessionTest, ConcurrentStatsAreDisjoint) {
  const char* kSql[2] = {"SELECT EMPNO FROM EMP WHERE SAL > 0",
                         "SELECT DNO FROM DEPT WHERE DNO >= 0"};
  ExecStats baseline[2];
  for (int i = 0; i < 2; ++i) {
    Session s(db_.get());
    auto r = s.ExecuteQuery(kSql[i]);
    ASSERT_TRUE(r.ok());
    baseline[i] = r->stats;
    ASSERT_GT(baseline[i].buffer_gets, 0u);
  }

  constexpr int kIters = 200;
  std::atomic<int> ready{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      Session s(db_.get());
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }  // Start the scans together.
      for (int iter = 0; iter < kIters; ++iter) {
        auto r = s.ExecuteQuery(kSql[i]);
        if (!r.ok() || r->stats.buffer_gets != baseline[i].buffer_gets ||
            r->stats.rsi_calls != baseline[i].rsi_calls ||
            r->stats.page_fetches != baseline[i].page_fetches) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
}

// Many sessions hammering one shared cache with a mix of statements while a
// catalog-version bump lands mid-flight: exercises every cache transition
// (hit, miss, invalidation, eviction) under contention. Correctness of the
// returned rows is asserted on every execution.
TEST_F(SessionTest, ConcurrentSessionsSharedCache) {
  PlanCache cache(4);
  constexpr int kThreads = 4;
  constexpr int kIters = 100;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session s(db_.get(), &cache);
      auto stmt = s.Prepare("SELECT NAME FROM EMP WHERE EMPNO = ?");
      if (!stmt.ok()) {
        failed.store(true);
        return;
      }
      for (int i = 0; i < kIters; ++i) {
        int target = (t * 7 + i) % 30;
        auto r = stmt->Execute({Value::Int(target)});
        if (!r.ok() || r->rows.size() != 1 ||
            r->rows[0][0].AsStr() != "E" + std::to_string(target)) {
          failed.store(true);
          return;
        }
        // A second, unparameterized statement keeps the cache churning.
        auto q = s.ExecuteQuery("SELECT DNO FROM DEPT");
        if (!q.ok() || q->rows.size() != 5) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  PlanCacheStats cs = cache.stats();
  EXPECT_GT(cs.hits, 0u);
  EXPECT_GT(cs.misses, 0u);
}

// Statistics invalidation: enough row mutations since UPDATE STATISTICS
// mark the table's histograms stale, EXPLAIN flags plans over it, and
// re-running UPDATE STATISTICS clears the flag and the mutation counter.
TEST_F(SessionTest, MutationsMarkStatisticsStale) {
  const TableInfo* emp = db_->catalog().FindTable("EMP");
  ASSERT_NE(emp, nullptr);
  EXPECT_FALSE(emp->stats_stale);

  // Stay below the threshold: still fresh.
  for (int i = 30; i < 30 + 200; ++i) {
    ASSERT_TRUE(db_->Execute("INSERT INTO EMP VALUES (" + std::to_string(i) +
                             ", 'E" + std::to_string(i) + "', 0, 1000, 0)")
                    .ok());
  }
  EXPECT_FALSE(emp->stats_stale);

  // Crossing kInsertsPerVersionBump mutations flips the flag (deletes count
  // too — mutations of either kind distort the histograms).
  for (int i = 230; i < 230 + 60; ++i) {
    ASSERT_TRUE(db_->Execute("INSERT INTO EMP VALUES (" + std::to_string(i) +
                             ", 'E" + std::to_string(i) + "', 0, 1000, 0)")
                    .ok());
  }
  EXPECT_TRUE(emp->stats_stale);

  // EXPLAIN surfaces the staleness on every scan of the table.
  auto plan = db_->Explain("SELECT NAME FROM EMP WHERE SAL > 2000");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("stats=stale"), std::string::npos) << *plan;
  auto dept_plan = db_->Explain("SELECT DNAME FROM DEPT");
  ASSERT_TRUE(dept_plan.ok());
  EXPECT_EQ(dept_plan->find("stats=stale"), std::string::npos)
      << "DEPT was not mutated";

  // UPDATE STATISTICS rebuilds the histograms and resets the state.
  ASSERT_TRUE(db_->Execute("UPDATE STATISTICS EMP").ok());
  EXPECT_FALSE(emp->stats_stale);
  EXPECT_EQ(emp->mutations_since_stats, 0u);
  plan = db_->Explain("SELECT NAME FROM EMP WHERE SAL > 2000");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("stats=stale"), std::string::npos) << *plan;
}

// A session's limits reach its DML, not only its queries: the budget and
// the cancel flag abort UPDATE and DELETE, which leave every row as it was.
TEST_F(SessionTest, SessionLimitsApplyToDml) {
  ASSERT_TRUE(db_->Execute("CREATE TABLE T (A INT, B INT)").ok());
  for (int base = 0; base < 3000; base += 500) {
    std::string sql = "INSERT INTO T VALUES ";
    for (int i = base; i < base + 500; ++i) {
      if (i != base) sql += ", ";
      sql += "(" + std::to_string(i) + ", " + std::to_string(i % 7) + ")";
    }
    ASSERT_TRUE(db_->Execute(sql).ok());
  }
  ASSERT_TRUE(db_->Execute("UPDATE STATISTICS T").ok());
  auto count = [&](const std::string& where) {
    auto r = db_->Query("SELECT COUNT(*) FROM T WHERE " + where);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->rows[0][0].AsInt();
  };

  Session session(db_.get());
  ExecLimits budget;
  budget.max_buffer_gets = 4;  // Far below the UPDATE's 429 rows.
  session.set_limits(budget);
  auto updated = session.Mutate("UPDATE T SET A = A + 1 WHERE B = 3");
  ASSERT_FALSE(updated.ok()) << *updated << " rows updated";
  EXPECT_EQ(updated.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(count("A = 3"), 1);

  std::atomic<bool> cancel{true};
  ExecLimits cancelled;
  cancelled.cancel = &cancel;
  session.set_limits(cancelled);
  auto deleted = session.Mutate("DELETE FROM T WHERE B = 4");
  ASSERT_FALSE(deleted.ok()) << *deleted << " rows deleted";
  EXPECT_EQ(deleted.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(count("B = 4"), 428);

  // The database-wide limits are unlimited: without the session's, the
  // same statements run.
  session.set_limits(ExecLimits{});
  auto again = session.Mutate("DELETE FROM T WHERE B = 4");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, 428u);
}

// Execute binds its values to a DML statement's `?` markers, with the
// arity check a SELECT gets.
TEST_F(SessionTest, ExecuteBindsDmlParameters) {
  Session session(db_.get());
  auto upd = session.Execute("UPDATE EMP SET SAL = ? WHERE EMPNO = ?",
                             {Value::Int(42), Value::Int(5)});
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(upd->kind, Statement::Kind::kUpdate);
  EXPECT_EQ(upd->affected, 1u);
  auto sal = session.ExecuteQuery("SELECT SAL FROM EMP WHERE EMPNO = 5");
  ASSERT_TRUE(sal.ok()) << sal.status().ToString();
  ASSERT_EQ(sal->rows.size(), 1u);
  EXPECT_EQ(sal->rows[0][0].AsInt(), 42);

  auto short_by_one = session.Execute("UPDATE EMP SET SAL = ? WHERE EMPNO = ?",
                                      {Value::Int(7)});
  ASSERT_FALSE(short_by_one.ok());
  EXPECT_EQ(short_by_one.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(short_by_one.status().message(),
            "statement takes 2 parameter(s), 1 bound");
}

// An EXPLAIN through a session returns the plan that session runs for its
// SELECT, at the session's degree of parallelism; Prepare takes a SELECT
// only, so a prepared EXPLAIN cannot run its query.
TEST_F(SessionTest, ExplainShowsTheSessionsPlan) {
  const std::string sql = "SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO";
  PlanCache cache;
  Session session(db_.get(), &cache);
  session.set_max_dop(4);
  db_->options().force_parallel = true;
  auto explain = session.Execute("EXPLAIN " + sql);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_EQ(explain->kind, Statement::Kind::kExplain);
  EXPECT_TRUE(explain->rows.empty());
  EXPECT_NE(explain->plan_text.find("Exchange"), std::string::npos)
      << explain->plan_text;
  auto prepared = session.Prepare(sql);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(explain->plan_text, prepared->Explain());
  EXPECT_EQ(session.stats().optimizations, 1u);  // One cache entry for both.

  auto prepare_explain = session.Prepare("EXPLAIN " + sql);
  ASSERT_FALSE(prepare_explain.ok());
  EXPECT_EQ(prepare_explain.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(prepare_explain.status().message(), "expected a SELECT statement");
}

TEST_F(SessionTest, DatabaseRunRejectsUnboundParams) {
  // The plain Run(query) entry point must refuse a parameterized plan
  // instead of executing with dangling markers.
  auto query = db_->Prepare("SELECT NAME FROM EMP WHERE EMPNO = ?");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->num_params, 1);
  EXPECT_FALSE(db_->Run(*query).ok());
  // Execute compiles through the same path, so it reports the arity too.
  Status executed = db_->Execute("SELECT NAME FROM EMP WHERE EMPNO = ?");
  EXPECT_NE(executed.message().find("takes 1 parameter(s)"), std::string::npos)
      << executed.ToString();
  auto r = db_->Run(*query, {Value::Int(3)});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsStr(), "E3");
}

// Search-argument operands: a `?` host variable (§2) or an outer-row column
// (§5) in every position a literal can take — an equality or range index
// bound, a static SARG beside a dynamic one, a dynamic SARG alone.
class ScanOperandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(64);
    ASSERT_TRUE(db_->ExecuteScript(R"(
      CREATE TABLE T (K INT, A INT, B INT, S STRING, V INT);
      CREATE TABLE U (K INT, W INT);
    )").ok());
    // T: K = i, A = i%25, B = i%16, S = two letters then i, V = i%37.
    for (int i = 0; i < 400; ++i) {
      std::string s = {static_cast<char>('a' + i % 3),
                       static_cast<char>('a' + i % 5)};
      ASSERT_TRUE(db_->Execute("INSERT INTO T VALUES (" + std::to_string(i) +
                               ", " + std::to_string(i % 25) + ", " +
                               std::to_string(i % 16) + ", '" + s +
                               std::to_string(i) + "', " +
                               std::to_string(i % 37) + ")")
                      .ok());
    }
    // U: K = 3i, W = i; no index.
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db_->Execute("INSERT INTO U VALUES (" +
                               std::to_string(3 * i) + ", " +
                               std::to_string(i) + ")")
                      .ok());
    }
    ASSERT_TRUE(db_->ExecuteScript(R"(
      CREATE INDEX T_K ON T (K);
      CREATE INDEX T_AB ON T (A, B);
      CREATE INDEX T_S ON T (S);
      UPDATE STATISTICS T;
      UPDATE STATISTICS U;
    )").ok());
  }

  // Joins run as nested loops, so the inner scan takes outer operands.
  void NestedLoopOnly() {
    db_->options().join.enable_merge_join = false;
    db_->options().join.enable_hash_join = false;
  }

  std::multiset<std::string> Rows(Session* session, const std::string& sql,
                                  const std::vector<Value>& params) {
    std::multiset<std::string> out;
    auto r = session->Execute(sql, params);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (r.ok()) {
      for (const Row& row : r->rows) out.insert(RowToString(row));
    }
    return out;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ScanOperandTest, ExplainRendersEveryOperandSource) {
  NestedLoopOnly();
  const std::pair<const char*, const char*> kPins[] = {
      {"SELECT V FROM T WHERE K BETWEEN ? AND ?",
       "IndexScan T via T_K [>=?1, <=?2] dynsarg(K>=?1) dynsarg(K<=?2)"},
      {"SELECT V FROM T WHERE K BETWEEN ? AND 4",
       "IndexScan T via T_K [>=?1, <=4] sargs(K<=4) dynsarg(K>=?1)"},
      {"SELECT V FROM T WHERE K > ? AND K < 5",
       "IndexScan T via T_K [>?1, <5] sargs(K<5) dynsarg(K>?1)"},
      {"SELECT V FROM T WHERE A = ? AND B >= ?",
       "IndexScan T via T_AB [=?1, >=?2] dynsarg(A=?1) dynsarg(B>=?2)"},
      {"SELECT V FROM T WHERE A = 20 AND B <= ?",
       "IndexScan T via T_AB [=20, <=?1] sargs(A=20) dynsarg(B<=?1)"},
      {"SELECT V FROM T WHERE S LIKE 'ab%' AND B < ?",
       "IndexScan T via T_S [>='ab', <'ac'] sargs(S>='ab' AND S<'ac') "
       "dynsarg(B<?1)"},
      {"SELECT T.V FROM U, T WHERE U.K = T.K",
       "IndexScan T via T_K [=outer#0] dynsarg(K=outer#0)"},
      {"SELECT U.W FROM T, U WHERE T.K = ? AND T.V = U.K",
       "SegScan U (segment scan) dynsarg(K=outer#4)"},
  };
  Session session(db_.get());
  for (const auto& [sql, line] : kPins) {
    auto stmt = session.Prepare(sql);
    ASSERT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
    EXPECT_NE(stmt->Explain().find(line), std::string::npos)
        << sql << "\n" << stmt->Explain();
  }
}

TEST_F(ScanOperandTest, PreparedMatchesLiteralTwin) {
  NestedLoopOnly();
  struct Twin {
    const char* prepared;
    std::vector<Value> params;
    const char* literal;
  };
  const Twin kTwins[] = {
      {"SELECT V FROM T WHERE K BETWEEN ? AND ?",
       {Value::Int(10), Value::Int(20)},
       "SELECT V FROM T WHERE K BETWEEN 10 AND 20"},
      {"SELECT V FROM T WHERE K BETWEEN ? AND ?",
       {Value::Int(20), Value::Int(10)},
       "SELECT V FROM T WHERE K BETWEEN 20 AND 10"},
      {"SELECT V FROM T WHERE K BETWEEN ? AND 4", {Value::Int(1)},
       "SELECT V FROM T WHERE K BETWEEN 1 AND 4"},
      {"SELECT V FROM T WHERE K > ? AND K < 5", {Value::Int(1)},
       "SELECT V FROM T WHERE K > 1 AND K < 5"},
      {"SELECT V FROM T WHERE A = ? AND B >= ?",
       {Value::Int(7), Value::Int(5)},
       "SELECT V FROM T WHERE A = 7 AND B >= 5"},
      {"SELECT V FROM T WHERE A = 20 AND B <= ?", {Value::Int(9)},
       "SELECT V FROM T WHERE A = 20 AND B <= 9"},
      {"SELECT V FROM T WHERE S LIKE 'ab%' AND B < ?", {Value::Int(8)},
       "SELECT V FROM T WHERE S LIKE 'ab%' AND B < 8"},
      {"SELECT V FROM T WHERE ? < K", {Value::Int(390)},
       "SELECT V FROM T WHERE 390 < K"},
      {"SELECT U.W FROM T, U WHERE T.K = ? AND T.V = U.K", {Value::Int(42)},
       "SELECT U.W FROM T, U WHERE T.K = 42 AND T.V = U.K"},
      {"SELECT T.V, U.W FROM U, T WHERE U.K = T.K AND T.B < ?",
       {Value::Int(6)},
       "SELECT T.V, U.W FROM U, T WHERE U.K = T.K AND T.B < 6"},
      {"SELECT V FROM T WHERE K = ?", {Value::Null()},
       "SELECT V FROM T WHERE K = NULL"},
  };
  Session session(db_.get());
  for (const Twin& t : kTwins) {
    std::multiset<std::string> literal = Rows(&session, t.literal, {});
    EXPECT_EQ(Rows(&session, t.prepared, t.params), literal) << t.literal;
  }
}

TEST_F(ScanOperandTest, DmlRangeMatchesLiteralTwin) {
  Session session(db_.get());
  const std::string all = "SELECT K, V FROM T";
  std::multiset<std::string> before = Rows(&session, all, {});
  auto up = session.Execute("UPDATE T SET V = V + 100 WHERE K BETWEEN ? AND ?",
                            {Value::Int(30), Value::Int(45)});
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  EXPECT_EQ(up->affected, 16u);
  auto down = session.Execute(
      "UPDATE T SET V = V - 100 WHERE K BETWEEN 30 AND 45");
  ASSERT_TRUE(down.ok()) << down.status().ToString();
  EXPECT_EQ(down->affected, up->affected);
  EXPECT_EQ(Rows(&session, all, {}), before);
}

}  // namespace
}  // namespace systemr
