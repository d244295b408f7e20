// Morsel-driven parallel execution tests: the dispenser's partitioning
// contract, the worker pool's barrier, exchange correctness (scan / join /
// aggregation plans must match their serial twins row for row), cooperative
// limit and cancel enforcement across workers, the parallel-aware cost
// model's startup penalty, and a 200-seed forced-parallel differential fuzz
// gate against the serial reference executor.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "exec/parallel/morsel.h"
#include "exec/parallel/worker_pool.h"
#include "harness/differ.h"
#include "harness/fuzz_session.h"
#include "harness/ref_executor.h"
#include "optimizer/cost_model.h"
#include "session/plan_cache.h"
#include "session/session.h"

namespace systemr {
namespace {

// ---------------------------------------------------------------------------
// MorselDispenser: page ranges must partition [0, num_pages) exactly.

TEST(MorselDispenserTest, EmptySegmentYieldsNoMorsels) {
  MorselDispenser d(0);
  EXPECT_EQ(d.num_morsels(), 0u);
  MorselDispenser::Morsel m;
  EXPECT_FALSE(d.Next(&m));
}

TEST(MorselDispenserTest, SinglePageIsOneMorsel) {
  MorselDispenser d(1);
  EXPECT_EQ(d.num_morsels(), 1u);
  MorselDispenser::Morsel m;
  ASSERT_TRUE(d.Next(&m));
  EXPECT_EQ(m.begin, 0u);
  EXPECT_EQ(m.end, 1u);
  EXPECT_FALSE(d.Next(&m));
}

TEST(MorselDispenserTest, PartitionIsExactWithRemainderTail) {
  // 20 pages at 8 pages/morsel: [0,8) [8,16) [16,20).
  MorselDispenser d(20);
  EXPECT_EQ(d.num_morsels(), 3u);
  MorselDispenser::Morsel m;
  size_t expected_begin = 0;
  while (d.Next(&m)) {
    EXPECT_EQ(m.begin, expected_begin);
    EXPECT_LE(m.end, 20u);
    EXPECT_GT(m.end, m.begin);
    expected_begin = m.end;
  }
  EXPECT_EQ(expected_begin, 20u);  // No gap, no overlap, full coverage.
}

TEST(MorselDispenserTest, ConcurrentDrainCoversEveryPageOnce) {
  constexpr size_t kPages = 1000;
  MorselDispenser d(kPages, /*pages_per_morsel=*/3);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> claimed;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      MorselDispenser::Morsel m;
      while (d.Next(&m)) {
        std::lock_guard<std::mutex> lock(mu);
        claimed.emplace_back(m.begin, m.end);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<bool> covered(kPages, false);
  for (const auto& [begin, end] : claimed) {
    for (size_t p = begin; p < end; ++p) {
      EXPECT_FALSE(covered[p]) << "page " << p << " claimed twice";
      covered[p] = true;
    }
  }
  EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                          [](bool b) { return b; }));
}

// ---------------------------------------------------------------------------
// WorkerPool: every task runs exactly once; the pool survives reuse.

TEST(WorkerPoolTest, RunsEveryTaskAndIsReusable) {
  WorkerPool pool(4);
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 10; ++i) {
      tasks.emplace_back([&ran] { ran.fetch_add(1); });
    }
    pool.RunAll(std::move(tasks));
    EXPECT_EQ(ran.load(), 10);
  }
}

TEST(WorkerPoolTest, SingleTaskRunsInlineWithoutThreads) {
  WorkerPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&ran] { ran.fetch_add(1); });
  pool.RunAll(std::move(tasks));
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(pool.threads_started(), 0u);  // Lazy: dop=1 never pays a thread.
}

// ---------------------------------------------------------------------------
// Parallel-aware costing: ParallelFragmentCost = serial/dop + W*rows_out
// + startup*dop.

TEST(ParallelCostTest, StartupPenaltyKeepsSmallFragmentsSerial) {
  CostModel model(CostParams{});
  auto parallel = [&](double serial, double rows_out, int dop) {
    return model.ParallelFragmentCost(PathCost{serial, 0, serial}, rows_out,
                                      dop).cost;
  };
  // A fragment cheaper than one worker's startup cost can never win.
  for (int dop = 2; dop <= 8; ++dop) {
    EXPECT_GT(parallel(3.0, 0.0, dop), 3.0) << dop;
  }
  // A large fragment with few output rows parallelizes profitably...
  EXPECT_LT(parallel(1000.0, 10.0, 4), 1000.0);
  // ...but gathering every input row back through the exchange does not
  // (W * rows_out dominates the divided scan cost).
  double serial = 100.0;
  EXPECT_GT(parallel(serial, 10000.0, 4), serial);
}

// ---------------------------------------------------------------------------
// End-to-end: parallel plans must return exactly the serial results.

class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(256);
    ASSERT_TRUE(db_->ExecuteScript(R"(
      CREATE TABLE BIG (A INT, B INT, C STRING);
      CREATE TABLE DIM (K INT, V STRING);
      CREATE TABLE EMPTYT (X INT, Y INT);
    )").ok());
    for (int k = 0; k < 20; ++k) {
      ASSERT_TRUE(db_->Execute("INSERT INTO DIM VALUES (" + std::to_string(k) +
                               ", 'V" + std::to_string(k) + "')").ok());
    }
    // ~4000 rows over a few dozen pages: several morsels at any dop.
    for (int i = 0; i < 4000; ++i) {
      ASSERT_TRUE(db_->Execute("INSERT INTO BIG VALUES (" + std::to_string(i) +
                               ", " + std::to_string(i % 20) + ", 'R" +
                               std::to_string(i % 7) + "')").ok());
    }
    ASSERT_TRUE(db_->Execute("UPDATE STATISTICS BIG").ok());
    ASSERT_TRUE(db_->Execute("UPDATE STATISTICS DIM").ok());
    ASSERT_TRUE(db_->Execute("UPDATE STATISTICS EMPTYT").ok());
  }

  // Runs `sql` serially and at the given dop (forced past the cost model so
  // even borderline fragments take the exchange) and requires multiset
  // equality. Returns the parallel result for extra assertions.
  QueryResult CheckParallelMatchesSerial(const std::string& sql, int dop) {
    Session serial(db_.get());
    auto s = serial.ExecuteQuery(sql);
    EXPECT_TRUE(s.ok()) << sql << "\n" << s.status().ToString();

    Session parallel(db_.get());
    parallel.set_max_dop(dop);
    db_->options().force_parallel = true;
    auto p = parallel.ExecuteQuery(sql);
    db_->options().force_parallel = false;
    EXPECT_TRUE(p.ok()) << sql << "\n" << p.status().ToString();
    if (!s.ok() || !p.ok()) return QueryResult{};
    EXPECT_TRUE(SameRowMultiset(s->rows, p->rows))
        << sql << "\n" << DiffSummary(s->rows, p->rows);
    return std::move(*p);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ParallelExecTest, ParallelScanMatchesSerial) {
  QueryResult r = CheckParallelMatchesSerial(
      "SELECT A, B FROM BIG WHERE A > 100 AND B < 15", 4);
  EXPECT_GT(r.stats.parallel_workers, 1u);
  EXPECT_GT(r.stats.parallel_morsels, 1u);
}

TEST_F(ParallelExecTest, ParallelJoinMatchesSerial) {
  QueryResult r = CheckParallelMatchesSerial(
      "SELECT BIG.A, DIM.V FROM BIG, DIM "
      "WHERE BIG.B = DIM.K AND BIG.A < 500", 4);
  EXPECT_GT(r.stats.parallel_workers, 1u);
}

TEST_F(ParallelExecTest, ParallelAggregationMatchesSerial) {
  QueryResult r = CheckParallelMatchesSerial(
      "SELECT B, COUNT(*), SUM(A), MIN(A), MAX(A) FROM BIG "
      "WHERE A > 50 GROUP BY B", 4);
  EXPECT_EQ(r.rows.size(), 20u);
  EXPECT_GT(r.stats.parallel_workers, 1u);
}

TEST_F(ParallelExecTest, ParallelHavingAndDuplicateGroupsMatchSerial) {
  CheckParallelMatchesSerial(
      "SELECT C, COUNT(*) FROM BIG GROUP BY C HAVING COUNT(*) > 500", 4);
}

TEST_F(ParallelExecTest, OrderByAboveExchangeStaysSorted) {
  Session parallel(db_.get());
  parallel.set_max_dop(4);
  db_->options().force_parallel = true;
  auto r = parallel.ExecuteQuery(
      "SELECT B, COUNT(*) FROM BIG GROUP BY B ORDER BY B");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 20u);
  for (size_t i = 1; i < r->rows.size(); ++i) {
    EXPECT_LT(r->rows[i - 1][0].Compare(r->rows[i][0]), 0);
  }
}

TEST_F(ParallelExecTest, MoreWorkersThanMorselsClampsCleanly) {
  // DIM fits in one or two pages: dop 8 must clamp to the morsel count and
  // still return every row exactly once.
  QueryResult r = CheckParallelMatchesSerial("SELECT K, V FROM DIM", 8);
  EXPECT_EQ(r.rows.size(), 20u);
}

TEST_F(ParallelExecTest, EmptyTableUnderForcedParallel) {
  QueryResult r = CheckParallelMatchesSerial(
      "SELECT X, COUNT(*) FROM EMPTYT GROUP BY X", 4);
  EXPECT_EQ(r.rows.size(), 0u);
}

TEST_F(ParallelExecTest, CancelAbortsWorkersAndPoolStaysUsable) {
  Session session(db_.get());
  session.set_max_dop(4);
  db_->options().force_parallel = true;
  std::atomic<bool> cancel{true};
  ExecLimits limits;
  limits.cancel = &cancel;
  session.set_limits(limits);
  auto r = session.ExecuteQuery("SELECT B, COUNT(*) FROM BIG GROUP BY B");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);

  // The abort must leave the shared worker pool reusable: clear the flag and
  // the same session runs the same parallel plan to completion.
  cancel.store(false);
  auto again = session.ExecuteQuery("SELECT B, COUNT(*) FROM BIG GROUP BY B");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->rows.size(), 20u);
}

TEST_F(ParallelExecTest, DeadlineAbortsWorkers) {
  Session session(db_.get());
  session.set_max_dop(4);
  db_->options().force_parallel = true;
  ExecLimits limits;
  limits.has_deadline = true;
  limits.deadline = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1);  // Already expired.
  session.set_limits(limits);
  auto r = session.ExecuteQuery("SELECT B, COUNT(*) FROM BIG GROUP BY B");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);

  session.set_limits(ExecLimits{});
  auto again = session.ExecuteQuery("SELECT B, COUNT(*) FROM BIG GROUP BY B");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
}

TEST_F(ParallelExecTest, BufferBudgetIsSharedAcrossWorkers) {
  Session session(db_.get());
  session.set_max_dop(4);
  db_->options().force_parallel = true;
  ExecLimits limits;
  limits.max_buffer_gets = 8;  // Far below one worker's share of the scan.
  session.set_limits(limits);
  auto r = session.ExecuteQuery("SELECT B, COUNT(*) FROM BIG GROUP BY B");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);

  session.set_limits(ExecLimits{});
  auto again = session.ExecuteQuery("SELECT B, COUNT(*) FROM BIG GROUP BY B");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->rows.size(), 20u);
}

// ---------------------------------------------------------------------------
// Plan selection: the startup penalty and the morsel cap keep small queries
// serial; big aggregating fragments take the exchange.

TEST_F(ParallelExecTest, SmallTableStaysSerialWithoutForce) {
  Session session(db_.get());
  session.set_max_dop(4);  // Cost-based: no force_parallel.
  auto stmt = session.Prepare("SELECT K, COUNT(*) FROM DIM GROUP BY K");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->Explain().find("Exchange"), std::string::npos)
      << stmt->Explain();
}

TEST_F(ParallelExecTest, BigAggregationChoosesExchange) {
  Session session(db_.get());
  session.set_max_dop(4);  // Cost-based: no force_parallel.
  auto stmt = session.Prepare("SELECT B, COUNT(*) FROM BIG GROUP BY B");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::string plan = stmt->Explain();
  EXPECT_NE(plan.find("Exchange"), std::string::npos) << plan;
  EXPECT_NE(plan.find("dop="), std::string::npos) << plan;
  auto r = stmt->Execute();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->stats.parallel_workers, 1u);
}

TEST_F(ParallelExecTest, SerialAndParallelPlansCoexistInCache) {
  PlanCache cache(16);
  Session serial(db_.get(), &cache);
  Session parallel(db_.get(), &cache);
  parallel.set_max_dop(4);
  const std::string sql = "SELECT B, COUNT(*) FROM BIG GROUP BY B";
  auto s = serial.Prepare(sql);
  auto p = parallel.Prepare(sql);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(s->Explain().find("Exchange"), std::string::npos);
  EXPECT_NE(p->Explain().find("Exchange"), std::string::npos);
  // Distinct dop-suffixed keys: two entries, no cross-contamination.
  EXPECT_EQ(cache.size(), 2u);
}

// ---------------------------------------------------------------------------
// 200-seed forced-parallel differential fuzz: every eligible engine plan
// runs under an exchange at dop 4 while the reference executor (and the
// index-less twin) results are compared as multisets — morsel interleaving
// must never change WHAT is returned, only the order.

TEST(ParallelFuzzGate, TwoHundredSeedsForcedParallelClean) {
  FuzzOptions options;
  options.queries_per_seed = 3;
  options.check_baselines = false;
  options.metamorphic = false;
  options.record_calibration = false;
  options.max_dop = 4;
  FuzzReport report;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SeedResult result = RunFuzzSeed(seed, options, &report);
    for (const std::string& v : result.violations) {
      ADD_FAILURE() << v;
    }
  }
  EXPECT_EQ(report.seeds, 200u);
  EXPECT_EQ(report.queries, 600u);
}

// ---------------------------------------------------------------------------
// INT + - * and SUM never wrap: a result outside int64 fails the statement
// with kInvalidArgument ("integer overflow") in the engine, serially and
// at dop 4, and in the reference executor alike. SUM adds exactly in 128
// bits, so only a final sum outside int64 fails, whatever order the rows
// and the workers' partial sums arrive in. T holds K = 2^63 - 1 and 1; B
// holds 3000 rows of 2^63 - 1, then 3000 of -(2^63 - 1), over 4+ morsels.

TEST(IntegerOverflowTest, EngineAndReferenceAgreeSeriallyAndAtDop4) {
  Database db(64);
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE T (K INT);"
                               "INSERT INTO T VALUES (9223372036854775807);"
                               "INSERT INTO T VALUES (1);"
                               "CREATE TABLE B (G INT, K INT);")
                  .ok());
  for (const char* k : {"9223372036854775807", "-9223372036854775807"}) {
    for (int batch = 0; batch < 6; ++batch) {
      std::string sql = "INSERT INTO B VALUES ";
      for (int i = 0; i < 500; ++i) {
        sql += std::string(i > 0 ? ", " : "") + "(1, " + k + ")";
      }
      ASSERT_TRUE(db.Execute(sql).ok());
    }
  }
  ASSERT_TRUE(db.ExecuteScript("UPDATE STATISTICS T; UPDATE STATISTICS B;")
                  .ok());
  // Hash joins alone force hash aggregation, which the exchange absorbs as
  // per-worker partial sums merged at the barrier.
  db.options().join.enable_nested_loop = false;
  db.options().join.enable_merge_join = false;
  RefExecutor ref(&db.rss().store(), RelPageMap(&db));
  const std::pair<const char*, bool> kQueries[] = {
      {"SELECT K + 1 FROM T", true},
      {"SELECT K * 2 FROM T", true},
      {"SELECT 0 - K - 2 FROM T", true},
      {"SELECT K - 1 FROM T", false},
      {"SELECT 9223372036854775807 + 1 FROM T", true},  // Folded, then run.
      {"SELECT SUM(K) FROM T", true},
      {"SELECT SUM(K) FROM T WHERE K > 1", false},
      {"SELECT SUM(K) FROM B", false},
      {"SELECT G, SUM(K) FROM B GROUP BY G", false},
  };
  for (const auto& [sql, overflows] : kQueries) {
    for (int dop : {1, 4}) {
      db.options().max_dop = dop;
      db.options().force_parallel = dop > 1;
      auto q = db.Prepare(sql);
      ASSERT_TRUE(q.ok()) << sql << ": " << q.status().ToString();
      auto got = db.Run(*q);
      auto want = ref.Execute(*q->block);
      if (overflows) {
        for (const Status& s : {got.status(), want.status()}) {
          EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
              << sql << " at dop " << dop << ": " << s.ToString();
          EXPECT_EQ(s.message(), "integer overflow") << sql;
        }
        continue;
      }
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
      ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
      EXPECT_TRUE(SameRowMultiset(*want, got->rows))
          << sql << " at dop " << dop << ": "
          << DiffSummary(*want, got->rows);
      if (dop > 1 && std::string(sql).find("FROM B") != std::string::npos) {
        EXPECT_GT(got->stats.parallel_workers, 1u) << sql;
      }
    }
  }
}

}  // namespace
}  // namespace systemr
