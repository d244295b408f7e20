// Transactional DML: BEGIN/COMMIT/ROLLBACK through Database, Session, and
// scripts; statement-level rollback and auto-commit atomicity; in-place
// undo (rollback never moves rows); relation locks and lock timeouts, the S
// locks of DML subqueries included; ExecLimits firing mid-DML leaving a
// reusable engine.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "db/database.h"
#include "session/session.h"

namespace systemr {
namespace {

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(64);
    ASSERT_TRUE(db_->Execute(
        "CREATE TABLE T (PK INT, V INT)").ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db_->Execute("INSERT INTO T VALUES (" + std::to_string(i) +
                               ", " + std::to_string(i * 10) + ")")
                      .ok());
    }
    ASSERT_TRUE(db_->Execute("CREATE UNIQUE INDEX T_PK ON T (PK)").ok());
    ASSERT_TRUE(db_->Execute("UPDATE STATISTICS T").ok());
  }

  int64_t Count(const std::string& where = "") {
    auto r = db_->Query("SELECT COUNT(*) FROM T" +
                        (where.empty() ? "" : " WHERE " + where));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->rows[0][0].AsInt();
  }

  std::unique_ptr<Database> db_;
};

TEST_F(TxnTest, CommitMakesEffectsDurable) {
  auto txn = db_->BeginTxn();
  ASSERT_TRUE(db_->Mutate("INSERT INTO T VALUES (100, 1000)", txn.get()).ok());
  ASSERT_TRUE(db_->Mutate("DELETE FROM T WHERE PK = 3", txn.get()).ok());
  ASSERT_TRUE(db_->CommitTxn(txn.get()).ok());
  EXPECT_EQ(Count(), 20);
  EXPECT_EQ(Count("PK = 100"), 1);
  EXPECT_EQ(Count("PK = 3"), 0);
}

TEST_F(TxnTest, RollbackUndoesInsertDeleteUpdate) {
  auto txn = db_->BeginTxn();
  ASSERT_TRUE(db_->Mutate("INSERT INTO T VALUES (100, 1000)", txn.get()).ok());
  ASSERT_TRUE(db_->Mutate("DELETE FROM T WHERE PK < 5", txn.get()).ok());
  ASSERT_TRUE(db_->Mutate("UPDATE T SET V = 0 WHERE PK >= 10", txn.get()).ok());
  ASSERT_TRUE(db_->RollbackTxn(txn.get()).ok());
  EXPECT_EQ(Count(), 20);
  EXPECT_EQ(Count("PK < 5"), 5);
  EXPECT_EQ(Count("V = 0"), 1);  // Only the original (0, 0) row.
  EXPECT_EQ(Count("PK = 100"), 0);
}

TEST_F(TxnTest, RollbackRestoresRowsFoundableThroughIndex) {
  // The PK index must find restored rows: rollback re-creates index entries
  // under the original TID.
  auto txn = db_->BeginTxn();
  ASSERT_TRUE(db_->Mutate("DELETE FROM T WHERE PK = 7", txn.get()).ok());
  ASSERT_TRUE(db_->RollbackTxn(txn.get()).ok());
  auto r = db_->Query("SELECT V FROM T WHERE PK = 7");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 70);
  // And the unique constraint still guards the restored PK.
  EXPECT_FALSE(db_->Mutate("INSERT INTO T VALUES (7, 999)").ok());
}

TEST_F(TxnTest, DeleteAfterRollbackOfUpdateTargetsOriginalPlacement) {
  // Regression for the bug the crash fuzzer found: an UPDATE moves a row to
  // a new TID, rollback must put it back at its ORIGINAL placement so a
  // later committed DELETE logs a location that recovery replays.
  auto txn = db_->BeginTxn();
  ASSERT_TRUE(db_->Mutate("UPDATE T SET V = -1 WHERE PK = 5", txn.get()).ok());
  ASSERT_TRUE(db_->RollbackTxn(txn.get()).ok());
  ASSERT_TRUE(db_->Mutate("DELETE FROM T WHERE PK = 5").ok());
  EXPECT_EQ(Count("PK = 5"), 0);

  // Crash + recover: the committed delete must replay cleanly even though
  // the rolled-back update's records are skipped as losers.
  std::string wal = db_->rss().wal().SnapshotBytes(db_->rss().wal().size());
  Database fresh(64);
  auto stats = fresh.Recover(wal);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto r = fresh.Query("SELECT COUNT(*) FROM T WHERE PK = 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 0);
}

TEST_F(TxnTest, FailedStatementRollsBackToSavepointOnly) {
  auto txn = db_->BeginTxn();
  ASSERT_TRUE(db_->Mutate("INSERT INTO T VALUES (100, 1000)", txn.get()).ok());
  // Second row collides with PK 100 inserted above: the whole statement
  // fails, but the first statement's row survives in the transaction.
  auto bad = db_->Mutate("INSERT INTO T VALUES (101, 1), (100, 2)", txn.get());
  EXPECT_FALSE(bad.ok());
  ASSERT_TRUE(db_->Mutate("INSERT INTO T VALUES (102, 3)", txn.get()).ok());
  ASSERT_TRUE(db_->CommitTxn(txn.get()).ok());
  EXPECT_EQ(Count("PK = 100"), 1);
  EXPECT_EQ(Count("PK = 101"), 0);  // Nothing from the failed statement.
  EXPECT_EQ(Count("PK = 102"), 1);
}

TEST_F(TxnTest, AutoCommitFailedStatementLeavesNothing) {
  // Multi-row INSERT failing on its third row must leave no partial rows.
  auto bad = db_->Mutate("INSERT INTO T VALUES (200, 1), (201, 2), (0, 3)");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(Count(), 20);
  EXPECT_EQ(Count("PK = 200"), 0);
  EXPECT_EQ(Count("PK = 201"), 0);
  // The engine stays usable.
  EXPECT_TRUE(db_->Mutate("INSERT INTO T VALUES (200, 1)").ok());
}

TEST_F(TxnTest, FailedUpdateRestoresRowInPlace) {
  // UPDATE sets PK to a duplicate: per-row insert fails, the statement
  // aborts, and every touched row must be back (values intact).
  auto bad = db_->Mutate("UPDATE T SET PK = 1 WHERE PK > 15");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(Count(), 20);
  EXPECT_EQ(Count("PK > 15"), 4);
  EXPECT_EQ(Count("PK = 1"), 1);
}

TEST_F(TxnTest, TransactionControlRequiresSessionContext) {
  EXPECT_FALSE(db_->Execute("BEGIN").ok());
  EXPECT_FALSE(db_->Execute("COMMIT").ok());
  EXPECT_FALSE(db_->Execute("ROLLBACK").ok());
}

TEST_F(TxnTest, ScriptCommitAndRollback) {
  ASSERT_TRUE(db_->ExecuteScript(R"(
    BEGIN;
    INSERT INTO T VALUES (100, 1);
    COMMIT;
    BEGIN TRANSACTION;
    INSERT INTO T VALUES (101, 2);
    ROLLBACK;
  )").ok());
  EXPECT_EQ(Count("PK = 100"), 1);
  EXPECT_EQ(Count("PK = 101"), 0);
}

TEST_F(TxnTest, ScriptRollsBackOpenTransactionAtEnd) {
  ASSERT_TRUE(db_->ExecuteScript(R"(
    BEGIN;
    INSERT INTO T VALUES (100, 1);
  )").ok());
  EXPECT_EQ(Count("PK = 100"), 0);
}

TEST_F(TxnTest, SessionTransactionLifecycle) {
  Session session(db_.get());
  ASSERT_TRUE(session.Execute("BEGIN WORK").ok());
  EXPECT_TRUE(session.in_txn());
  ASSERT_TRUE(session.Execute("INSERT INTO T VALUES (100, 1)").ok());
  // Uncommitted rows are visible to the owning session's reads.
  auto mine = session.ExecuteQuery("SELECT COUNT(*) FROM T WHERE PK = 100");
  ASSERT_TRUE(mine.ok()) << mine.status().ToString();
  EXPECT_EQ(mine->rows[0][0].AsInt(), 1);
  ASSERT_TRUE(session.Execute("COMMIT").ok());
  EXPECT_FALSE(session.in_txn());
  EXPECT_EQ(Count("PK = 100"), 1);

  EXPECT_FALSE(session.Execute("COMMIT").ok());    // No open transaction.
  EXPECT_FALSE(session.Execute("ROLLBACK").ok());
  ASSERT_TRUE(session.Execute("BEGIN").ok());
  EXPECT_FALSE(session.Execute("BEGIN").ok());     // Already open.
  ASSERT_TRUE(session.Execute("ROLLBACK").ok());
}

TEST_F(TxnTest, SessionDestructorRollsBackOpenTransaction) {
  {
    Session session(db_.get());
    ASSERT_TRUE(session.Execute("BEGIN").ok());
    ASSERT_TRUE(session.Execute("INSERT INTO T VALUES (100, 1)").ok());
  }
  EXPECT_EQ(Count("PK = 100"), 0);
  // The X lock died with the session: others can write again.
  EXPECT_TRUE(db_->Mutate("INSERT INTO T VALUES (100, 1)").ok());
}

TEST_F(TxnTest, WriterBlocksWriterUntilTimeout) {
  db_->lock_manager().set_timeout(std::chrono::milliseconds(50));
  auto txn = db_->BeginTxn();
  ASSERT_TRUE(db_->Mutate("INSERT INTO T VALUES (100, 1)", txn.get()).ok());
  // A concurrent auto-commit write on the same relation cannot get the X
  // lock: bounded wait, then a clean statement failure.
  auto blocked = db_->Mutate("INSERT INTO T VALUES (101, 2)");
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(db_->CommitTxn(txn.get()).ok());
  // Lock released: the write goes through now.
  EXPECT_TRUE(db_->Mutate("INSERT INTO T VALUES (101, 2)").ok());
}

TEST_F(TxnTest, WriterBlocksReaderUntilCommit) {
  db_->lock_manager().set_timeout(std::chrono::milliseconds(50));
  auto txn = db_->BeginTxn();
  ASSERT_TRUE(db_->Mutate("DELETE FROM T WHERE PK = 0", txn.get()).ok());
  // An auto-commit read takes an ephemeral S lock — incompatible with the
  // writer's X, so uncommitted deletes are never observed.
  auto r = db_->Query("SELECT COUNT(*) FROM T");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(db_->RollbackTxn(txn.get()).ok());
  EXPECT_EQ(Count(), 20);
}

TEST_F(TxnTest, ExecLimitsAbortDmlCleanly) {
  // A page budget too small for the UPDATE's scan: the statement must abort
  // with kResourceExhausted, leave no partial effects (auto-commit rollback),
  // and the engine must stay fully usable afterwards.
  ExecLimits tiny;
  tiny.max_buffer_gets = 1;
  db_->set_exec_limits(tiny);
  auto r = db_->Mutate("UPDATE T SET V = V + 1 WHERE PK >= 0");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  db_->set_exec_limits(ExecLimits{});
  EXPECT_EQ(Count("V = 0"), 1);   // Row (0,0) untouched.
  EXPECT_EQ(Count(), 20);
  // Reusable: the same statement succeeds without the budget.
  ASSERT_TRUE(db_->Mutate("UPDATE T SET V = V + 1 WHERE PK >= 0").ok());
  EXPECT_EQ(Count("V = 1"), 1);
}

TEST_F(TxnTest, DmlBudgetCoversWholeStatement) {
  // One ExecContext per DML statement, so one budget: the target scan and
  // the mutation loop draw on the same buffer gets. Here the DELETE collects
  // its 429 rows in 21 gets and then spends 1287 deleting them; a 1292-get
  // budget covers either phase alone, but not the statement.
  db_ = std::make_unique<Database>(64);
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
  ExecLimits budget;
  budget.max_buffer_gets = 1292;
  db_->set_exec_limits(budget);
  auto r = db_->Mutate("DELETE FROM T WHERE B = 3");
  ASSERT_FALSE(r.ok()) << *r << " rows deleted within the budget";
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  db_->set_exec_limits(ExecLimits{});
  EXPECT_EQ(Count(), 3000);
}

TEST_F(TxnTest, ExecLimitsAbortInsideTransactionKeepsTxnAlive) {
  auto txn = db_->BeginTxn();
  ASSERT_TRUE(db_->Mutate("INSERT INTO T VALUES (100, 1)", txn.get()).ok());
  ExecLimits tiny;
  tiny.max_buffer_gets = 1;
  db_->set_exec_limits(tiny);
  auto r = db_->Mutate("DELETE FROM T WHERE PK >= 0", txn.get());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  db_->set_exec_limits(ExecLimits{});
  // The earlier statement's work is still there; the transaction commits.
  ASSERT_TRUE(db_->CommitTxn(txn.get()).ok());
  EXPECT_EQ(Count(), 21);
  EXPECT_EQ(Count("PK = 100"), 1);
}

// T(A, B) with 100 rows and B = 0; U(V) holding 1, 2 and 3.
void MakeSubqueryTables(Database* db) {
  ASSERT_TRUE(db->Execute("CREATE TABLE T (A INT, B INT)").ok());
  std::string sql = "INSERT INTO T VALUES ";
  for (int i = 0; i < 100; ++i) {
    sql += (i == 0 ? "(" : ", (") + std::to_string(i) + ", 0)";
  }
  ASSERT_TRUE(db->Execute(sql).ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE U (V INT)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO U VALUES (1), (2), (3)").ok());
}

// A DML statement S-locks what its WHERE and SET subqueries read, so it
// never computes a committed row from another transaction's uncommitted
// one: while a writer's INSERT into U is open, DML reading U waits, times
// out and leaves T as it was.
TEST_F(TxnTest, DmlSubqueriesWaitForUncommittedWriters) {
  db_ = std::make_unique<Database>(64);
  MakeSubqueryTables(db_.get());
  db_->lock_manager().set_timeout(std::chrono::milliseconds(50));
  const std::string update =
      "UPDATE T SET B = (SELECT MAX(V) FROM U) WHERE A < 50";
  Session writer(db_.get());
  Session reader(db_.get());
  ASSERT_TRUE(writer.Execute("BEGIN").ok());
  ASSERT_TRUE(writer.Execute("INSERT INTO U VALUES (1000)").ok());
  for (const std::string& sql :
       {update, std::string("DELETE FROM T WHERE A IN (SELECT V FROM U)")}) {
    auto blocked = reader.Execute(sql);
    ASSERT_FALSE(blocked.ok()) << sql << " affected " << blocked->affected;
    EXPECT_EQ(blocked.status().code(), StatusCode::kResourceExhausted) << sql;
    EXPECT_EQ(Count(), 100);
    EXPECT_EQ(Count("B = 0"), 100);
  }
  ASSERT_TRUE(writer.Execute("ROLLBACK").ok());
  auto updated = reader.Execute(update);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->affected, 50u);
  EXPECT_EQ(Count("B = 3"), 50);
}

// The concurrent form: one session's UPDATE reads U through a subquery
// while another auto-commits inserts into U. The S lock keeps the
// subquery's scan off pages the writer is changing (the ThreadSanitizer
// target), and every statement succeeds.
TEST_F(TxnTest, DmlSubqueryReaderAndConcurrentWriter) {
  db_ = std::make_unique<Database>(64);
  MakeSubqueryTables(db_.get());
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < 4000; ++i) {
      if (!db_->Mutate("INSERT INTO U VALUES (" + std::to_string(i) + ")")
               .ok()) {
        ++failures;
      }
    }
  });
  Session reader(db_.get());
  for (int i = 0; i < 200; ++i) {
    auto r = reader.Execute(
        "UPDATE T SET B = (SELECT MAX(V) FROM U) WHERE A < 50");
    if (!r.ok() || r->affected != 50) ++failures;
  }
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(
      reader.Execute("UPDATE T SET B = (SELECT MAX(V) FROM U) WHERE A < 50")
          .ok());
  EXPECT_EQ(Count("B = 3999"), 50);
}

TEST_F(TxnTest, GroupCommitBatchesFsyncsAndSurvivesCrash) {
  // Eight sessions commit concurrently against a WAL whose fsync takes 3ms.
  // Group commit must elect leaders and piggyback the rest: well under one
  // fsync per commit. Each thread gets its own table — commits on the SAME
  // table would serialize on the relation X lock and never overlap.
  constexpr int kThreads = 8;
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(db_->Execute("CREATE TABLE G" + std::to_string(i) +
                             " (PK INT, V INT)").ok());
  }
  WalManager::Stats before = db_->rss().wal().stats();
  db_->rss().wal().set_sync_delay_us(3000);

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session session(db_.get(), nullptr);
      if (!session.Begin().ok() ||
          !session.Mutate("INSERT INTO G" + std::to_string(t) + " VALUES (" +
                          std::to_string(t) + ", 1)").ok() ||
          !session.Commit().ok()) {
        ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  db_->rss().wal().set_sync_delay_us(0);
  ASSERT_EQ(failures.load(), 0);

  WalManager::Stats after = db_->rss().wal().stats();
  uint64_t syncs = after.syncs - before.syncs;
  uint64_t piggybacked = after.piggybacked - before.piggybacked;
  // Every commit became durable, but with fewer fsyncs than commits: at
  // least one committer rode another's fsync.
  EXPECT_LT(syncs, kThreads) << "no fsync batching happened";
  EXPECT_GT(piggybacked, 0u);
  EXPECT_GE(syncs + piggybacked, (uint64_t)kThreads);

  // Crash at exactly the durable prefix (what a real fsync guarantees) and
  // recover: every one of the batched commits must survive — piggybacking
  // must never report durability a crash can lose.
  std::string wal = db_->rss().wal().SnapshotBytes(db_->rss().wal().durable_size());
  Database fresh(64);
  auto stats = fresh.Recover(wal);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (int i = 0; i < kThreads; ++i) {
    auto r = fresh.Query("SELECT COUNT(*) FROM G" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0].AsInt(), 1) << "lost batched commit on G" << i;
  }
}

}  // namespace
}  // namespace systemr
