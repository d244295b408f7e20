// Database: the end-user facade. Wires RSS + catalog + SQL front end +
// optimizer + executor into the four-phase statement pipeline of §2
// (parsing, optimization, code generation — here: plan construction — and
// execution), and reports both estimated and metered actual costs.
#ifndef SYSTEMR_DB_DATABASE_H_
#define SYSTEMR_DB_DATABASE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "db/lock_manager.h"
#include "exec/executor.h"
#include "exec/parallel/worker_pool.h"
#include "optimizer/baseline.h"
#include "optimizer/feedback.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"

namespace systemr {

/// What one statement did: the kind that ran, and its rows (SELECT), its
/// plan text (EXPLAIN) or its affected-row count (INSERT, DELETE, UPDATE).
/// Other kinds report only that they ran.
struct QueryResult {
  Statement::Kind kind = Statement::Kind::kSelect;
  std::vector<std::string> columns;
  std::vector<Row> rows;
  size_t affected = 0;
  ExecStats stats;
  double actual_cost = 0;
  double est_cost = 0;
  double est_rows = 0;
  std::string plan_text;  // Filled for EXPLAIN.

  /// The EXPLAIN result for a planned query: its plan text and estimates.
  static QueryResult ForExplain(const OptimizedQuery& query);

  /// Renders an aligned result table (up to `max_rows` rows).
  std::string ToString(size_t max_rows = 50) const;
};

class Database {
 public:
  explicit Database(size_t buffer_pages = 128, OptimizerOptions options = {});

  /// The statement router: runs a parsed statement of any kind and reports
  /// what ran. `params` binds a SELECT's or a DML statement's `?` markers;
  /// `limits`, when non-null, overrides the database-wide exec limits. `txn`
  /// is the caller's transaction slot: SELECT and DML join the transaction
  /// it holds (auto-commit when empty), and BEGIN/COMMIT/ROLLBACK open and
  /// end it. A null slot rejects transaction control. Consumes a DELETE's or
  /// UPDATE's WHERE.
  StatusOr<QueryResult> Execute(Statement& stmt,
                                const std::vector<Value>& params = {},
                                const ExecLimits* limits = nullptr,
                                std::unique_ptr<Txn>* txn = nullptr);
  /// Parses `sql` and routes it with no slot; a SELECT's rows are discarded.
  Status Execute(const std::string& sql);
  /// Statement sequence; supports BEGIN/COMMIT/ROLLBACK with a script-local
  /// transaction. A transaction still open at end of script is rolled back.
  Status ExecuteScript(const std::string& sql);

  /// Executes an INSERT, DELETE, or UPDATE and returns the number of
  /// affected rows. With `txn` the mutation joins that transaction (its
  /// locks are taken under the transaction, effects roll back to the
  /// statement savepoint on error); without, the statement auto-commits —
  /// it runs in an internal transaction committed on success and rolled
  /// back (leaving nothing) on failure. `limits`, when non-null, overrides
  /// the database-wide exec limits for this one statement (as in Run).
  StatusOr<size_t> Mutate(const std::string& sql, Txn* txn = nullptr,
                          const ExecLimits* limits = nullptr);

  // --- Transactions (ARIES-lite: redo-committed-only WAL + in-memory undo,
  //     strict two-phase relation locks; see DESIGN.md §9) ---
  /// Starts a transaction: assigns an id and logs BEGIN. The caller owns the
  /// Txn and must end it with CommitTxn or RollbackTxn.
  std::unique_ptr<Txn> BeginTxn();
  /// Logs COMMIT, forces the log (fsync point), and releases the
  /// transaction's locks. After this returns, the transaction survives any
  /// crash.
  Status CommitTxn(Txn* txn);
  /// Undoes the transaction's effects in reverse order, logs ABORT, and
  /// releases its locks.
  Status RollbackTxn(Txn* txn);
  /// Rolls back to a statement savepoint (undo-log mark), keeping the
  /// transaction alive.
  Status RollbackToMark(Txn* txn, size_t mark);
  /// BEGIN, COMMIT and ROLLBACK on a caller's transaction slot (a Session's
  /// or a script's): Begin fills an empty slot, Commit and Rollback end the
  /// transaction it holds and empty it. Each fails with kInvalidArgument
  /// when the slot is in the wrong state.
  Status Begin(std::unique_ptr<Txn>* slot);
  Status Commit(std::unique_ptr<Txn>* slot);
  Status Rollback(std::unique_ptr<Txn>* slot);

  LockManager& lock_manager() { return lock_mgr_; }

  // --- Crash recovery ---
  struct RecoveryStats {
    Lsn valid_prefix = 0;       // Log bytes that decoded and checksummed clean.
    Lsn dropped_bytes = 0;      // Torn/garbage tail discarded.
    size_t committed_txns = 0;  // Distinct committed ids (excl. the system txn).
    size_t replayed = 0;        // Page records replayed (committed work).
    size_t skipped = 0;         // Page records skipped (loser transactions).
  };
  /// ARIES-style restart on a freshly-constructed, empty database:
  /// analysis (valid log prefix + committed-transaction set), then redo of
  /// committed page records only — losers are simply never replayed, which
  /// is what makes uncommitted work vanish — then logical DDL replay
  /// (indexes and statistics are rebuilt from the recovered heaps, not
  /// page-replayed). The surviving prefix is carried forward as the new log
  /// so the recovered database keeps logging and can crash again.
  StatusOr<RecoveryStats> Recover(const std::string& wal_bytes);

  /// Runs a SELECT (or EXPLAIN SELECT) and returns rows (or the plan text).
  StatusOr<QueryResult> Query(const std::string& sql);

  /// EXPLAIN convenience: the optimizer's chosen plan, rendered.
  StatusOr<std::string> Explain(const std::string& sql);

  /// Parse+bind+optimize a SELECT without executing (for benches and
  /// tests); any other kind, EXPLAIN included, is kInvalidArgument.
  StatusOr<OptimizedQuery> Prepare(const std::string& sql);
  /// Same, for a statement already parsed (a Session parses the tokens it
  /// rendered its cache key from), overriding the optimizer's max_dop for
  /// this one statement (the PARALLEL n session setting; <= 1 plans
  /// serially).
  StatusOr<OptimizedQuery> Prepare(const Statement& stmt, int max_dop);
  /// Same, with a baseline strategy instead of the DP optimizer.
  StatusOr<OptimizedQuery> PrepareBaseline(const std::string& sql,
                                           BaselineKind kind);

  /// Executes a prepared query, measuring actual cost. The parameterless
  /// overload requires a statement without `?` markers.
  StatusOr<QueryResult> Run(const OptimizedQuery& query);
  /// Executes with `params` bound to the statement's `?` markers (must match
  /// query.num_params). `limits`, when non-null, overrides the database-wide
  /// exec limits for this one execution. With `txn`, shared locks on every
  /// referenced relation are taken under the transaction (held to commit);
  /// without, they are taken ephemerally for the run's duration so a
  /// concurrent writer's uncommitted rows are never read.
  StatusOr<QueryResult> Run(const OptimizedQuery& query,
                            const std::vector<Value>& params,
                            const ExecLimits* limits = nullptr,
                            Txn* txn = nullptr);

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  Rss& rss() { return rss_; }
  OptimizerOptions& options() { return options_; }
  const OptimizerOptions& options() const { return options_; }

  /// The database-wide learned-selectivity store (see optimizer/feedback.h).
  /// Run() records per-scan observations here after every successful SELECT;
  /// the optimizer reads it through options().feedback.
  SelectivityFeedback& feedback() { return feedback_; }
  const SelectivityFeedback& feedback() const { return feedback_; }
  /// Detaches (or re-attaches) the feedback loop from planning + recording.
  void set_feedback_enabled(bool enabled) {
    options_.feedback = enabled ? &feedback_ : nullptr;
  }

  /// Per-statement resource limits applied to every subsequent statement run
  /// through this database without an override (Run and Mutate take one; a
  /// Session passes its own). A statement that trips a limit aborts with
  /// kResourceExhausted/kCancelled; the database stays usable.
  void set_exec_limits(const ExecLimits& limits) { exec_limits_ = limits; }
  const ExecLimits& exec_limits() const { return exec_limits_; }

 private:
  /// Binds and plans a parsed SELECT or EXPLAIN — with the DP optimizer, or
  /// with `baseline` when given — and sets the plan's `?` count.
  StatusOr<OptimizedQuery> Compile(
      const Statement& stmt, const OptimizerOptions& options,
      std::optional<BaselineKind> baseline = std::nullopt);
  /// Mutate for a parsed statement, with `params` bound to its `?` markers:
  /// the router's DML leg. Null `limits` means the database-wide ones.
  StatusOr<size_t> ExecuteDml(Statement& stmt,
                              const std::vector<Value>& params,
                              const ExecLimits* limits, Txn* txn);

  void RecordFeedback(const ExecContext& ctx, const OptimizedQuery& query);

  OptimizerOptions options_;
  Rss rss_;
  Catalog catalog_;
  ExecLimits exec_limits_;
  SelectivityFeedback feedback_;
  LockManager lock_mgr_;
  // One id space for transactions and ephemeral read lock owners; 0 is the
  // system transaction.
  std::atomic<TxnId> next_txn_id_{1};
  // Shared by every statement's exchange operators; threads start lazily on
  // the first parallel fragment, so serial workloads never spawn any.
  WorkerPool worker_pool_;
};

}  // namespace systemr

#endif  // SYSTEMR_DB_DATABASE_H_
