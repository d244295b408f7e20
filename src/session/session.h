// Session: the user-process surface of §2's compile-once/execute-many
// lifecycle. A Session wraps a shared Database with
//   - PREPARE: parse + bind + optimize a (possibly parameterized) SELECT
//     once, through the shared PlanCache;
//   - EXECUTE: run the compiled plan repeatedly with fresh host-variable
//     values and per-execution limits, re-optimizing transparently when the
//     catalog version moved (an index appeared, statistics changed) — the
//     paper's invalidated-access-module recompilation;
//   - one statement entry point, Execute, that lexes each statement once,
//     runs a SELECT through the plan cache and every other kind through the
//     Database's router under the session's limits and transaction;
//   - per-session statistics distinguishing executions from optimizations.
//
// Threading model: one Session per thread. Sessions never share mutable
// state with each other — the Database underneath is safe for concurrent
// read queries (see DESIGN.md §5), the PlanCache is internally locked, and
// everything in the Session itself is thread-private.
#ifndef SYSTEMR_SESSION_SESSION_H_
#define SYSTEMR_SESSION_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "session/plan_cache.h"

namespace systemr {

class Session;

/// A compiled statement bound to the Session that prepared it. Executions
/// share one immutable OptimizedQuery (held by shared_ptr, so a concurrent
/// cache eviction never pulls the plan out from under a running EXECUTE).
class PreparedStatement {
 public:
  /// Runs the plan with `params` bound to the `?` markers (count must match
  /// num_params()). If the catalog version changed since the plan was
  /// compiled, the statement is re-optimized first.
  StatusOr<QueryResult> Execute(const std::vector<Value>& params = {});

  int num_params() const { return plan_->num_params; }
  const OptimizedQuery& plan() const { return *plan_; }
  /// The optimizer's chosen plan, rendered (re-rendered after re-prepare).
  std::string Explain() const;
  const std::string& sql() const { return sql_; }

 private:
  friend class Session;
  PreparedStatement(Session* session, std::string sql, std::string key,
                    std::shared_ptr<const OptimizedQuery> plan,
                    uint64_t catalog_version)
      : session_(session),
        sql_(std::move(sql)),
        key_(std::move(key)),
        plan_(std::move(plan)),
        catalog_version_(catalog_version) {}

  Session* session_;
  std::string sql_;   // Original text, for re-optimization.
  std::string key_;   // Normalized cache key.
  std::shared_ptr<const OptimizedQuery> plan_;
  uint64_t catalog_version_;
};

struct SessionStats {
  uint64_t executions = 0;     // Statements run to completion.
  uint64_t optimizations = 0;  // Times parse+bind+optimize actually ran.
  uint64_t cache_hits = 0;     // Plans served by the shared PlanCache.
  uint64_t reprepares = 0;     // Stale plans re-optimized at EXECUTE time.
  uint64_t feedback_replans = 0;  // Plans re-optimized on estimate divergence.
};

class Session {
 public:
  /// `cache` may be null (no plan caching) or shared by any number of
  /// sessions over the same `db`. Neither is owned.
  explicit Session(Database* db, PlanCache* cache = nullptr)
      : db_(db), cache_(cache) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  /// A transaction still open when the session ends is rolled back.
  ~Session() {
    if (txn_ != nullptr) (void)db_->RollbackTxn(txn_.get());
  }

  /// Compiles a SELECT (with optional `?` markers) for repeated execution.
  /// Any other statement kind fails with kInvalidArgument.
  StatusOr<PreparedStatement> Prepare(const std::string& sql);

  /// One-shot convenience: Prepare (through the cache) and Execute. Reads
  /// run inside the session's open transaction, if any (shared locks held to
  /// commit); otherwise locks are ephemeral.
  StatusOr<QueryResult> ExecuteQuery(const std::string& sql,
                                     const std::vector<Value>& params = {});

  // --- Transactions (strict 2PL relation locks; DESIGN.md §9) ---
  /// Opens a transaction. Fails if one is already open.
  Status Begin();
  /// Commits the open transaction: its effects become durable (WAL fsync
  /// point) and its locks release.
  Status Commit();
  /// Rolls the open transaction back: all its effects vanish.
  Status Rollback();
  bool in_txn() const { return txn_ != nullptr; }
  Txn* txn() { return txn_.get(); }

  /// Executes an INSERT/DELETE/UPDATE inside the session's open transaction
  /// (auto-commit when none) under the session's limits; returns affected
  /// rows.
  StatusOr<size_t> Mutate(const std::string& sql);

  /// Executes any single statement and reports what ran — the REPL's and
  /// the server's statement entry point. The text is lexed once. A SELECT
  /// goes through the plan cache (parsed only on a miss) and binds `params`;
  /// an EXPLAIN reads its SELECT's cache entry, so it shows the plan this
  /// session runs; every other kind is parsed from the same tokens and
  /// routed by the Database under the session's limits and transaction.
  StatusOr<QueryResult> Execute(const std::string& sql,
                                const std::vector<Value>& params = {});
  /// Same, for text the caller has already lexed into `tokens`.
  StatusOr<QueryResult> Execute(const std::string& sql,
                                std::vector<Token> tokens,
                                const std::vector<Value>& params);

  /// Per-execution resource limits for statements run via this session.
  void set_limits(const ExecLimits& limits) { limits_ = limits; }
  const ExecLimits& limits() const { return limits_; }

  /// PARALLEL n: maximum degree of parallelism for statements prepared by
  /// this session from here on (already-prepared statements keep their
  /// plans). Values <= 1 plan serially; the database's other optimizer
  /// options, force_parallel included, still apply. Parallel and serial
  /// plans of the same SQL coexist in the shared cache under dop-suffixed
  /// keys.
  void set_max_dop(int dop) { max_dop_ = dop < 1 ? 1 : dop; }
  int max_dop() const { return max_dop_; }

  const SessionStats& stats() const { return stats_; }
  Database* db() { return db_; }
  PlanCache* cache() { return cache_; }

 private:
  friend class PreparedStatement;

  /// Prepare, from `sql` already lexed into `tokens`.
  StatusOr<PreparedStatement> Prepare(const std::string& sql,
                                      std::vector<Token> tokens);

  /// Plan lookup through the shared cache under `key`, the rendering of
  /// `tokens`; on a miss parses `tokens`, optimizes and publishes the
  /// result. `*version_out` receives the catalog version the returned plan
  /// is valid for. `mark_replanned` skips the cache lookup, optimizes fresh
  /// (with whatever the feedback store has learned by now), and stamps the
  /// plan so estimate divergence can never trigger a second replan.
  StatusOr<std::shared_ptr<const OptimizedQuery>> PlanFor(
      std::vector<Token> tokens, const std::string& key,
      uint64_t* version_out, bool mark_replanned = false);

  Database* db_;
  PlanCache* cache_;
  ExecLimits limits_;
  SessionStats stats_;
  int max_dop_ = 1;
  std::unique_ptr<Txn> txn_;  // Open transaction, if any.
};

}  // namespace systemr

#endif  // SYSTEMR_SESSION_SESSION_H_
