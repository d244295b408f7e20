#include "db/database.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "db/dml.h"
#include "optimizer/explain.h"
#include "sql/binder.h"

namespace systemr {

namespace {

/// What an entry point that takes only a query answers other kinds with.
Status NotAQuery() {
  return Status::InvalidArgument("expected a SELECT statement");
}

/// A statement's `?` markers and the values given for them must match.
Status CheckParamCount(int num_params, size_t bound) {
  if (static_cast<size_t>(num_params) == bound) return Status::OK();
  return Status::InvalidArgument("statement takes " +
                                 std::to_string(num_params) +
                                 " parameter(s), " + std::to_string(bound) +
                                 " bound");
}

}  // namespace

Database::Database(size_t buffer_pages, OptimizerOptions options)
    : options_(options), rss_(buffer_pages), catalog_(&rss_) {
  options_.cost.buffer_pages = buffer_pages;
  // The feedback loop is on by default; callers opting out (the Table 1
  // measurement baseline) explicitly passed feedback == nullptr... which is
  // also the default-constructed value, so wire the store up here and let
  // set_feedback_enabled(false) detach it.
  options_.feedback = &feedback_;
}

StatusOr<OptimizedQuery> Database::Compile(
    const Statement& stmt, const OptimizerOptions& options,
    std::optional<BaselineKind> baseline) {
  if (stmt.kind != Statement::Kind::kSelect &&
      stmt.kind != Statement::Kind::kExplain) {
    return NotAQuery();
  }
  Binder binder(&catalog_);
  ASSIGN_OR_RETURN(std::unique_ptr<BoundQueryBlock> block,
                   binder.Bind(*stmt.select));
  StatusOr<OptimizedQuery> query =
      baseline.has_value()
          ? OptimizeBaseline(&catalog_, std::move(block), *baseline, options)
          : Optimizer(&catalog_, options).Optimize(std::move(block));
  if (query.ok()) query->num_params = stmt.num_params;
  return query;
}

StatusOr<OptimizedQuery> Database::Prepare(const std::string& sql) {
  ASSIGN_OR_RETURN(Statement stmt, Parse(sql));
  return Prepare(stmt, options_.max_dop);
}

StatusOr<OptimizedQuery> Database::Prepare(const Statement& stmt,
                                           int max_dop) {
  if (stmt.kind != Statement::Kind::kSelect) return NotAQuery();
  OptimizerOptions opts = options_;
  opts.max_dop = max_dop;
  return Compile(stmt, opts);
}

StatusOr<OptimizedQuery> Database::PrepareBaseline(const std::string& sql,
                                                   BaselineKind kind) {
  ASSIGN_OR_RETURN(Statement stmt, Parse(sql));
  return Compile(stmt, options_, kind);
}

StatusOr<QueryResult> Database::Run(const OptimizedQuery& query) {
  return Run(query, {}, nullptr);
}

StatusOr<QueryResult> Database::Run(const OptimizedQuery& query,
                                    const std::vector<Value>& params,
                                    const ExecLimits* limits, Txn* txn) {
  RETURN_IF_ERROR(CheckParamCount(query.num_params, params.size()));
  // Shared locks on every relation the plan reads. A transaction keeps them
  // (strict 2PL); an auto-committed read drops them when the run ends.
  TxnId lock_owner =
      txn != nullptr ? txn->id()
                     : next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  RETURN_IF_ERROR(lock_mgr_.AcquireAll(
      lock_owner, ReadSet(*query.block, query.subquery_plans),
      LockMode::kShared));
  struct EphemeralRelease {
    LockManager* mgr;
    TxnId owner;
    ~EphemeralRelease() {
      if (mgr != nullptr) mgr->ReleaseAll(owner);
    }
  } release{txn == nullptr ? &lock_mgr_ : nullptr, lock_owner};

  ExecContext ctx(&rss_, &catalog_, &query.subquery_plans, options_.cost.w);
  ctx.set_limits(limits != nullptr ? *limits : exec_limits_);
  ctx.set_params(&params);
  ctx.set_worker_pool(&worker_pool_);
  ASSIGN_OR_RETURN(ExecResult exec, ExecutePlan(&ctx, *query.block,
                                                query.root));
  if (options_.feedback != nullptr) RecordFeedback(ctx, query);
  QueryResult result;
  result.columns = query.block->select_names;
  result.rows = std::move(exec.rows);
  result.stats = exec.stats;
  result.actual_cost = exec.stats.ActualCost(options_.cost.w);
  result.est_cost = query.est_cost;
  result.est_rows = query.est_rows;
  return result;
}

void Database::RecordFeedback(const ExecContext& ctx,
                              const OptimizedQuery& query) {
  // Walk the main plan for scan nodes that ran exactly once and to
  // completion; their total row count observes the joint selectivity of
  // their local factors. The observed/estimated ratio is attributed to each
  // factor in log space, weighted by the factor's share of the estimate
  // (the AQO marginal-selectivity decomposition) — so a factor the planner
  // already considered non-selective absorbs little of the error.
  std::vector<const PlanNode*> stack = {query.root.get()};
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    if (node->left != nullptr) stack.push_back(node->left.get());
    if (node->right != nullptr) stack.push_back(node->right.get());
    if (node->kind != PlanKind::kSegScan && node->kind != PlanKind::kIndexScan) {
      continue;
    }
    const ScanSpec& spec = node->scan;
    if (!spec.feedback_eligible || spec.feedback_terms.empty()) continue;
    auto it = ctx.scan_observations().find(node);
    if (it == ctx.scan_observations().end() || !it->second.exhausted) continue;

    double base = std::max(spec.est_base_card, 1.0);
    double obs = std::clamp(static_cast<double>(it->second.rows) / base,
                            1e-9, 1.0);
    double est = std::clamp(spec.est_sel_used, 1e-9, 1.0);
    double log_ratio = std::log(obs) - std::log(est);
    double log_est = std::log(est);
    for (const ScanSpec::FeedbackTerm& term : spec.feedback_terms) {
      double used = std::clamp(term.used_sel, 1e-9, 1.0);
      // Share of the joint estimate this factor claimed (equal shares when
      // nothing was estimated selective).
      double w = log_est < -1e-12
                     ? std::log(used) / log_est
                     : 1.0 / static_cast<double>(spec.feedback_terms.size());
      feedback_.Record(term.signature, used * std::exp(w * log_ratio));
    }
  }
}

StatusOr<QueryResult> Database::Query(const std::string& sql) {
  ASSIGN_OR_RETURN(Statement stmt, Parse(sql));
  if (stmt.kind != Statement::Kind::kSelect &&
      stmt.kind != Statement::Kind::kExplain) {
    return NotAQuery();
  }
  return Execute(stmt);
}

StatusOr<std::string> Database::Explain(const std::string& sql) {
  // Allow both "EXPLAIN SELECT ..." and a bare SELECT.
  ASSIGN_OR_RETURN(Statement stmt, Parse(sql));
  ASSIGN_OR_RETURN(OptimizedQuery prepared, Compile(stmt, options_));
  return ExplainPlan(prepared.root, *prepared.block);
}

std::unique_ptr<Txn> Database::BeginTxn() {
  auto txn = std::make_unique<Txn>(
      next_txn_id_.fetch_add(1, std::memory_order_relaxed));
  WalRecord rec;
  rec.type = WalRecordType::kBegin;
  rec.txn = txn->id();
  rss_.wal().Append(rec);
  return txn;
}

Status Database::CommitTxn(Txn* txn) {
  WalRecord rec;
  rec.type = WalRecordType::kCommit;
  rec.txn = txn->id();
  Lsn commit_end = rss_.wal().Append(rec);
  // The fsync point: once this returns, the commit record is durable and
  // the transaction survives any crash. SyncTo group-commits — concurrent
  // committers share one fsync instead of queueing one each.
  rss_.wal().SyncTo(commit_end);
  txn->undo().clear();
  lock_mgr_.ReleaseAll(txn->id());
  return Status::OK();
}

Status Database::RollbackToMark(Txn* txn, size_t mark) {
  std::vector<UndoOp>& undo = txn->undo();
  while (undo.size() > mark) {
    UndoOp op = std::move(undo.back());
    undo.pop_back();
    // Compensations log under the same transaction id: if the transaction
    // later commits, redo replays action + compensation — a net no-op on
    // exactly the original bytes (undo is physical-in-place, so the row
    // never moves and every TID in this undo log stays valid).
    Status s = catalog_.ApplyUndo(op, txn->id());
    if (!s.ok()) {
      return Status::DataLoss("rollback failed, storage inconsistent: " +
                              s.message());
    }
  }
  return Status::OK();
}

Status Database::RollbackTxn(Txn* txn) {
  Status s = RollbackToMark(txn, 0);
  WalRecord rec;
  rec.type = WalRecordType::kAbort;
  rec.txn = txn->id();
  rss_.wal().Append(rec);
  lock_mgr_.ReleaseAll(txn->id());
  return s;
}

Status Database::Begin(std::unique_ptr<Txn>* slot) {
  if (*slot != nullptr) {
    return Status::InvalidArgument("transaction already open");
  }
  *slot = BeginTxn();
  return Status::OK();
}

Status Database::Commit(std::unique_ptr<Txn>* slot) {
  if (*slot == nullptr) {
    return Status::InvalidArgument("COMMIT outside a transaction");
  }
  std::unique_ptr<Txn> txn = std::move(*slot);
  return CommitTxn(txn.get());
}

Status Database::Rollback(std::unique_ptr<Txn>* slot) {
  if (*slot == nullptr) {
    return Status::InvalidArgument("ROLLBACK outside a transaction");
  }
  std::unique_ptr<Txn> txn = std::move(*slot);
  return RollbackTxn(txn.get());
}

StatusOr<size_t> Database::ExecuteDml(Statement& stmt,
                                      const std::vector<Value>& params,
                                      const ExecLimits* limits, Txn* txn) {
  RETURN_IF_ERROR(CheckParamCount(stmt.num_params, params.size()));
  // Auto-commit: an internal single-statement transaction.
  std::unique_ptr<Txn> local = txn == nullptr ? BeginTxn() : nullptr;
  Txn* owner = txn != nullptr ? txn : local.get();
  size_t mark = owner->SavepointMark();
  StatusOr<size_t> result = systemr::ExecuteDml(
      &catalog_, &lock_mgr_, options_, &stmt, owner,
      limits != nullptr ? *limits : exec_limits_, params);
  if (local != nullptr) {
    RETURN_IF_ERROR(result.ok() ? CommitTxn(local.get())
                                : RollbackTxn(local.get()));
  } else if (!result.ok()) {
    // Statement-level atomicity: the failed statement's effects vanish,
    // the transaction lives on.
    RETURN_IF_ERROR(RollbackToMark(txn, mark));
  }
  return result;
}

StatusOr<size_t> Database::Mutate(const std::string& sql, Txn* txn,
                                  const ExecLimits* limits) {
  ASSIGN_OR_RETURN(Statement stmt, Parse(sql));
  if (stmt.kind != Statement::Kind::kInsert &&
      stmt.kind != Statement::Kind::kDelete &&
      stmt.kind != Statement::Kind::kUpdate) {
    return Status::InvalidArgument("Mutate() takes INSERT, DELETE or UPDATE");
  }
  return ExecuteDml(stmt, {}, limits, txn);
}

StatusOr<QueryResult> Database::Execute(Statement& stmt,
                                        const std::vector<Value>& params,
                                        const ExecLimits* limits,
                                        std::unique_ptr<Txn>* txn) {
  QueryResult result;
  Txn* open = txn != nullptr ? txn->get() : nullptr;
  switch (stmt.kind) {
    case Statement::Kind::kSelect: {
      ASSIGN_OR_RETURN(OptimizedQuery prepared, Compile(stmt, options_));
      ASSIGN_OR_RETURN(result, Run(prepared, params, limits, open));
      break;
    }
    case Statement::Kind::kExplain: {
      ASSIGN_OR_RETURN(OptimizedQuery prepared, Compile(stmt, options_));
      result = QueryResult::ForExplain(prepared);
      break;
    }
    case Statement::Kind::kCreateTable: {
      std::vector<ColumnDef> cols;
      for (const auto& [name, type] : stmt.create_table->columns) {
        cols.push_back(ColumnDef{name, type});
      }
      RETURN_IF_ERROR(catalog_
                          .CreateTable(stmt.create_table->name,
                                       Schema(std::move(cols)))
                          .status());
      break;
    }
    case Statement::Kind::kCreateIndex:
      RETURN_IF_ERROR(catalog_
                          .CreateIndex(stmt.create_index->name,
                                       stmt.create_index->table,
                                       stmt.create_index->columns,
                                       stmt.create_index->unique,
                                       stmt.create_index->clustered)
                          .status());
      break;
    case Statement::Kind::kUpdateStatistics:
      RETURN_IF_ERROR(
          catalog_.UpdateStatistics(stmt.update_statistics->table));
      break;
    case Statement::Kind::kInsert:
    case Statement::Kind::kDelete:
    case Statement::Kind::kUpdate: {
      ASSIGN_OR_RETURN(result.affected,
                       ExecuteDml(stmt, params, limits, open));
      break;
    }
    case Statement::Kind::kBegin:
    case Statement::Kind::kCommit:
    case Statement::Kind::kRollback:
      if (txn == nullptr) {
        return Status::InvalidArgument(
            "transaction control is only valid in a session or script");
      }
      RETURN_IF_ERROR(stmt.kind == Statement::Kind::kBegin    ? Begin(txn)
                      : stmt.kind == Statement::Kind::kCommit ? Commit(txn)
                                                              : Rollback(txn));
      break;
  }
  result.kind = stmt.kind;
  return result;
}

Status Database::Execute(const std::string& sql) {
  ASSIGN_OR_RETURN(Statement stmt, Parse(sql));
  return Execute(stmt).status();
}

Status Database::ExecuteScript(const std::string& sql) {
  ASSIGN_OR_RETURN(std::vector<Statement> stmts, ParseScript(sql));
  std::unique_ptr<Txn> txn;  // Script-local transaction, if BEGIN was seen.
  Status s;
  for (Statement& stmt : stmts) {
    s = Execute(stmt, {}, nullptr, &txn).status();
    if (!s.ok()) break;
  }
  // A transaction still open when the script ends (or fails) rolls back.
  if (txn != nullptr) {
    Status rb = Rollback(&txn);
    if (s.ok()) s = rb;
  }
  return s;
}

QueryResult QueryResult::ForExplain(const OptimizedQuery& query) {
  QueryResult result;
  result.kind = Statement::Kind::kExplain;
  result.plan_text = ExplainPlan(query.root, *query.block);
  result.est_cost = query.est_cost;
  result.est_rows = query.est_rows;
  return result;
}

std::string QueryResult::ToString(size_t max_rows) const {
  if (!plan_text.empty()) return plan_text;
  std::ostringstream os;
  std::vector<size_t> widths(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) widths[c] = columns[c].size();
  size_t shown = std::min(rows.size(), max_rows);
  std::vector<std::vector<std::string>> cells(shown);
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      std::string s = c < rows[r].size() ? rows[r][c].ToString() : "";
      widths[c] = std::max(widths[c], s.size());
      cells[r].push_back(std::move(s));
    }
  }
  auto line = [&](const std::vector<std::string>& vals) {
    for (size_t c = 0; c < columns.size(); ++c) {
      os << "| " << vals[c] << std::string(widths[c] - vals[c].size() + 1, ' ');
    }
    os << "|\n";
  };
  line(columns);
  for (size_t c = 0; c < columns.size(); ++c) {
    os << "+" << std::string(widths[c] + 2, '-');
  }
  os << "+\n";
  for (size_t r = 0; r < shown; ++r) line(cells[r]);
  if (rows.size() > shown) {
    os << "... (" << rows.size() << " rows total)\n";
  } else {
    os << "(" << rows.size() << " row" << (rows.size() == 1 ? "" : "s")
       << ")\n";
  }
  return os.str();
}

}  // namespace systemr
