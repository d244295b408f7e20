#include "db/dml.h"

#include <algorithm>

#include "exec/operators.h"
#include "optimizer/access_path_gen.h"
#include "sql/binder.h"

namespace systemr {

namespace {

struct DmlScan {
  std::unique_ptr<BoundQueryBlock> block;
  SubplanMap subplans;
  // Qualifying tuples, collected in full before mutation (Halloween-safe).
  std::vector<std::pair<Tid, Row>> matches;  // Row is the block-width row.
};

/// Binds the DML target + WHERE as a one-table query block, selects the
/// cheapest access path, plans the WHERE subqueries into `out->subplans`
/// (the map `exec` reads), and collects every qualifying (TID, row) into
/// `out`. The collection scan runs on `exec`, the statement's one context,
/// so it shares the mutation loop's meter and limits: a tripped
/// budget/deadline/cancel aborts before any tuple is touched.
Status CollectTargets(ExecContext* exec, const OptimizerOptions& options,
                      const std::string& table, std::unique_ptr<Expr> where,
                      DmlScan* out) {
  const Catalog* catalog = exec->catalog();
  SelectStmt synthetic;
  synthetic.select_star = true;
  synthetic.from.push_back(FromItem{table, table});
  synthetic.where = std::move(where);
  Binder binder(catalog);
  ASSIGN_OR_RETURN(out->block, binder.Bind(synthetic));
  const BoundQueryBlock& block = *out->block;

  // Access path selection, exactly as for a single-relation query (§4), on
  // model selectivities: DML passes no feedback store.
  PlannerContext ctx(catalog, block, options.cost, options.use_column_stats,
                     /*feedback=*/nullptr);
  const AccessPath* best = CheapestPath(ctx.AccessPaths(0, 0));
  if (best == nullptr) return Status::Internal("no access path for DML target");

  // Predicates the scan cannot apply: subquery / correlated factors.
  Optimizer optimizer(catalog, options);
  std::vector<const BoundExpr*> leftover;
  for (const BooleanFactor* f : ctx.Leftovers()) {
    leftover.push_back(f->expr);
    RETURN_IF_ERROR(optimizer.PlanSubqueries(*f->expr, &out->subplans));
  }

  ExprProgram leftover_prog;
  leftover_prog.CompilePreds(&leftover);

  ScanOp scan(exec, &block, best->node.get(), nullptr);
  RETURN_IF_ERROR(scan.Open());
  RowBatch batch;
  while (true) {
    bool has;
    RETURN_IF_ERROR(scan.NextBatch(&batch, &has));
    if (!has) break;
    RETURN_IF_ERROR(leftover_prog.EvalBoolBatch(exec, batch.rows, &batch.sel));
    for (uint32_t idx : batch.sel) {
      out->matches.emplace_back(scan.tids()[idx], std::move(batch.rows[idx]));
    }
  }
  return Status::OK();
}

}  // namespace

// Each statement below runs on one ExecContext, installed as the thread's
// meter for the whole statement: the target scan and the mutation loop
// count into one block, so the buffer-get budget covers the statement. The
// DmlScan is declared first so it outlives the context that reads its
// plans; every row boundary re-checks the budget, deadline and cancel flag.

StatusOr<size_t> ExecuteDeleteStatement(Catalog* catalog,
                                        const OptimizerOptions& options,
                                        DeleteStmt* stmt, Txn* txn,
                                        const ExecLimits* limits) {
  DmlScan scan;
  ExecContext exec(catalog->rss(), catalog, &scan.subplans, options.cost.w);
  if (limits != nullptr) exec.set_limits(*limits);
  MeterScope meter_scope(&exec.stats());
  RETURN_IF_ERROR(CollectTargets(&exec, options, stmt->table,
                                 std::move(stmt->where), &scan));
  for (const auto& [tid, row] : scan.matches) {
    RETURN_IF_ERROR(exec.CheckInterrupts());
    RETURN_IF_ERROR(catalog->DeleteRow(stmt->table, tid, txn));
  }
  return scan.matches.size();
}

StatusOr<size_t> ExecuteUpdateStatement(Catalog* catalog,
                                        const OptimizerOptions& options,
                                        UpdateStmt* stmt, Txn* txn,
                                        const ExecLimits* limits) {
  DmlScan scan;
  ExecContext exec(catalog->rss(), catalog, &scan.subplans, options.cost.w);
  if (limits != nullptr) exec.set_limits(*limits);
  MeterScope meter_scope(&exec.stats());
  RETURN_IF_ERROR(CollectTargets(&exec, options, stmt->table,
                                 std::move(stmt->where), &scan));
  const BoundQueryBlock& block = *scan.block;
  const TableInfo& table = *block.tables[0].table;

  // Bind SET targets and right-hand sides in the block's scope, plan their
  // subqueries, and compile them.
  Binder binder(catalog);
  Optimizer optimizer(catalog, options);
  std::vector<std::pair<size_t, std::unique_ptr<BoundExpr>>> sets;
  for (const auto& [column, expr] : stmt->sets) {
    auto ordinal = table.schema.FindColumn(column);
    if (!ordinal.has_value()) {
      return Status::NotFound("no such column: " + column);
    }
    ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bound,
                     binder.BindExprInBlock(*expr, scan.block.get()));
    ValueType target = table.schema.column(*ordinal).type;
    if (bound->type != ValueType::kNull && bound->type != target &&
        !(IsArithmetic(bound->type) && IsArithmetic(target))) {
      return Status::InvalidArgument("type mismatch in SET " + column);
    }
    RETURN_IF_ERROR(optimizer.PlanSubqueries(*bound, &scan.subplans));
    sets.emplace_back(*ordinal, std::move(bound));
  }
  std::vector<ExprProgram> set_progs(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    set_progs[i].CompileExpr(sets[i].second.get());
  }

  // Every new row is computed before the first one is written, so SET
  // expressions, subqueries included, read the table as it was before the
  // update. The new base-table row (old columns with SET values applied)
  // replaces the matched row.
  for (auto& match : scan.matches) {
    RETURN_IF_ERROR(exec.CheckInterrupts());
    const Row& row = match.second;
    Row new_row(row.begin(), row.begin() + table.schema.num_columns());
    for (size_t i = 0; i < sets.size(); ++i) {
      size_t ordinal = sets[i].first;
      Value& v = new_row[ordinal];
      RETURN_IF_ERROR(set_progs[i].EvalValue(&exec, row, &v));
      // INT target with a REAL expression result: truncate, like System R's
      // assignment semantics for arithmetic expressions.
      if (!v.is_null() &&
          table.schema.column(ordinal).type == ValueType::kInt64 &&
          v.type() == ValueType::kDouble) {
        v = Value::Int(static_cast<int64_t>(v.AsReal()));
      }
    }
    match.second = std::move(new_row);
  }
  for (const auto& [tid, row] : scan.matches) {
    RETURN_IF_ERROR(exec.CheckInterrupts());
    RETURN_IF_ERROR(catalog->UpdateRow(stmt->table, tid, row, txn));
  }
  return scan.matches.size();
}

StatusOr<size_t> ExecuteInsertStatement(Catalog* catalog,
                                        const InsertStmt& stmt, Txn* txn,
                                        const ExecLimits* limits) {
  ExecContext exec(catalog->rss(), catalog, nullptr, 0.0);
  if (limits != nullptr) exec.set_limits(*limits);
  MeterScope meter_scope(&exec.stats());
  for (const auto& row : stmt.rows) {
    RETURN_IF_ERROR(exec.CheckInterrupts());
    RETURN_IF_ERROR(catalog->Insert(stmt.table, row, txn));
  }
  return stmt.rows.size();
}

}  // namespace systemr
