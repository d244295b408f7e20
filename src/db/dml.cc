#include "db/dml.h"

#include <algorithm>

#include "exec/operators.h"
#include "optimizer/access_path_gen.h"
#include "sql/binder.h"

namespace systemr {

namespace {

// Qualifying tuples with their block-width rows.
using Matches = std::vector<std::pair<Tid, Row>>;

/// Scans the target through `path`, keeps the rows `leftover` accepts, and
/// collects every qualifying (TID, row) in full before any mutation
/// (Halloween-safe). A tripped budget, deadline or cancel aborts here,
/// before any tuple is touched.
Status CollectTargets(ExecContext* exec, const BoundQueryBlock& block,
                      const PlanNode& path, ExprProgram* leftover,
                      Matches* out) {
  ScanOp scan(exec, &block, &path, nullptr);
  RETURN_IF_ERROR(scan.Open());
  RowBatch batch;
  while (true) {
    bool has;
    RETURN_IF_ERROR(scan.NextBatch(&batch, &has));
    if (!has) break;
    RETURN_IF_ERROR(leftover->EvalBoolBatch(exec, batch.rows, &batch.sel));
    for (uint32_t idx : batch.sel) {
      out->emplace_back(scan.tids()[idx], std::move(batch.rows[idx]));
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<size_t> ExecuteDml(Catalog* catalog, LockManager* locks,
                            const OptimizerOptions& options, Statement* stmt,
                            Txn* txn, const ExecLimits& limits,
                            const std::vector<Value>& params) {
  InsertStmt* insert = stmt->insert.get();
  UpdateStmt* update = stmt->update_stmt.get();
  const std::string& target = insert != nullptr   ? insert->table
                              : update != nullptr ? update->table
                                                  : stmt->delete_stmt->table;
  const TableInfo* info = catalog->FindTable(target);
  if (info == nullptr) return Status::NotFound("no such table: " + target);
  RETURN_IF_ERROR(locks->Acquire(txn->id(), info->id, LockMode::kExclusive));

  // The statement's one context, installed as the thread's meter throughout.
  // The subquery plans are declared first so they outlive it; every row
  // boundary re-checks the budget, deadline and cancel flag.
  SubplanMap subplans;
  ExecContext exec(catalog->rss(), catalog, &subplans, options.cost.w);
  exec.set_limits(limits);
  exec.set_params(&params);
  MeterScope meter_scope(&exec.stats());
  if (insert != nullptr) {
    for (const auto& row : insert->rows) {
      RETURN_IF_ERROR(exec.CheckInterrupts());
      RETURN_IF_ERROR(catalog->Insert(target, row, txn));
    }
    return insert->rows.size();
  }

  // The target and WHERE bind as a one-table query block, and the cheapest
  // access path is selected exactly as for a single-relation query (§4), on
  // model selectivities: DML passes no feedback store.
  SelectStmt synthetic;
  synthetic.select_star = true;
  synthetic.from.push_back(FromItem{target, target});
  synthetic.where = std::move(update != nullptr ? update->where
                                                : stmt->delete_stmt->where);
  Binder binder(catalog);
  ASSIGN_OR_RETURN(std::unique_ptr<BoundQueryBlock> block,
                   binder.Bind(synthetic));
  PlannerContext ctx(catalog, *block, options.cost, options.use_column_stats,
                     /*feedback=*/nullptr);
  PlanRef best = CheapestPath(ctx.AccessPaths(0, 0));
  if (best == nullptr) return Status::Internal("no access path for DML target");

  // Predicates the scan cannot apply: subquery / correlated factors.
  Optimizer optimizer(catalog, options);
  std::vector<const BoundExpr*> leftover;
  for (const BooleanFactor* f : ctx.Leftovers()) {
    leftover.push_back(f->expr);
    RETURN_IF_ERROR(optimizer.PlanSubqueries(*f->expr, &subplans));
  }
  ExprProgram leftover_prog;
  leftover_prog.CompilePreds(&leftover);

  // An UPDATE's SET targets and right-hand sides bind in the block's scope;
  // their subqueries are planned and they compile.
  const Schema& schema = info->schema;
  std::vector<std::pair<size_t, std::unique_ptr<BoundExpr>>> sets;
  for (size_t i = 0; update != nullptr && i < update->sets.size(); ++i) {
    const auto& [column, expr] = update->sets[i];
    auto ordinal = schema.FindColumn(column);
    if (!ordinal.has_value()) {
      return Status::NotFound("no such column: " + column);
    }
    ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bound,
                     binder.BindExprInBlock(*expr, block.get()));
    ValueType type = schema.column(*ordinal).type;
    if (bound->type != ValueType::kNull && bound->type != type &&
        !(IsArithmetic(bound->type) && IsArithmetic(type))) {
      return Status::InvalidArgument("type mismatch in SET " + column);
    }
    RETURN_IF_ERROR(optimizer.PlanSubqueries(*bound, &subplans));
    sets.emplace_back(*ordinal, std::move(bound));
  }
  std::vector<ExprProgram> set_progs(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    set_progs[i].CompileExpr(sets[i].second.get());
  }

  // Everything the statement reads is locked before its first read, so no
  // subquery sees another transaction's uncommitted rows. Without
  // subqueries it reads only its target, which it already holds in X.
  if (!subplans.empty()) {
    RETURN_IF_ERROR(locks->AcquireAll(txn->id(), ReadSet(*block, subplans),
                                      LockMode::kShared));
  }
  Matches matches;
  RETURN_IF_ERROR(
      CollectTargets(&exec, *block, *best, &leftover_prog, &matches));

  // Every new row is computed before the first one is written, so SET
  // expressions, subqueries included, read the table as it was before the
  // update. The new base-table row (old columns with SET values applied)
  // replaces the matched row; the catalog coerces each SET value to its
  // column as it stores the row.
  for (size_t m = 0; update != nullptr && m < matches.size(); ++m) {
    Matches::value_type& match = matches[m];
    RETURN_IF_ERROR(exec.CheckInterrupts());
    const Row& row = match.second;
    Row new_row(row.begin(), row.begin() + schema.num_columns());
    for (size_t i = 0; i < sets.size(); ++i) {
      RETURN_IF_ERROR(
          set_progs[i].EvalValue(&exec, row, &new_row[sets[i].first]));
    }
    match.second = std::move(new_row);
  }
  for (const auto& [tid, row] : matches) {
    RETURN_IF_ERROR(exec.CheckInterrupts());
    RETURN_IF_ERROR(update != nullptr
                        ? catalog->UpdateRow(target, tid, row, txn)
                        : catalog->DeleteRow(target, tid, txn));
  }
  return matches.size();
}

}  // namespace systemr
