// INSERT, DELETE and UPDATE execution. The paper notes that "retrieval for
// data manipulation (UPDATE, DELETE) is treated similarly" (§1): the target
// tuples are located through the same access path selection as a query —
// cheapest path, SARGs pushed to the RSS, residual and subquery predicates
// evaluated above — then mutated. All qualifying TIDs are collected *before*
// any mutation, avoiding the Halloween problem (an updated tuple reappearing
// later in the very index scan that is driving the update — a bug the System
// R group itself discovered).
#ifndef SYSTEMR_DB_DML_H_
#define SYSTEMR_DB_DML_H_

#include "catalog/catalog.h"
#include "db/lock_manager.h"
#include "exec/exec_context.h"
#include "optimizer/optimizer.h"
#include "sql/ast.h"

namespace systemr {

/// Executes an INSERT, DELETE or UPDATE under `txn` and returns the number
/// of rows it inserted, deleted or updated. Before its first read the
/// statement takes X under `txn` on its target and S on every relation its
/// WHERE and SET subqueries read. It runs on one ExecContext carrying
/// `limits` and `params` (the values of its `?` markers), so its target
/// scan, subqueries and mutation loop share one counter block and one
/// budget. DELETE and UPDATE consume the statement's WHERE. An UPDATE's SET
/// expressions may reference any column of the table and may contain
/// subqueries; every new row is computed before the first is written, so all
/// of them read the pre-update table. Rows change through the catalog's
/// row-atomic operations; on error the caller rolls `txn` back to its
/// statement savepoint, so a failed statement leaves no rows changed.
StatusOr<size_t> ExecuteDml(Catalog* catalog, LockManager* locks,
                            const OptimizerOptions& options, Statement* stmt,
                            Txn* txn, const ExecLimits& limits,
                            const std::vector<Value>& params);

}  // namespace systemr

#endif  // SYSTEMR_DB_DML_H_
