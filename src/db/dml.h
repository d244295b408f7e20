// DELETE and UPDATE execution. The paper notes that "retrieval for data
// manipulation (UPDATE, DELETE) is treated similarly" (§1): the target
// tuples are located through the same access path selection as a query —
// cheapest path, SARGs pushed to the RSS, residual and subquery predicates
// evaluated above — then mutated. All qualifying TIDs are collected *before*
// any mutation, avoiding the Halloween problem (an updated tuple reappearing
// later in the very index scan that is driving the update — a bug the System
// R group itself discovered).
#ifndef SYSTEMR_DB_DML_H_
#define SYSTEMR_DB_DML_H_

#include "catalog/catalog.h"
#include "exec/exec_context.h"
#include "optimizer/optimizer.h"
#include "sql/ast.h"

namespace systemr {

// All three statement executors propagate Status on any mid-statement
// failure and mutate through the catalog's row-atomic operations under
// `txn`; the caller (Database) rolls the transaction back to its statement
// savepoint on error, so a failed statement leaves no partially-applied
// rows visible. `limits`, when non-null, applies the per-statement
// deadline/cancel/budget checks to the whole statement: its target scan and
// mutation loop run on one ExecContext and share one budget.

/// Deletes qualifying rows; returns the number deleted. Consumes
/// `stmt->where`.
StatusOr<size_t> ExecuteDeleteStatement(Catalog* catalog,
                                        const OptimizerOptions& options,
                                        DeleteStmt* stmt, Txn* txn = nullptr,
                                        const ExecLimits* limits = nullptr);

/// Updates qualifying rows; returns the number updated. Consumes
/// `stmt->where`. SET expressions may reference any column of the table and
/// may contain subqueries; every new row is computed before the first is
/// written, so all of them read the pre-update table.
StatusOr<size_t> ExecuteUpdateStatement(Catalog* catalog,
                                        const OptimizerOptions& options,
                                        UpdateStmt* stmt, Txn* txn = nullptr,
                                        const ExecLimits* limits = nullptr);

/// Inserts the statement's literal rows; returns the number inserted.
StatusOr<size_t> ExecuteInsertStatement(Catalog* catalog,
                                        const InsertStmt& stmt,
                                        Txn* txn = nullptr,
                                        const ExecLimits* limits = nullptr);

}  // namespace systemr

#endif  // SYSTEMR_DB_DML_H_
