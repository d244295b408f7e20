// Plan execution entry point: builds the operator tree, runs it to
// completion, and returns the rows with the statement's counter block.
#ifndef SYSTEMR_EXEC_EXECUTOR_H_
#define SYSTEMR_EXEC_EXECUTOR_H_

#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "optimizer/plan.h"

namespace systemr {

struct ExecResult {
  std::vector<Row> rows;
  ExecStats stats;  // The context's block after the run.
};

/// Executes `root` (a full block plan ending in Project/Aggregate) against
/// the context's RSS. `ctx` must be fresh — one context per statement: the
/// run counts into ctx->stats() from zero (installed as this thread's meter,
/// so other sessions' work never lands in it), and the result carries that
/// block, with buffer_hits computed as gets − fetches.
StatusOr<ExecResult> ExecutePlan(ExecContext* ctx,
                                 const BoundQueryBlock& block,
                                 const PlanRef& root);

}  // namespace systemr

#endif  // SYSTEMR_EXEC_EXECUTOR_H_
