#include "exec/executor.h"

#include "exec/aggregate.h"
#include "exec/hash_ops.h"
#include "exec/joins.h"
#include "exec/operators.h"
#include "exec/parallel/exchange.h"
#include "exec/sort.h"

namespace systemr {

std::unique_ptr<Operator> BuildOperator(ExecContext* ctx,
                                        const BoundQueryBlock* block,
                                        const PlanNode* node,
                                        const Row* binding) {
  switch (node->kind) {
    case PlanKind::kSegScan:
    case PlanKind::kIndexScan:
      return std::make_unique<ScanOp>(ctx, block, node, binding);
    case PlanKind::kSort:
      return std::make_unique<SortOp>(
          ctx, block, node, BuildOperator(ctx, block, node->left.get(),
                                          binding));
    case PlanKind::kNestedLoopJoin:
      // The inner child is built lazily per outer row inside the operator.
      return std::make_unique<NestedLoopJoinOp>(
          ctx, block, node,
          BuildOperator(ctx, block, node->left.get(), binding));
    case PlanKind::kMergeJoin:
      return std::make_unique<MergeJoinOp>(
          ctx, block, node,
          BuildOperator(ctx, block, node->left.get(), binding),
          BuildOperator(ctx, block, node->right.get(), binding));
    case PlanKind::kHashJoin: {
      // Parallel-fragment workers probe a shared pre-built table; they get
      // no build child at all (the exchange already drained the build side
      // serially, exactly once).
      std::unique_ptr<Operator> build =
          ctx->SharedBuildFor(node) != nullptr
              ? nullptr
              : BuildOperator(ctx, block, node->right.get(), binding);
      return std::make_unique<HashJoinOp>(
          ctx, block, node,
          BuildOperator(ctx, block, node->left.get(), binding),
          std::move(build));
    }
    case PlanKind::kFilter:
      return std::make_unique<FilterOp>(
          ctx, block, node,
          BuildOperator(ctx, block, node->left.get(), binding));
    case PlanKind::kProject:
      return std::make_unique<ProjectOp>(
          ctx, block, node,
          BuildOperator(ctx, block, node->left.get(), binding));
    case PlanKind::kAggregate:
      return std::make_unique<AggregateOp>(
          ctx, block, node,
          BuildOperator(ctx, block, node->left.get(), binding));
    case PlanKind::kHashAggregate:
      return std::make_unique<HashGroupByOp>(
          ctx, block, node,
          BuildOperator(ctx, block, node->left.get(), binding));
    case PlanKind::kExchange:
      // The exchange builds its fragment's operator trees itself, one per
      // worker context.
      return std::make_unique<ExchangeOp>(ctx, block, node);
  }
  return nullptr;
}

StatusOr<ExecResult> ExecutePlan(ExecContext* ctx,
                                 const BoundQueryBlock& block,
                                 const PlanRef& root) {
  // Divert this thread's storage-layer counts to the statement's block:
  // it measures exactly this statement's work even with other sessions
  // running against the same RSS.
  MeterScope scope(&ctx->stats());
  ExecResult result;
  std::unique_ptr<Operator> op =
      BuildOperator(ctx, &block, root.get(), nullptr);
  if (op == nullptr) return Status::Internal("unbuildable plan");
  RETURN_IF_ERROR(op->Open());
  // Drive the tree batch at a time: every operator amortizes virtual
  // dispatch, and every segment scan its page fetches, over up to kBatchRows
  // rows.
  RowBatch batch;
  while (true) {
    bool has;
    RETURN_IF_ERROR(op->NextBatch(&batch, &has));
    if (!has) break;
    for (uint32_t idx : batch.sel) {
      result.rows.push_back(std::move(batch.rows[idx]));
    }
    RETURN_IF_ERROR(ctx->CheckRowLimit(result.rows.size()));
  }
  op->Close();
  ctx->ReleaseTempPages();

  ExecStats& stats = ctx->stats();
  stats.buffer_hits = stats.buffer_gets - stats.page_fetches;
  result.stats = stats;
  return result;
}

}  // namespace systemr
