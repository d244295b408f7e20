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
  // Divert this thread's storage-layer counts to the context's private
  // meter: the delta below measures exactly this statement's work even with
  // other sessions running against the same RSS.
  MeterCounters before = ctx->meter();
  ExecContext::BatchCounters bc_before = ctx->batch_counters();
  MeterScope scope(&ctx->meter());
  ExecResult result;
  std::unique_ptr<Operator> op =
      BuildOperator(ctx, &block, root.get(), nullptr);
  if (op == nullptr) return Status::Internal("unbuildable plan");
  ctx->ArmLimits();
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

  const MeterCounters& after = ctx->meter();
  result.stats.page_fetches = after.page_fetches - before.page_fetches;
  result.stats.page_writes = after.page_writes - before.page_writes;
  result.stats.rsi_calls = after.rsi_calls - before.rsi_calls;
  result.stats.buffer_gets = after.logical_gets - before.logical_gets;
  result.stats.buffer_hits = result.stats.buffer_gets -
                             result.stats.page_fetches;
  for (const auto& [sub_block, cache] : ctx->subquery_caches()) {
    result.stats.subquery_evals += cache.evaluations;
    result.stats.subquery_cache_hits += cache.hits;
  }
  const ExecContext::BatchCounters& bc = ctx->batch_counters();
  result.stats.batches = bc.batches - bc_before.batches;
  result.stats.batch_rows_in = bc.batch_rows_in - bc_before.batch_rows_in;
  result.stats.batch_rows_out = bc.batch_rows_out - bc_before.batch_rows_out;
  result.stats.hash_build_rows =
      bc.hash_build_rows - bc_before.hash_build_rows;
  result.stats.hash_probe_rows =
      bc.hash_probe_rows - bc_before.hash_probe_rows;
  result.stats.parallel_workers =
      bc.parallel_workers - bc_before.parallel_workers;
  result.stats.parallel_morsels =
      bc.parallel_morsels - bc_before.parallel_morsels;
  result.actual_cost = result.stats.ActualCost(ctx->w());
  return result;
}

}  // namespace systemr
