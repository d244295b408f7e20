#include "exec/subquery_eval.h"

#include <algorithm>

#include "exec/executor.h"
#include "exec/operators.h"

namespace systemr {

namespace {

// Gathers the outer values the block references, resolved against the
// current evaluation state — this is the re-evaluation cache key (§6).
std::vector<Value> CorrelationKey(ExecContext* ctx,
                                  const BoundQueryBlock* block,
                                  const Row& outer_row) {
  std::vector<Value> key;
  for (const auto& [levels, offset] : ctx->OuterRefsFor(block)) {
    // Level 1 = the row being evaluated right now; deeper levels come from
    // the ancestor stack.
    if (levels == 1) {
      key.push_back(outer_row[offset]);
    } else {
      key.push_back(ctx->OuterValue(levels - 1, offset));
    }
  }
  return key;
}

bool KeysEqual(const std::vector<Value>& a, const std::vector<Value>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

// Runs the subquery plan, returning its projected rows. The current outer
// row is pushed onto the ancestor stack for correlated references. The
// operator tree is built once per statement and cached in the ExecContext;
// re-evaluations only Rebind() it (reset scan positions, re-derive dynamic
// bounds) instead of rebuilding the whole tree per outer row.
Status RunSubquery(ExecContext* ctx, const BoundQueryBlock* block,
                   const Row& outer_row, std::vector<Row>* rows) {
  const PlanRef* plan = ctx->SubplanFor(block);
  if (plan == nullptr) {
    return Status::Internal("no plan recorded for nested query block");
  }
  ctx->ancestors().push_back(&outer_row);
  std::unique_ptr<Operator>& op = ctx->SubqueryOpFor(block);
  Status st;
  if (op == nullptr) {
    op = BuildOperator(ctx, block, plan->get(), nullptr);
    st = op->Open();
  } else {
    st = op->Rebind(nullptr);
  }
  RowBatch batch;
  while (st.ok()) {
    bool has = false;
    st = op->NextBatch(&batch, &has);
    if (!st.ok() || !has) break;
    for (uint32_t idx : batch.sel) rows->push_back(std::move(batch.rows[idx]));
  }
  op->Close();
  ctx->ancestors().pop_back();
  return st;
}

}  // namespace

StatusOr<Value> EvalScalarSubquery(ExecContext* ctx,
                                   const BoundQueryBlock* block,
                                   const Row& outer_row) {
  ExecContext::SubqueryCache& cache = ctx->CacheFor(block);
  std::vector<Value> key = CorrelationKey(ctx, block, outer_row);
  if (cache.valid && KeysEqual(cache.key, key)) {
    ++ctx->stats().subquery_cache_hits;
    return cache.scalar;
  }
  std::vector<Row> rows;
  RETURN_IF_ERROR(RunSubquery(ctx, block, outer_row, &rows));
  ++ctx->stats().subquery_evals;
  if (rows.size() > 1) {
    return Status::InvalidArgument(
        "scalar subquery returned more than one row");
  }
  Value result = rows.empty() ? Value::Null() : rows[0][0];
  cache.valid = true;
  cache.key = std::move(key);
  cache.scalar = result;
  return result;
}

StatusOr<const std::vector<Value>*> EvalInSubqueryList(
    ExecContext* ctx, const BoundQueryBlock* block, const Row& outer_row) {
  ExecContext::SubqueryCache& cache = ctx->CacheFor(block);
  std::vector<Value> key = CorrelationKey(ctx, block, outer_row);
  if (cache.valid && KeysEqual(cache.key, key)) {
    ++ctx->stats().subquery_cache_hits;
    return &cache.list;
  }
  std::vector<Row> rows;
  RETURN_IF_ERROR(RunSubquery(ctx, block, outer_row, &rows));
  ++ctx->stats().subquery_evals;
  // Returned "in a temporary list, an internal form which is more efficient
  // than a relation" (§6) — kept sorted so membership tests are cheap.
  cache.list.clear();
  cache.list.reserve(rows.size());
  for (Row& r : rows) cache.list.push_back(std::move(r[0]));
  std::sort(cache.list.begin(), cache.list.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  cache.valid = true;
  cache.key = std::move(key);
  return &cache.list;
}

}  // namespace systemr
