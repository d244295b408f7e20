#include "exec/subquery_eval.h"

#include <algorithm>

#include "exec/executor.h"
#include "exec/operators.h"

namespace systemr {

namespace {

// Gathers the outer values the block references, resolved against the
// current evaluation state — this is the re-evaluation cache key (§6).
std::vector<Value> CorrelationKey(ExecContext* ctx,
                                  const ExecContext::SubqueryState& state,
                                  const Row& outer_row) {
  std::vector<Value> key;
  for (const auto& [levels, offset] : state.outer_refs) {
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
// operator tree is built once per statement and kept in the block's state;
// re-evaluations only Rebind() it (reset scan positions, re-derive dynamic
// bounds) instead of rebuilding the whole tree per outer row.
Status RunSubquery(ExecContext* ctx, const BoundQueryBlock* block,
                   ExecContext::SubqueryState* state, const Row& outer_row,
                   std::vector<Row>* rows) {
  const PlanRef* plan = ctx->SubplanFor(block);
  if (plan == nullptr) {
    return Status::Internal("no plan recorded for nested query block");
  }
  ctx->ancestors().push_back(&outer_row);
  std::unique_ptr<Operator>& op = state->op;
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

// The §6 step both subquery kinds share: keys the block's state on the
// outer values it references now. A hit counts and returns true, leaving
// the previous result in the state. A miss runs the block into *rows,
// counts the evaluation and re-keys the state; the caller stores the
// result it derives from the rows.
StatusOr<bool> CachedOrRun(ExecContext* ctx, const BoundQueryBlock* block,
                           ExecContext::SubqueryState* state,
                           const Row& outer_row, std::vector<Row>* rows) {
  std::vector<Value> key = CorrelationKey(ctx, *state, outer_row);
  if (state->valid && KeysEqual(state->key, key)) {
    ++ctx->stats().subquery_cache_hits;
    return true;
  }
  RETURN_IF_ERROR(RunSubquery(ctx, block, state, outer_row, rows));
  ++ctx->stats().subquery_evals;
  state->valid = true;
  state->key = std::move(key);
  return false;
}

}  // namespace

StatusOr<Value> EvalScalarSubquery(ExecContext* ctx,
                                   const BoundQueryBlock* block,
                                   const Row& outer_row) {
  ExecContext::SubqueryState& state = ctx->SubqueryStateFor(block);
  std::vector<Row> rows;
  ASSIGN_OR_RETURN(bool hit, CachedOrRun(ctx, block, &state, outer_row, &rows));
  if (!hit) {
    if (rows.size() > 1) {
      // The statement fails; the state must not serve this key again.
      state.valid = false;
      return Status::InvalidArgument(
          "scalar subquery returned more than one row");
    }
    state.scalar = rows.empty() ? Value::Null() : std::move(rows[0][0]);
  }
  return state.scalar;
}

StatusOr<const std::vector<Value>*> EvalInSubqueryList(
    ExecContext* ctx, const BoundQueryBlock* block, const Row& outer_row) {
  ExecContext::SubqueryState& state = ctx->SubqueryStateFor(block);
  std::vector<Row> rows;
  ASSIGN_OR_RETURN(bool hit, CachedOrRun(ctx, block, &state, outer_row, &rows));
  if (!hit) {
    // Returned "in a temporary list, an internal form which is more
    // efficient than a relation" (§6) — kept sorted so membership tests are
    // cheap.
    state.list.clear();
    state.list.reserve(rows.size());
    for (Row& r : rows) state.list.push_back(std::move(r[0]));
    std::sort(state.list.begin(), state.list.end(),
              [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  }
  return &state.list;
}

}  // namespace systemr
