// Sorted-group aggregation: the input arrives ordered by the GROUP BY
// columns (the optimizer either reuses an interesting order or inserts a
// sort), so groups are contiguous. Evaluates the block's entire SELECT list
// per group, substituting accumulated values for aggregate expressions.
// The aggregate-function machinery lives in agg_common.h, shared with the
// hash-grouping operator.
#ifndef SYSTEMR_EXEC_AGGREGATE_H_
#define SYSTEMR_EXEC_AGGREGATE_H_

#include <memory>

#include "exec/agg_common.h"
#include "exec/operators.h"

namespace systemr {

class AggregateOp : public Operator {
 public:
  AggregateOp(ExecContext* ctx, const BoundQueryBlock* block,
              const PlanNode* node, std::unique_ptr<Operator> child);

  Status Open() override;
  Status Rebind(const Row* outer) override;
  Status NextBatch(RowBatch* out, bool* has_batch) override;
  void Close() override { child_->Close(); }

 private:
  /// Shared tail of Open/Rebind: resets group state.
  void Restart();
  /// Closes the open group, appending its SELECT row if HAVING accepts it.
  Status EmitGroup(RowBatch* out);

  bool SameGroup(const Row& a, const Row& b) const;

  ExecContext* ctx_;
  const BoundQueryBlock* block_;
  const PlanNode* node_;
  std::unique_ptr<Operator> child_;

  AggFunctionSet funcs_;
  std::vector<AggState> states_;  // One per function; the current group's.
  Row group_rep_;                 // First row of the current group.
  bool group_open_ = false;
  RowCursor input_;
  bool done_ = false;
};

}  // namespace systemr

#endif  // SYSTEMR_EXEC_AGGREGATE_H_
