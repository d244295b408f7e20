// Join operators (§5): nested loops (inner scan re-opened per outer tuple
// with dynamically bound key values and SARGs) and merging scans (both
// inputs in join-column order; the current inner join group is buffered so
// the inner relation is never rescanned).
//
// Both walk their inputs a row at a time through RowCursor and build each
// output row from the outer row plus the inner table's column slice; the
// join residual then runs over the whole output batch. A merge join may stop
// before either input ends, so it pulls each input one row per batch: its
// scans then deliver, and meter, exactly the tuples the merge reads. A
// nested-loop join also pulls its outer one row per batch: each outer row
// costs an inner re-open and probe, far more than a pull, and a batch of
// outer rows would hold one more batch of block-width rows at every level of
// a join chain.
#ifndef SYSTEMR_EXEC_JOINS_H_
#define SYSTEMR_EXEC_JOINS_H_

#include <memory>

#include "exec/operators.h"

namespace systemr {

class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(ExecContext* ctx, const BoundQueryBlock* block,
                   const PlanNode* node, std::unique_ptr<Operator> outer)
      : ctx_(ctx), block_(block), node_(node), outer_(std::move(outer)) {
    residual_.CompilePreds(&node->residual);
    outer_rows_.set_capacity(1);
  }

  Status Open() override;
  Status Rebind(const Row* outer) override;
  Status NextBatch(RowBatch* out, bool* has_batch) override;
  void Close() override {
    outer_->Close();
    if (inner_ != nullptr) inner_->Close();
  }

 private:
  /// Moves to the next outer row and re-opens the inner bound to it.
  Status AdvanceOuter();

  ExecContext* ctx_;
  const BoundQueryBlock* block_;
  const PlanNode* node_;
  std::unique_ptr<Operator> outer_;
  /// Built once on the first outer tuple, then re-opened per outer tuple via
  /// Rebind (the binding row is only read while re-opening).
  std::unique_ptr<Operator> inner_;
  ExprProgram residual_;
  RowCursor outer_rows_;
  bool probing_ = false;    // The inner is bound to outer_rows_.row().
  RowBatch inner_batch_;    // The inner's current batch for that row.
  size_t inner_pos_ = 0;    // Next position in inner_batch_.sel.
};

class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(ExecContext* ctx, const BoundQueryBlock* block,
              const PlanNode* node, std::unique_ptr<Operator> outer,
              std::unique_ptr<Operator> inner)
      : ctx_(ctx),
        block_(block),
        node_(node),
        outer_(std::move(outer)),
        inner_(std::move(inner)) {
    residual_.CompilePreds(&node->residual);
    outer_rows_.set_capacity(1);
    inner_rows_.set_capacity(1);
  }

  Status Open() override;
  Status Rebind(const Row* outer) override;
  Status NextBatch(RowBatch* out, bool* has_batch) override;
  void Close() override {
    outer_->Close();
    inner_->Close();
  }

 private:
  /// Shared tail of Open/Rebind: resets merge state and primes both inputs.
  Status Prime();
  /// Loads the group of inner rows whose key equals the current inner row's.
  Status LoadGroup();

  ExecContext* ctx_;
  const BoundQueryBlock* block_;
  const PlanNode* node_;
  std::unique_ptr<Operator> outer_;
  std::unique_ptr<Operator> inner_;
  ExprProgram residual_;

  RowCursor outer_rows_;  // row() = the current outer row (null at end).
  RowCursor inner_rows_;  // row() = the first inner row past the group.
  std::vector<Row> group_;
  Value group_key_;
  bool group_valid_ = false;
  size_t group_pos_ = 0;
};

}  // namespace systemr

#endif  // SYSTEMR_EXEC_JOINS_H_
