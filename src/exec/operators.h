// Pull-based physical operators (OPEN / NEXT / CLOSE, with NEXT delivering a
// RowBatch at a time), interpreting the plan trees produced by the
// optimizer — our stand-in for System R's generated machine code (§2).
//
// Hot-path contract: an operator tree is built ONCE per statement (or per
// nested block) and re-opened with new outer bindings via Rebind(), so the
// per-outer-row cost of a nested-loop inner or a correlated subquery is a
// scan reset, not a tree rebuild. Rows are block-width: every table of the
// query block owns a column slice, and a scan decodes its tuples straight
// into its table's slice of its output batch's rows.
#ifndef SYSTEMR_EXEC_OPERATORS_H_
#define SYSTEMR_EXEC_OPERATORS_H_

#include <memory>

#include "exec/batch.h"
#include "exec/exec_context.h"
#include "exec/expr_program.h"
#include "optimizer/plan.h"

namespace systemr {

class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;
  /// Re-opens the operator for a new outer binding without rebuilding the
  /// tree. `outer` replaces the binding row captured at construction when
  /// non-null (its address must stay stable across calls); null keeps the
  /// current binding (correlated subqueries resolve outer references through
  /// the ExecContext ancestor stack instead).
  virtual Status Rebind(const Row* outer) = 0;
  /// Produces the next batch of rows. Sets *has_batch=false, with `out`
  /// empty, at end of stream; a true *has_batch with an empty selection
  /// vector is legal (all rows of the block were filtered out) — callers
  /// must keep pulling until *has_batch is false.
  virtual Status NextBatch(RowBatch* out, bool* has_batch) = 0;
  virtual void Close() {}
};

/// Row-at-a-time view of a child's batch stream, for operators whose
/// algorithm walks their input one row at a time (nested-loop outer, merge
/// join inputs, sorted-group aggregation). row() stays valid until the
/// Advance that pulls the child's next batch; the row may be moved out.
class RowCursor {
 public:
  /// Caps each later pull from the child (RowBatch::capacity).
  void set_capacity(size_t rows) { batch_.capacity = rows; }
  void Reset() {
    batch_.Clear();
    pos_ = 0;
    row_ = nullptr;
    done_ = false;
  }
  /// Moves to the next row; row() is null once the child is exhausted (the
  /// child is not pulled again until Reset).
  Status Advance(Operator* child) {
    if (pos_ < batch_.sel.size()) {
      row_ = &batch_.rows[batch_.sel[pos_++]];
      return Status::OK();
    }
    return Pull(child);
  }
  Row* row() const { return row_; }

 private:
  Status Pull(Operator* child);

  RowBatch batch_;
  size_t pos_ = 0;
  Row* row_ = nullptr;
  bool done_ = false;
};

/// Builds the operator tree for `node`. `binding` is the current outer row
/// for dynamically-bound inner scans of a nested-loop join (else null).
std::unique_ptr<Operator> BuildOperator(ExecContext* ctx,
                                        const BoundQueryBlock* block,
                                        const PlanNode* node,
                                        const Row* binding);

/// RSS scan bridging the RSI into block-width rows; applies dynamic bounds
/// and dynamic SARGs from `binding`, then residual single-table predicates.
/// The underlying RSI scan object is created once; Open()/Rebind() re-derive
/// the dynamic SARG values and index bounds in place and reset its position.
/// The RSI decodes each tuple straight into this table's slice of the output
/// batch's rows.
class ScanOp : public Operator {
 public:
  ScanOp(ExecContext* ctx, const BoundQueryBlock* block, const PlanNode* node,
         const Row* binding);

  Status Open() override;
  Status Rebind(const Row* outer) override;
  /// Pulls up to out->capacity tuples through RsiScan::NextBatch, then
  /// evaluates the residual over the whole block with one selection-vector
  /// pass. Checks cancellation, deadline and budget once per batch.
  Status NextBatch(RowBatch* out, bool* has_batch) override;
  /// Flushes this scan's produced-row count into the context's per-node
  /// observations (the selectivity-feedback input).
  void Close() override;

  /// TIDs of the last batch's rows: tids()[i] is out->rows[i]'s (for DML).
  const std::vector<Tid>& tids() const { return tids_; }

 private:
  /// The value of `operand` for this open: the literal, the bound ? value
  /// or the current outer row's column. It stays valid until the next open.
  Status Resolve(const ScanOperand& operand, const Value** value) const;
  /// Writes the resolved operands into the scan's dynamic SARG slots and
  /// (for index scans) recomputes the key range.
  Status BindDynamic();
  /// Positions the scan (morsel mode claims the first page range; a drained
  /// dispenser leaves the scan empty).
  Status OpenScan();
  /// Claims the next morsel and re-opens the scan on its page range. *got
  /// is false (and the scan is permanently drained) once the dispenser is
  /// empty.
  Status AdvanceMorsel(bool* got);

  ExecContext* ctx_;
  const BoundQueryBlock* block_;
  const PlanNode* node_;
  const Row* binding_;
  std::unique_ptr<RsiScan> scan_;
  ExprProgram residual_;
  size_t offset_ = 0;        // Block-row offset of this table's slice.
  size_t static_sargs_ = 0;  // Dynamic SARGs start at this index.
  std::vector<Tid> tids_;    // TIDs of the last batch, reused across calls.
  uint64_t rows_out_ = 0;    // Rows produced since the last Close() flush.
  bool exhausted_ = false;   // Reached end of stream at least once.

  // Morsel-driven mode: this is the driving segment scan of a parallel
  // fragment worker — instead of the whole segment, it scans page ranges
  // claimed from the context's shared dispenser until that is drained.
  bool morsel_mode_ = false;
  bool morsel_drained_ = false;
};

class FilterOp : public Operator {
 public:
  FilterOp(ExecContext* ctx, const BoundQueryBlock* block,
           const PlanNode* node, std::unique_ptr<Operator> child)
      : ctx_(ctx), block_(block), node_(node), child_(std::move(child)) {
    residual_.CompilePreds(&node->residual);
  }

  Status Open() override { return child_->Open(); }
  Status Rebind(const Row* outer) override { return child_->Rebind(outer); }
  /// Refines the child batch's selection vector in place — no row copies.
  Status NextBatch(RowBatch* out, bool* has_batch) override;
  void Close() override { child_->Close(); }

 private:
  ExecContext* ctx_;
  const BoundQueryBlock* block_;
  const PlanNode* node_;
  std::unique_ptr<Operator> child_;
  ExprProgram residual_;
};

class ProjectOp : public Operator {
 public:
  ProjectOp(ExecContext* ctx, const BoundQueryBlock* block,
            const PlanNode* node, std::unique_ptr<Operator> child);

  Status Open() override { return child_->Open(); }
  Status Rebind(const Row* outer) override { return child_->Rebind(outer); }
  /// Evaluates the select items only over the child's surviving rows.
  Status NextBatch(RowBatch* out, bool* has_batch) override;
  void Close() override { child_->Close(); }

 private:
  ExecContext* ctx_;
  const BoundQueryBlock* block_;
  const PlanNode* node_;
  std::unique_ptr<Operator> child_;
  std::vector<ExprProgram> items_;
  RowBatch in_batch_;  // Reusable batch input buffer.
};

}  // namespace systemr

#endif  // SYSTEMR_EXEC_OPERATORS_H_
