#include "exec/aggregate.h"

namespace systemr {

bool AggregateOp::SameGroup(const Row& a, const Row& b) const {
  for (size_t off : node_->group_offsets) {
    if (a[off].Compare(b[off]) != 0) return false;
  }
  return true;
}

AggregateOp::AggregateOp(ExecContext* ctx, const BoundQueryBlock* block,
                         const PlanNode* node,
                         std::unique_ptr<Operator> child)
    : ctx_(ctx), block_(block), node_(node), child_(std::move(child)) {
  funcs_.Compile(node_);
  funcs_.ResetStates(&states_);
}

Status AggregateOp::Open() {
  Restart();
  return child_->Open();
}

Status AggregateOp::Rebind(const Row* outer) {
  Restart();
  return child_->Rebind(outer);
}

void AggregateOp::Restart() {
  funcs_.ResetStates(&states_);
  group_open_ = false;
  input_.Reset();
  done_ = false;
}

Status AggregateOp::EmitGroup(RowBatch* out) {
  group_open_ = false;
  ASSIGN_OR_RETURN(bool keep, funcs_.FinishGroup(ctx_, group_rep_, states_));
  if (!keep) return Status::OK();
  return funcs_.EmitSelect(ctx_, group_rep_, &out->Append());
}

Status AggregateOp::NextBatch(RowBatch* out, bool* has_batch) {
  out->Clear();
  while (!done_ && out->filled < out->capacity) {
    RETURN_IF_ERROR(input_.Advance(child_.get()));
    const Row* row = input_.row();
    if (row == nullptr) {
      done_ = true;
      if (group_open_) {
        RETURN_IF_ERROR(EmitGroup(out));
      } else if (node_->group_offsets.empty()) {
        // Scalar aggregate over an empty input still yields one row
        // (COUNT = 0, others NULL) — unless HAVING rejects it.
        group_rep_ = Row(block_->row_width);
        funcs_.ResetStates(&states_);
        RETURN_IF_ERROR(EmitGroup(out));
      }
      break;
    }
    if (group_open_ && !SameGroup(group_rep_, *row)) {
      RETURN_IF_ERROR(EmitGroup(out));  // Group boundary.
    }
    if (!group_open_) {
      group_rep_ = *row;
      funcs_.ResetStates(&states_);
      group_open_ = true;
    }
    RETURN_IF_ERROR(funcs_.Accept(ctx_, *row, &states_));
  }
  out->SelectAll();
  *has_batch = out->filled > 0;
  return Status::OK();
}

}  // namespace systemr
