#include "exec/joins.h"

namespace systemr {

namespace {

// Appends the output row for one (outer, inner) pair: the outer row with the
// inner table's column slice copied in from `inner`.
void AppendPair(const PlanNode* node, const Row& outer, const Row& inner,
                RowBatch* out) {
  Row& dst = out->Append();
  dst = outer;
  for (size_t i = 0; i < node->inner_width; ++i) {
    dst[node->inner_offset + i] = inner[node->inner_offset + i];
  }
}

}  // namespace

// --- Nested loops ---

Status NestedLoopJoinOp::Open() {
  outer_rows_.Reset();
  probing_ = false;
  return outer_->Open();
}

Status NestedLoopJoinOp::Rebind(const Row* outer) {
  outer_rows_.Reset();
  probing_ = false;
  return outer_->Rebind(outer);
}

Status NestedLoopJoinOp::AdvanceOuter() {
  RETURN_IF_ERROR(outer_rows_.Advance(outer_.get()));
  const Row* row = outer_rows_.row();
  if (row == nullptr) return Status::OK();
  probing_ = true;
  inner_batch_.Clear();
  inner_pos_ = 0;
  if (inner_ == nullptr) {
    // First outer tuple: build the inner subtree once, bound to it.
    inner_ = BuildOperator(ctx_, block_, node_->right.get(), row);
    return inner_->Open();
  }
  return inner_->Rebind(row);
}

Status NestedLoopJoinOp::NextBatch(RowBatch* out, bool* has_batch) {
  out->Clear();
  inner_batch_.capacity = out->capacity;
  while (out->filled < out->capacity) {
    if (!probing_) {
      RETURN_IF_ERROR(AdvanceOuter());
      if (!probing_) break;  // Outer exhausted.
    }
    if (inner_pos_ >= inner_batch_.sel.size()) {
      bool has = false;
      RETURN_IF_ERROR(inner_->NextBatch(&inner_batch_, &has));
      inner_pos_ = 0;
      if (!has) probing_ = false;  // Move to the next outer tuple.
      continue;
    }
    AppendPair(node_, *outer_rows_.row(),
               inner_batch_.rows[inner_batch_.sel[inner_pos_++]], out);
  }
  out->SelectAll();
  RETURN_IF_ERROR(residual_.EvalBoolBatch(ctx_, out->rows, &out->sel));
  *has_batch = out->filled > 0;
  return Status::OK();
}

// --- Merging scans ---

Status MergeJoinOp::Open() {
  RETURN_IF_ERROR(outer_->Open());
  RETURN_IF_ERROR(inner_->Open());
  return Prime();
}

Status MergeJoinOp::Rebind(const Row* outer) {
  RETURN_IF_ERROR(outer_->Rebind(outer));
  RETURN_IF_ERROR(inner_->Rebind(outer));
  return Prime();
}

Status MergeJoinOp::Prime() {
  outer_rows_.Reset();
  inner_rows_.Reset();
  group_.clear();
  group_pos_ = 0;
  group_valid_ = false;
  RETURN_IF_ERROR(outer_rows_.Advance(outer_.get()));
  return inner_rows_.Advance(inner_.get());
}

Status MergeJoinOp::LoadGroup() {
  group_.clear();
  group_pos_ = 0;
  group_valid_ = inner_rows_.row() != nullptr;
  if (!group_valid_) return Status::OK();
  const size_t key = node_->merge_inner_offset;
  group_key_ = (*inner_rows_.row())[key];
  while (inner_rows_.row() != nullptr &&
         (*inner_rows_.row())[key].Compare(group_key_) == 0) {
    group_.push_back(std::move(*inner_rows_.row()));
    RETURN_IF_ERROR(inner_rows_.Advance(inner_.get()));
  }
  return Status::OK();
}

Status MergeJoinOp::NextBatch(RowBatch* out, bool* has_batch) {
  out->Clear();
  const size_t inner_key = node_->merge_inner_offset;
  while (out->filled < out->capacity && outer_rows_.row() != nullptr) {
    const Row& outer = *outer_rows_.row();
    const Value& outer_key = outer[node_->merge_outer_offset];
    // NULL keys never join.
    if (outer_key.is_null()) {
      RETURN_IF_ERROR(outer_rows_.Advance(outer_.get()));
      continue;
    }
    if (!group_valid_ || group_key_.Compare(outer_key) < 0) {
      // Advance the inner past smaller keys and load the next group.
      const Row* inner;
      while ((inner = inner_rows_.row()) != nullptr &&
             ((*inner)[inner_key].is_null() ||
              (*inner)[inner_key].Compare(outer_key) < 0)) {
        RETURN_IF_ERROR(inner_rows_.Advance(inner_.get()));
      }
      if (inner == nullptr) break;  // No more inner groups: no more matches.
      RETURN_IF_ERROR(LoadGroup());
      continue;
    }
    if (group_key_.Compare(outer_key) > 0 || group_pos_ >= group_.size()) {
      RETURN_IF_ERROR(outer_rows_.Advance(outer_.get()));
      group_pos_ = 0;
      continue;
    }
    // Keys equal: pair the outer row with the next buffered group row.
    AppendPair(node_, outer, group_[group_pos_++], out);
  }
  out->SelectAll();
  RETURN_IF_ERROR(residual_.EvalBoolBatch(ctx_, out->rows, &out->sel));
  *has_batch = out->filled > 0;
  return Status::OK();
}

}  // namespace systemr
