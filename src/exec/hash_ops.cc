#include "exec/hash_ops.h"

#include <cstring>
#include <functional>

namespace systemr {

size_t HashValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      // NULL keys are skipped by both operators; the constant only matters
      // for multi-column group keys containing NULL.
      return 0x9e3779b97f4a7c15ull;
    case ValueType::kInt64:
    case ValueType::kDouble: {
      // Hash the numeric value so Int(1) and Real(1.0) — equal under
      // Value::Compare — land in the same bucket: an INT and a REAL that
      // compare equal are one number, so they round to one double. INTs
      // past 2^53 that round alike collide, and the Compare verification
      // tells them apart.
      double d = v.AsNumber();
      if (d == 0.0) d = 0.0;  // Normalize -0.0 to +0.0 (they compare equal).
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return std::hash<uint64_t>{}(bits);
    }
    case ValueType::kString:
      return std::hash<std::string>{}(v.AsStr());
  }
  return 0;
}

Status FillHashJoinTable(ExecContext* ctx, Operator* build,
                         size_t build_offset, size_t inner_offset,
                         size_t inner_width, HashJoinTable* table) {
  table->rows.clear();
  table->index.clear();
  RowBatch batch;
  bool has = true;
  while (true) {
    RETURN_IF_ERROR(ctx->CheckInterrupts());
    RETURN_IF_ERROR(build->NextBatch(&batch, &has));
    if (!has) break;
    for (uint32_t idx : batch.sel) {
      const Row& r = batch.rows[idx];
      const Value& key = r[build_offset];
      if (key.is_null()) continue;  // NULL keys never join.
      uint32_t slot = static_cast<uint32_t>(table->rows.size());
      table->rows.emplace_back(r.begin() + inner_offset,
                               r.begin() + inner_offset + inner_width);
      table->index[HashValue(key)].push_back(slot);
      ++ctx->stats().hash_build_rows;
    }
  }
  return Status::OK();
}

HashJoinOp::HashJoinOp(ExecContext* ctx, const BoundQueryBlock* block,
                       const PlanNode* node, std::unique_ptr<Operator> outer,
                       std::unique_ptr<Operator> build)
    : ctx_(ctx),
      block_(block),
      node_(node),
      outer_(std::move(outer)),
      build_(std::move(build)),
      probe_offset_(node->merge_outer_offset),
      build_offset_(node->merge_inner_offset),
      inner_offset_(node->inner_offset),
      inner_width_(node->inner_width) {
  residual_.CompilePreds(&node->residual);
}

Status HashJoinOp::BuildTable() {
  if (const HashJoinTable* shared = ctx_->SharedBuildFor(node_)) {
    table_ = shared;  // Pre-built serially by the exchange; read-only here.
    return Status::OK();
  }
  RETURN_IF_ERROR(FillHashJoinTable(ctx_, build_.get(), build_offset_,
                                    inner_offset_, inner_width_,
                                    &own_table_));
  table_ = &own_table_;
  return Status::OK();
}

void HashJoinOp::ResetProbeState() {
  outer_batch_.Clear();
  sel_pos_ = 0;
  matches_ = nullptr;
  match_pos_ = 0;
  outer_done_ = false;
}

Status HashJoinOp::Open() {
  RETURN_IF_ERROR(outer_->Open());
  if (build_ != nullptr) RETURN_IF_ERROR(build_->Open());
  RETURN_IF_ERROR(BuildTable());
  ResetProbeState();
  return Status::OK();
}

Status HashJoinOp::Rebind(const Row* outer) {
  RETURN_IF_ERROR(outer_->Rebind(outer));
  if (build_ != nullptr) RETURN_IF_ERROR(build_->Rebind(outer));
  RETURN_IF_ERROR(BuildTable());
  ResetProbeState();
  return Status::OK();
}

Status HashJoinOp::NextBatch(RowBatch* out, bool* has_batch) {
  out->Clear();
  outer_batch_.capacity = out->capacity;
  while (out->filled < out->capacity) {
    if (matches_ != nullptr) {
      if (match_pos_ >= matches_->size()) {
        matches_ = nullptr;
        ++sel_pos_;
        continue;
      }
      RETURN_IF_ERROR(ctx_->CheckInterrupts());
      const Row& orow = outer_batch_.rows[outer_batch_.sel[sel_pos_]];
      const std::vector<Value>& slice =
          table_->rows[(*matches_)[match_pos_++]];
      // Bucket verification: hash collisions resolve here.
      if (orow[probe_offset_].Compare(slice[build_offset_ - inner_offset_]) !=
          0) {
        continue;
      }
      Row& dst = out->Append();
      dst = orow;  // Composite: outer columns, then overwrite inner slice.
      for (size_t j = 0; j < inner_width_; ++j) {
        dst[inner_offset_ + j] = slice[j];
      }
      continue;
    }
    if (sel_pos_ >= outer_batch_.sel.size()) {
      if (outer_done_) break;
      bool has = false;
      RETURN_IF_ERROR(outer_->NextBatch(&outer_batch_, &has));
      if (!has) {
        outer_done_ = true;
        break;
      }
      sel_pos_ = 0;
      ctx_->stats().hash_probe_rows += outer_batch_.sel.size();
      continue;
    }
    const Value& key = outer_batch_.rows[outer_batch_.sel[sel_pos_]]
                                        [probe_offset_];
    if (!key.is_null()) {
      auto it = table_->index.find(HashValue(key));
      if (it != table_->index.end()) {
        matches_ = &it->second;
        match_pos_ = 0;
        continue;
      }
    }
    ++sel_pos_;
  }
  out->SelectAll();
  RETURN_IF_ERROR(residual_.EvalBoolBatch(ctx_, out->rows, &out->sel));
  ExecStats& stats = ctx_->stats();
  ++stats.batches;
  stats.batch_rows_in += out->filled;
  stats.batch_rows_out += out->sel.size();
  *has_batch = out->filled > 0;
  return Status::OK();
}

void GroupTable::Reset(const PlanNode* node) {
  if (node != node_) {
    node_ = node;
    funcs_.Compile(node);
  }
  groups_.clear();
  index_.clear();
}

size_t GroupTable::HashGroupKey(const Row& row) const {
  size_t h = 14695981039346656037ull;
  for (size_t off : node_->group_offsets) {
    h = (h ^ HashValue(row[off])) * 1099511628211ull;
  }
  return h;
}

bool GroupTable::SameGroup(const Row& a, const Row& b) const {
  for (size_t off : node_->group_offsets) {
    if (a[off].Compare(b[off]) != 0) return false;
  }
  return true;
}

Status GroupTable::Accept(ExecContext* ctx, const Row& row) {
  std::vector<uint32_t>& bucket = index_[HashGroupKey(row)];
  Group* g = nullptr;
  for (uint32_t gi : bucket) {
    if (SameGroup(groups_[gi].rep, row)) {
      g = &groups_[gi];
      break;
    }
  }
  if (g == nullptr) {
    bucket.push_back(static_cast<uint32_t>(groups_.size()));
    groups_.emplace_back();
    g = &groups_.back();
    g->rep = row;
    funcs_.ResetStates(&g->states);
  }
  return funcs_.Accept(ctx, row, &g->states);
}

void GroupTable::MergeFrom(GroupTable* other) {
  for (Group& og : other->groups_) {
    std::vector<uint32_t>& bucket = index_[HashGroupKey(og.rep)];
    Group* g = nullptr;
    for (uint32_t gi : bucket) {
      if (SameGroup(groups_[gi].rep, og.rep)) {
        g = &groups_[gi];
        break;
      }
    }
    if (g == nullptr) {
      bucket.push_back(static_cast<uint32_t>(groups_.size()));
      groups_.push_back(std::move(og));
    } else {
      MergeAggStates(&g->states, og.states);
    }
  }
  other->groups_.clear();
  other->index_.clear();
}

void GroupTable::EnsureScalarGroup(size_t row_width) {
  if (!groups_.empty() || !node_->group_offsets.empty()) return;
  groups_.emplace_back();
  groups_.back().rep = Row(row_width);
  funcs_.ResetStates(&groups_.back().states);
}

HashGroupByOp::HashGroupByOp(ExecContext* ctx, const BoundQueryBlock* block,
                             const PlanNode* node,
                             std::unique_ptr<Operator> child)
    : ctx_(ctx), block_(block), node_(node), child_(std::move(child)) {}

Status HashGroupByOp::BuildGroups() {
  table_.Reset(node_);
  bool has = true;
  while (true) {
    RETURN_IF_ERROR(ctx_->CheckInterrupts());
    RETURN_IF_ERROR(child_->NextBatch(&in_batch_, &has));
    if (!has) break;
    for (uint32_t idx : in_batch_.sel) {
      RETURN_IF_ERROR(table_.Accept(ctx_, in_batch_.rows[idx]));
    }
  }
  // Scalar aggregate over an empty input still yields one row (COUNT = 0,
  // others NULL) — unless HAVING rejects it. Never planned today (the
  // optimizer only prices hash aggregation for GROUP BY blocks), but the
  // operator honors the SQL contract regardless.
  table_.EnsureScalarGroup(block_->row_width);
  return Status::OK();
}

Status HashGroupByOp::Open() {
  RETURN_IF_ERROR(child_->Open());
  RETURN_IF_ERROR(BuildGroups());
  emit_idx_ = 0;
  return Status::OK();
}

Status HashGroupByOp::Rebind(const Row* outer) {
  RETURN_IF_ERROR(child_->Rebind(outer));
  RETURN_IF_ERROR(BuildGroups());
  emit_idx_ = 0;
  return Status::OK();
}

Status HashGroupByOp::NextBatch(RowBatch* out, bool* has_batch) {
  out->Clear();
  const std::vector<GroupTable::Group>& groups = table_.groups();
  while (out->filled < out->capacity && emit_idx_ < groups.size()) {
    const GroupTable::Group& g = groups[emit_idx_++];
    ASSIGN_OR_RETURN(bool keep,
                     table_.funcs().FinishGroup(ctx_, g.rep, g.states));
    if (!keep) continue;
    RETURN_IF_ERROR(table_.funcs().EmitSelect(ctx_, g.rep, &out->Append()));
  }
  out->SelectAll();
  *has_batch = out->filled > 0;
  return Status::OK();
}

}  // namespace systemr
