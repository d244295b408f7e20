#include "exec/operators.h"

#include <cmath>
#include <cstdint>

#include "exec/parallel/morsel.h"

namespace systemr {

namespace {

// Appends `v` as the key of a `key_type` column. INT and REAL compare by
// exact value but encode under different tags, so a numeric of the other
// type is converted first, rounding down to a key value at or below `v`
// (up, at or above, when `round_up`): a REAL to an INT by floor or ceil,
// saturating at the int64 limits, and an INT to the nearest double on that
// side. Returns false when the encoded value differs from `v`: the caller
// then makes its range end inclusive, so rounding only widens the range,
// and the scan's SARGs, which hold the same comparison, reject the extra
// keys.
bool EncodeBound(const Value& v, ValueType key_type, bool round_up,
                 std::string* out) {
  Value key;
  if (v.type() == ValueType::kInt64 && key_type == ValueType::kDouble) {
    double d = static_cast<double>(v.AsInt());
    int int_vs_real = v.Compare(Value::Real(d));
    if (int_vs_real < 0 && !round_up) d = std::nextafter(d, -HUGE_VAL);
    if (int_vs_real > 0 && round_up) d = std::nextafter(d, HUGE_VAL);
    key = Value::Real(d);
  } else if (v.type() == ValueType::kDouble &&
             key_type == ValueType::kInt64) {
    double d = round_up ? std::ceil(v.AsReal()) : std::floor(v.AsReal());
    key = Value::Int(!(d >= -0x1p63) ? INT64_MIN  // Also NaN.
                     : d >= 0x1p63   ? INT64_MAX
                                     : static_cast<int64_t>(d));
  } else {
    v.EncodeKey(out);
    return true;
  }
  key.EncodeKey(out);
  return key.Compare(v) == 0;
}

}  // namespace

Status RowCursor::Pull(Operator* child) {
  row_ = nullptr;
  while (!done_) {
    bool has = false;
    RETURN_IF_ERROR(child->NextBatch(&batch_, &has));
    pos_ = 0;
    if (!has) {
      done_ = true;
    } else if (!batch_.sel.empty()) {
      row_ = &batch_.rows[batch_.sel[pos_++]];
      break;
    }
  }
  return Status::OK();
}

ScanOp::ScanOp(ExecContext* ctx, const BoundQueryBlock* block,
               const PlanNode* node, const Row* binding)
    : ctx_(ctx), block_(block), node_(node), binding_(binding) {
  const ScanSpec& spec = node_->scan;
  offset_ = block_->tables[spec.table_idx].offset;
  static_sargs_ = spec.sargs.size();
  residual_.CompilePreds(&spec.residual);

  // Build the scan once, with placeholder values in the dynamic SARG slots;
  // Open()/Rebind() fill them in before the scan position is reset.
  SargList sargs = spec.sargs;
  for (const ScanTerm& d : spec.dyn_sargs) {
    Sarg s;
    s.AddConjunct({SargTerm{d.column, d.op, Value::Null()}});
    sargs.push_back(std::move(s));
  }
  const RowSlice slice{offset_, block_->row_width};
  if (spec.index == nullptr) {
    scan_ = ctx_->rss()->OpenSegmentScan(spec.table->id, std::move(sargs),
                                         slice);
  } else {
    scan_ = ctx_->rss()->OpenIndexScan(spec.table->id, spec.index->id,
                                       KeyRange{}, std::move(sargs), slice);
  }
  morsel_mode_ = spec.index == nullptr &&
                 ctx_->morsel_source() != nullptr &&
                 ctx_->morsel_node() == node_;
}

Status ScanOp::AdvanceMorsel(bool* got) {
  MorselDispenser::Morsel m;
  if (!ctx_->morsel_source()->Next(&m)) {
    morsel_drained_ = true;
    *got = false;
    return Status::OK();
  }
  ++ctx_->stats().parallel_morsels;
  static_cast<SegmentScan*>(scan_.get())->SetPageRange(m.begin, m.end);
  *got = true;
  return scan_->Open();
}

Status ScanOp::OpenScan() {
  if (!morsel_mode_) return scan_->Open();
  morsel_drained_ = false;
  bool got = false;
  // A drained dispenser (empty segment, or more workers than morsels) leaves
  // the scan empty; NextBatch observes morsel_drained_ before touching the
  // unopened scan.
  return AdvanceMorsel(&got);
}

Status ScanOp::Resolve(const ScanOperand& operand, const Value** value) const {
  switch (operand.source) {
    case ScanOperand::Source::kLiteral:
      *value = &operand.literal;
      return Status::OK();
    case ScanOperand::Source::kParam:
      return ctx_->ParamValue(operand.index, value);
    case ScanOperand::Source::kOuter:
      if (binding_ == nullptr) {
        return Status::Internal("dynamic scan opened without an outer row");
      }
      *value = &(*binding_)[operand.index];
      return Status::OK();
  }
  return Status::Internal("unknown scan operand source");
}

Status ScanOp::BindDynamic() {
  const ScanSpec& spec = node_->scan;
  const Value* v = nullptr;
  if (!spec.dyn_sargs.empty()) {
    SargList* sargs = scan_->mutable_sargs();
    for (size_t i = 0; i < spec.dyn_sargs.size(); ++i) {
      RETURN_IF_ERROR(Resolve(spec.dyn_sargs[i].value, &v));
      (*sargs)[static_sargs_ + i].disjuncts[0][0].value = *v;
    }
  }
  if (spec.index == nullptr) return Status::OK();

  // Index bounds, each encoded as its key column's type: the equality
  // prefix (in key-column order), then an optional range on the next key
  // column.
  auto key_type = [&spec](size_t k) {
    return spec.table->schema.column(spec.index->key_columns[k]).type;
  };
  std::string prefix;
  for (size_t k = 0; k < spec.eq_bounds.size(); ++k) {
    RETURN_IF_ERROR(Resolve(spec.eq_bounds[k], &v));
    EncodeBound(*v, key_type(k), /*round_up=*/false, &prefix);
  }
  KeyRange range;
  if (spec.lo.has_value()) {
    RETURN_IF_ERROR(Resolve(spec.lo->value, &v));
    std::string k = prefix;
    bool exact = EncodeBound(*v, key_type(spec.eq_bounds.size()),
                             /*round_up=*/false, &k);
    range.start = std::move(k);
    range.start_inclusive = spec.lo->inclusive || !exact;
  } else if (!prefix.empty()) {
    range.start = prefix;
    range.start_inclusive = true;
  }
  if (spec.hi.has_value()) {
    RETURN_IF_ERROR(Resolve(spec.hi->value, &v));
    std::string k = prefix;
    bool exact = EncodeBound(*v, key_type(spec.eq_bounds.size()),
                             /*round_up=*/true, &k);
    range.stop = std::move(k);
    range.stop_inclusive = spec.hi->inclusive || !exact;
  } else if (!prefix.empty()) {
    // Prefix match: the stop bound is the prefix itself (inclusive covers
    // every key extending it).
    range.stop = prefix;
    range.stop_inclusive = true;
  }
  static_cast<IndexScan*>(scan_.get())->set_range(std::move(range));
  return Status::OK();
}

Status ScanOp::Open() {
  RETURN_IF_ERROR(BindDynamic());
  return OpenScan();
}

Status ScanOp::Rebind(const Row* outer) {
  if (outer != nullptr) binding_ = outer;
  RETURN_IF_ERROR(BindDynamic());
  return OpenScan();
}

Status ScanOp::NextBatch(RowBatch* out, bool* has_batch) {
  out->Clear();
  // One cancellation/budget point per batch: a runaway scan aborts within
  // one batch of the limit being hit.
  RETURN_IF_ERROR(ctx_->CheckInterrupts());
  size_t n = 0;
  while (!(morsel_mode_ && morsel_drained_)) {
    RETURN_IF_ERROR(scan_->NextBatch(&out->rows, &tids_, out->capacity, &n));
    if (n > 0 || !morsel_mode_) break;
    bool got = false;
    RETURN_IF_ERROR(AdvanceMorsel(&got));
  }
  if (n == 0) {
    exhausted_ = true;
    *has_batch = false;
    return Status::OK();
  }
  out->filled = n;
  out->SelectAll();
  RETURN_IF_ERROR(residual_.EvalBoolBatch(ctx_, out->rows, &out->sel));
  ExecStats& stats = ctx_->stats();
  ++stats.batches;
  stats.batch_rows_in += out->filled;
  stats.batch_rows_out += out->sel.size();
  rows_out_ += out->sel.size();
  *has_batch = true;
  return Status::OK();
}

void ScanOp::Close() {
  ExecContext::ScanObservation& obs = ctx_->scan_observations()[node_];
  obs.rows += rows_out_;
  obs.exhausted = exhausted_;
  rows_out_ = 0;
}

Status FilterOp::NextBatch(RowBatch* out, bool* has_batch) {
  RETURN_IF_ERROR(child_->NextBatch(out, has_batch));
  if (!*has_batch) return Status::OK();
  size_t before = out->sel.size();
  RETURN_IF_ERROR(residual_.EvalBoolBatch(ctx_, out->rows, &out->sel));
  // The producer already counted these rows as surviving; retract the ones
  // this filter killed so AvgSelectionDensity reflects final survivors.
  ctx_->stats().batch_rows_out -= before - out->sel.size();
  return Status::OK();
}

ProjectOp::ProjectOp(ExecContext* ctx, const BoundQueryBlock* block,
                     const PlanNode* node, std::unique_ptr<Operator> child)
    : ctx_(ctx), block_(block), node_(node), child_(std::move(child)) {
  items_.resize(node_->project.size());
  for (size_t i = 0; i < node_->project.size(); ++i) {
    items_[i].CompileExpr(node_->project[i]);
  }
}

Status ProjectOp::NextBatch(RowBatch* out, bool* has_batch) {
  out->Clear();
  in_batch_.capacity = out->capacity;
  RETURN_IF_ERROR(child_->NextBatch(&in_batch_, has_batch));
  if (!*has_batch) return Status::OK();
  Value v;
  for (uint32_t idx : in_batch_.sel) {
    Row& dst = out->Append();
    dst.clear();
    dst.reserve(items_.size());
    for (ExprProgram& item : items_) {
      RETURN_IF_ERROR(item.EvalValue(ctx_, in_batch_.rows[idx], &v));
      dst.push_back(std::move(v));
    }
  }
  out->SelectAll();
  return Status::OK();
}

}  // namespace systemr
