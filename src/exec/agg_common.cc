#include "exec/agg_common.h"

namespace systemr {

namespace {

// Collects every aggregate expression in the SELECT list (not descending
// into subqueries: their aggregates belong to their own blocks).
void CollectAggs(const BoundExpr& e, std::vector<const BoundExpr*>* out) {
  if (e.kind == BoundExprKind::kAggregate) {
    out->push_back(&e);
    return;
  }
  for (const auto& c : e.children) CollectAggs(*c, out);
}

}  // namespace

void AggState::Reset() {
  count = 0;
  sum = 0;
  isum = 0;
  int_sum = true;
  min = Value::Null();
  max = Value::Null();
}

void AggState::Merge(const AggState& other) {
  count += other.count;
  if (int_sum && other.int_sum) {
    isum += other.isum;
  } else {
    // Either side degraded to double: combine both totals as doubles, same
    // as Accept does when a non-integer value arrives mid-group.
    double mine = int_sum ? static_cast<double>(isum) : sum;
    double theirs = other.int_sum ? static_cast<double>(other.isum) : other.sum;
    sum = mine + theirs;
    int_sum = false;
  }
  if (!other.min.is_null() &&
      (min.is_null() || other.min.Compare(min) < 0)) {
    min = other.min;
  }
  if (!other.max.is_null() &&
      (max.is_null() || other.max.Compare(max) > 0)) {
    max = other.max;
  }
}

void MergeAggStates(std::vector<AggState>* into,
                    const std::vector<AggState>& from) {
  for (size_t i = 0; i < into->size() && i < from.size(); ++i) {
    (*into)[i].Merge(from[i]);
  }
}

void AggFunctionSet::Compile(const PlanNode* node) {
  std::vector<const BoundExpr*> aggs;
  for (const BoundExpr* item : node->agg_select) {
    CollectAggs(*item, &aggs);
  }
  if (node->having != nullptr) {
    CollectAggs(*node->having, &aggs);
  }
  funcs_.resize(aggs.size());
  for (size_t i = 0; i < aggs.size(); ++i) {
    funcs_[i].agg = aggs[i];
    if (!aggs[i]->children.empty()) {
      funcs_[i].arg.CompileExpr(aggs[i]->children[0].get());
    }
  }
  select_.resize(node->agg_select.size());
  for (size_t i = 0; i < select_.size(); ++i) {
    select_[i].CompileExpr(node->agg_select[i], &aggs);
  }
  has_having_ = node->having != nullptr;
  if (has_having_) having_.CompileExpr(node->having, &aggs);
  results_.resize(aggs.size());
}

void AggFunctionSet::ResetStates(std::vector<AggState>* states) const {
  states->resize(funcs_.size());
  for (AggState& s : *states) s.Reset();
}

Status AggFunctionSet::Accept(ExecContext* ctx, const Row& row,
                              std::vector<AggState>* states) {
  for (size_t i = 0; i < funcs_.size(); ++i) {
    CompiledAgg& f = funcs_[i];
    AggState& s = (*states)[i];
    if (f.agg->children.empty()) {  // COUNT(*).
      ++s.count;
      continue;
    }
    Value v;
    RETURN_IF_ERROR(f.arg.EvalValue(ctx, row, &v));
    if (v.is_null()) continue;  // NULLs are ignored by aggregates.
    ++s.count;
    if (IsArithmetic(v.type())) {
      if (v.type() == ValueType::kInt64 && s.int_sum) {
        s.isum += v.AsInt();
      } else {
        if (s.int_sum) {
          s.sum = static_cast<double>(s.isum);
          s.int_sum = false;
        }
        s.sum += v.AsNumber();
      }
    }
    if (s.min.is_null() || v.Compare(s.min) < 0) s.min = v;
    if (s.max.is_null() || v.Compare(s.max) > 0) s.max = v;
  }
  return Status::OK();
}

Status AggFunctionSet::Result(size_t i, const AggState& s,
                              Value* out) const {
  switch (funcs_[i].agg->agg) {
    case AggFunc::kCount:
      *out = Value::Int(static_cast<int64_t>(s.count));
      break;
    case AggFunc::kAvg: {
      double total = s.int_sum ? static_cast<double>(s.isum) : s.sum;
      *out = s.count == 0 ? Value::Null() : Value::Real(total / s.count);
      break;
    }
    case AggFunc::kSum:
      if (s.count == 0) {
        *out = Value::Null();
      } else if (!s.int_sum) {
        *out = Value::Real(s.sum);
      } else if (s.isum < INT64_MIN || s.isum > INT64_MAX) {
        return Status::InvalidArgument("integer overflow");
      } else {
        *out = Value::Int(static_cast<int64_t>(s.isum));
      }
      break;
    case AggFunc::kMin:
      *out = s.min;
      break;
    case AggFunc::kMax:
      *out = s.max;
      break;
  }
  return Status::OK();
}

StatusOr<bool> AggFunctionSet::FinishGroup(
    ExecContext* ctx, const Row& rep, const std::vector<AggState>& states) {
  for (size_t i = 0; i < funcs_.size(); ++i) {
    RETURN_IF_ERROR(Result(i, states[i], &results_[i]));
  }
  bool keep = true;
  if (has_having_) {
    RETURN_IF_ERROR(having_.EvalBool(ctx, rep, &keep, results_.data()));
  }
  return keep;
}

Status AggFunctionSet::EmitSelect(ExecContext* ctx, const Row& rep,
                                  Row* out) {
  out->resize(select_.size());
  for (size_t i = 0; i < select_.size(); ++i) {
    RETURN_IF_ERROR(
        select_[i].EvalValue(ctx, rep, &(*out)[i], results_.data()));
  }
  return Status::OK();
}

}  // namespace systemr
