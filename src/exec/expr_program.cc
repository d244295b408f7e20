#include "exec/expr_program.h"

#include <algorithm>

#include "exec/subquery_eval.h"

namespace systemr {

namespace {

inline bool Truthy(const Value& v) { return !v.is_null() && v.AsInt() != 0; }

// True if `e` depends on nothing but literals: no columns (local or outer),
// no subqueries, no aggregates — safe to evaluate once at compile time.
bool IsConstExpr(const BoundExpr& e) {
  switch (e.kind) {
    case BoundExprKind::kLiteral:
      return true;
    case BoundExprKind::kColumn:
    case BoundExprKind::kSubquery:
    case BoundExprKind::kInSubquery:
    case BoundExprKind::kAggregate:
    // A ? host variable is NEVER a compile-time constant: its value changes
    // between executions of the same compiled program.
    case BoundExprKind::kParameter:
      return false;
    default:
      break;
  }
  if (e.children.empty()) return false;
  for (const auto& c : e.children) {
    if (!IsConstExpr(*c)) return false;
  }
  return true;
}

const Row kEmptyRow;

bool ValueLess(const Value& a, const Value& b) { return a.Compare(b) < 0; }

// Arithmetic with the engine's NULL/typing rules, written into *out (no
// StatusOr temporary on the hot path).
Status EvalArithInto(char op, const Value& a, const Value& b, Value* out) {
  if (a.is_null() || b.is_null()) {
    *out = Value::Null();
    return Status::OK();
  }
  if (!IsArithmetic(a.type()) || !IsArithmetic(b.type())) {
    return Status::InvalidArgument("arithmetic on non-numeric value");
  }
  bool both_int =
      a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64;
  if (op == '/') {
    double denom = b.AsNumber();
    *out = denom == 0 ? Value::Null() : Value::Real(a.AsNumber() / denom);
    return Status::OK();
  }
  if (both_int) {
    int64_t x = a.AsInt(), y = b.AsInt(), r = 0;
    bool overflow;
    switch (op) {
      case '+': overflow = __builtin_add_overflow(x, y, &r); break;
      case '-': overflow = __builtin_sub_overflow(x, y, &r); break;
      case '*': overflow = __builtin_mul_overflow(x, y, &r); break;
      default: return Status::Internal("unknown arithmetic operator");
    }
    if (overflow) return Status::InvalidArgument("integer overflow");
    *out = Value::Int(r);
    return Status::OK();
  }
  double x = a.AsNumber(), y = b.AsNumber();
  switch (op) {
    case '+': *out = Value::Real(x + y); return Status::OK();
    case '-': *out = Value::Real(x - y); return Status::OK();
    case '*': *out = Value::Real(x * y); return Status::OK();
  }
  return Status::Internal("unknown arithmetic operator");
}

}  // namespace

bool LikeMatch(const std::string& s, const std::string& pattern) {
  size_t si = 0, pi = 0;
  // Position of the last '%' seen and the subject index its current
  // expansion resumes from; on a mismatch we back up here and let the '%'
  // absorb one more character.
  size_t star_pi = std::string::npos;
  size_t star_si = 0;
  while (si < s.size()) {
    if (pi < pattern.size() &&
        (pattern[pi] == '_' || pattern[pi] == s[si])) {
      ++si;
      ++pi;
    } else if (pi < pattern.size() && pattern[pi] == '%') {
      star_pi = pi++;
      star_si = si;
    } else if (star_pi != std::string::npos) {
      pi = star_pi + 1;
      si = ++star_si;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '%') ++pi;
  return pi == pattern.size();
}

uint32_t ExprProgram::AddConst(Value v) {
  consts_.push_back(std::move(v));
  return static_cast<uint32_t>(consts_.size() - 1);
}

ExprProgram::Step& ExprProgram::Add(Op op) {
  steps_.emplace_back();
  steps_.back().op = op;
  return steps_.back();
}

bool ExprProgram::FoldConst(const BoundExpr& e, Value* out) {
  if (e.kind == BoundExprKind::kLiteral) {
    *out = e.literal;
    return true;
  }
  // A const subtree never touches ctx or the row.
  ExprProgram sub;
  sub.fold_ = false;
  sub.Emit(e);
  sub.stack_.resize(sub.steps_.size() + 1);
  const Value* top = nullptr;
  if (!sub.Run(nullptr, kEmptyRow, nullptr, &top).ok()) return false;
  *out = *top;
  return true;
}

void ExprProgram::Emit(const BoundExpr& e) {
  Value folded;
  if (fold_ && IsConstExpr(e) && FoldConst(e, &folded)) {
    Add(Op::kPushConst).a = AddConst(std::move(folded));
    return;
  }
  switch (e.kind) {
    case BoundExprKind::kColumn:
      if (e.outer_level == 0) {
        Add(Op::kPushColumn).a = static_cast<uint32_t>(e.offset);
      } else {
        Step& s = Add(Op::kPushOuter);
        s.a = static_cast<uint32_t>(e.outer_level);
        s.b = static_cast<uint32_t>(e.offset);
      }
      return;
    case BoundExprKind::kLiteral:
      Add(Op::kPushConst).a = AddConst(e.literal);
      return;
    case BoundExprKind::kParameter:
      Add(Op::kPushParam).a = static_cast<uint32_t>(e.param_idx);
      return;
    case BoundExprKind::kCompare:
      Emit(*e.children[0]);
      Emit(*e.children[1]);
      Add(Op::kCompare).cmp = e.op;
      return;
    case BoundExprKind::kAnd:
    case BoundExprKind::kOr: {
      Emit(*e.children[0]);
      size_t jump = steps_.size();
      Add(e.kind == BoundExprKind::kAnd ? Op::kJumpIfFalse : Op::kJumpIfTrue);
      Emit(*e.children[1]);
      Add(Op::kToBool);
      steps_[jump].a = static_cast<uint32_t>(steps_.size());
      return;
    }
    case BoundExprKind::kNot:
      Emit(*e.children[0]);
      Add(Op::kNot);
      return;
    case BoundExprKind::kArith:
      Emit(*e.children[0]);
      Emit(*e.children[1]);
      Add(Op::kArith).arith = e.arith_op;
      return;
    case BoundExprKind::kBetween:
      for (const auto& c : e.children) Emit(*c);
      Add(Op::kBetween);
      return;
    case BoundExprKind::kInList: {
      Emit(*e.children[0]);
      // An all-constant list is evaluated and sorted once; NULL items can
      // never match (x = NULL is false), so they are dropped outright.
      std::vector<Value> items;
      bool all_const = true;
      for (size_t i = 1; all_const && i < e.children.size(); ++i) {
        Value v;
        all_const =
            IsConstExpr(*e.children[i]) && FoldConst(*e.children[i], &v);
        if (all_const && !v.is_null()) items.push_back(std::move(v));
      }
      if (all_const) {
        std::sort(items.begin(), items.end(), ValueLess);
        Add(Op::kInSortedConsts).a = static_cast<uint32_t>(lists_.size());
        lists_.push_back(std::move(items));
        return;
      }
      for (size_t i = 1; i < e.children.size(); ++i) Emit(*e.children[i]);
      Add(Op::kInRow).a = static_cast<uint32_t>(e.children.size() - 1);
      return;
    }
    case BoundExprKind::kInSubquery:
      Emit(*e.children[0]);
      Add(Op::kInSubquery).subquery = e.subquery.get();
      return;
    case BoundExprKind::kSubquery:
      Add(Op::kScalarSubquery).subquery = e.subquery.get();
      return;
    case BoundExprKind::kAggregate: {
      Step& s = Add(Op::kAggNoSlot);
      if (agg_slots_ != nullptr) {
        auto it = std::find(agg_slots_->begin(), agg_slots_->end(), &e);
        if (it != agg_slots_->end()) {
          s.op = Op::kPushAgg;
          s.a = static_cast<uint32_t>(it - agg_slots_->begin());
        }
      }
      return;
    }
    case BoundExprKind::kIsNull:
      Emit(*e.children[0]);
      Add(Op::kIsNull).negated = e.negated;
      return;
    case BoundExprKind::kLike:
      Emit(*e.children[0]);
      Emit(*e.children[1]);
      Add(Op::kLike).negated = e.negated;
      return;
  }
}

void ExprProgram::Reset() {
  steps_.clear();
  consts_.clear();
  lists_.clear();
}

void ExprProgram::CompileExpr(const BoundExpr* e,
                              const std::vector<const BoundExpr*>* agg_slots) {
  Reset();
  agg_slots_ = agg_slots;
  Emit(*e);
  agg_slots_ = nullptr;
  // Each step pushes at most one net slot, so this bound never reallocates.
  stack_.resize(steps_.size() + 1);
  ClassifyForBatch();
}

void ExprProgram::CompilePreds(const std::vector<const BoundExpr*>* preds) {
  Reset();
  if (preds->empty()) {
    Add(Op::kPushConst).a = AddConst(Value::Int(1));
  } else {
    std::vector<size_t> jumps;
    for (size_t i = 0; i < preds->size(); ++i) {
      Emit(*(*preds)[i]);
      if (i + 1 < preds->size()) {
        jumps.push_back(steps_.size());
        Add(Op::kJumpIfFalse);
      }
    }
    Add(Op::kToBool);
    for (size_t j : jumps) steps_[j].a = static_cast<uint32_t>(steps_.size());
  }
  stack_.resize(steps_.size() + 1);
  ClassifyForBatch();
}

void ExprProgram::ClassifyForBatch() {
  batch_kind_ = BatchKind::kGeneric;
  if (steps_.size() == 1 && steps_[0].op == Op::kPushConst) {
    // The empty predicate list compiles to a constant-true push.
    if (Truthy(consts_[steps_[0].a])) batch_kind_ = BatchKind::kAlwaysOn;
    return;
  }
  // Single comparison: [push, push, compare] with an optional trailing
  // kToBool (CompilePreds appends one; kCompare already yields 0/1).
  size_t n = steps_.size();
  bool tail_ok = n == 3 || (n == 4 && steps_[3].op == Op::kToBool);
  if (!tail_ok || steps_[2].op != Op::kCompare) return;
  if (steps_[0].op != Op::kPushColumn) return;
  if (steps_[1].op == Op::kPushConst) {
    batch_kind_ = BatchKind::kColConst;
  } else if (steps_[1].op == Op::kPushColumn) {
    batch_kind_ = BatchKind::kColCol;
  }
}

Status ExprProgram::EvalBoolBatch(ExecContext* ctx,
                                  const std::vector<Row>& rows,
                                  std::vector<uint32_t>* sel) {
  switch (batch_kind_) {
    case BatchKind::kAlwaysOn:
      return Status::OK();
    case BatchKind::kColConst: {
      const CompareOp cmp = steps_[2].cmp;
      const uint32_t col = steps_[0].a;
      const Value& rhs = consts_[steps_[1].a];
      size_t out = 0;
      for (uint32_t idx : *sel) {
        const Row& r = rows[idx];
        if (col >= r.size()) {
          return Status::Internal("column offset out of range");
        }
        if (EvalCompare(cmp, r[col], rhs)) (*sel)[out++] = idx;
      }
      sel->resize(out);
      return Status::OK();
    }
    case BatchKind::kColCol: {
      const CompareOp cmp = steps_[2].cmp;
      const uint32_t lhs = steps_[0].a;
      const uint32_t rhs = steps_[1].a;
      size_t out = 0;
      for (uint32_t idx : *sel) {
        const Row& r = rows[idx];
        if (lhs >= r.size() || rhs >= r.size()) {
          return Status::Internal("column offset out of range");
        }
        if (EvalCompare(cmp, r[lhs], r[rhs])) (*sel)[out++] = idx;
      }
      sel->resize(out);
      return Status::OK();
    }
    case BatchKind::kGeneric:
      break;
  }
  size_t out = 0;
  for (uint32_t idx : *sel) {
    bool ok = false;
    RETURN_IF_ERROR(EvalBool(ctx, rows[idx], &ok));
    if (ok) (*sel)[out++] = idx;
  }
  sel->resize(out);
  return Status::OK();
}

Status ExprProgram::Run(ExecContext* ctx, const Row& row, const Value* aggs,
                        const Value** top) {
  Slot* stack = stack_.data();
  size_t sp = 0;
  const size_t n = steps_.size();
  for (size_t pc = 0; pc < n; ++pc) {
    const Step& s = steps_[pc];
    switch (s.op) {
      case Op::kPushColumn:
        if (s.a >= row.size()) {
          return Status::Internal("column offset out of range");
        }
        stack[sp++].ref = &row[s.a];
        break;
      case Op::kPushOuter:
        stack[sp++].ref = &ctx->OuterValue(static_cast<int>(s.a), s.b);
        break;
      case Op::kPushConst:
        stack[sp++].ref = &consts_[s.a];
        break;
      case Op::kPushParam:
        RETURN_IF_ERROR(ctx->ParamValue(s.a, &stack[sp++].ref));
        break;
      case Op::kCompare: {
        const Value& rhs = *stack[--sp].ref;
        const Value& lhs = *stack[--sp].ref;
        Slot& dst = stack[sp++];
        dst.owned = Value::Int(EvalCompare(s.cmp, lhs, rhs) ? 1 : 0);
        dst.ref = &dst.owned;
        break;
      }
      case Op::kArith: {
        const Value& rhs = *stack[--sp].ref;
        const Value& lhs = *stack[--sp].ref;
        Slot& dst = stack[sp++];
        RETURN_IF_ERROR(EvalArithInto(s.arith, lhs, rhs, &dst.owned));
        dst.ref = &dst.owned;
        break;
      }
      case Op::kNot: {
        Slot& slot = stack[sp - 1];
        slot.owned = Value::Int(Truthy(*slot.ref) ? 0 : 1);
        slot.ref = &slot.owned;
        break;
      }
      case Op::kToBool: {
        Slot& slot = stack[sp - 1];
        slot.owned = Value::Int(Truthy(*slot.ref) ? 1 : 0);
        slot.ref = &slot.owned;
        break;
      }
      case Op::kIsNull: {
        Slot& slot = stack[sp - 1];
        bool isnull = slot.ref->is_null();
        slot.owned = Value::Int((s.negated ? !isnull : isnull) ? 1 : 0);
        slot.ref = &slot.owned;
        break;
      }
      case Op::kBetween: {
        const Value& hi = *stack[--sp].ref;
        const Value& lo = *stack[--sp].ref;
        Slot& dst = stack[sp - 1];
        bool ok = EvalCompare(CompareOp::kGe, *dst.ref, lo) &&
                  EvalCompare(CompareOp::kLe, *dst.ref, hi);
        dst.owned = Value::Int(ok ? 1 : 0);
        dst.ref = &dst.owned;
        break;
      }
      case Op::kLike: {
        const Value& pattern = *stack[--sp].ref;
        Slot& dst = stack[sp - 1];
        const Value& subject = *dst.ref;
        bool match = !subject.is_null() && !pattern.is_null() &&
                     LikeMatch(subject.AsStr(), pattern.AsStr());
        if (s.negated && !subject.is_null() && !pattern.is_null()) {
          match = !match;
        }
        dst.owned = Value::Int(match ? 1 : 0);
        dst.ref = &dst.owned;
        break;
      }
      case Op::kInSortedConsts: {
        Slot& dst = stack[sp - 1];
        const Value& v = *dst.ref;
        bool found =
            !v.is_null() && std::binary_search(lists_[s.a].begin(),
                                               lists_[s.a].end(), v, ValueLess);
        dst.owned = Value::Int(found ? 1 : 0);
        dst.ref = &dst.owned;
        break;
      }
      case Op::kInRow: {
        size_t items = sp - s.a;
        Slot& dst = stack[items - 1];
        const Value& v = *dst.ref;
        bool found = false;
        for (size_t i = items; !found && i < sp; ++i) {
          found = EvalCompare(CompareOp::kEq, v, *stack[i].ref);
        }
        sp = items;
        dst.owned = Value::Int(found ? 1 : 0);
        dst.ref = &dst.owned;
        break;
      }
      case Op::kJumpIfFalse: {
        const Value& v = *stack[--sp].ref;
        if (!Truthy(v)) {
          Slot& dst = stack[sp++];
          dst.owned = Value::Int(0);
          dst.ref = &dst.owned;
          pc = s.a - 1;  // -1: the loop increment lands on the target.
        }
        break;
      }
      case Op::kJumpIfTrue: {
        const Value& v = *stack[--sp].ref;
        if (Truthy(v)) {
          Slot& dst = stack[sp++];
          dst.owned = Value::Int(1);
          dst.ref = &dst.owned;
          pc = s.a - 1;
        }
        break;
      }
      case Op::kScalarSubquery: {
        StatusOr<Value> v = EvalScalarSubquery(ctx, s.subquery, row);
        if (!v.ok()) return v.status();
        Slot& dst = stack[sp++];
        dst.owned = std::move(*v);
        dst.ref = &dst.owned;
        break;
      }
      case Op::kInSubquery: {
        Slot& dst = stack[sp - 1];
        const Value& v = *dst.ref;
        bool found = false;
        if (!v.is_null()) {
          StatusOr<const std::vector<Value>*> list =
              EvalInSubqueryList(ctx, s.subquery, row);
          if (!list.ok()) return list.status();
          found = std::binary_search((*list)->begin(), (*list)->end(), v,
                                     ValueLess);
        }
        dst.owned = Value::Int(found ? 1 : 0);
        dst.ref = &dst.owned;
        break;
      }
      case Op::kPushAgg:
        stack[sp++].ref = &aggs[s.a];
        break;
      case Op::kAggNoSlot:
        return Status::Internal(
            "aggregate evaluated outside an Aggregate operator");
    }
  }
  if (sp != 1) return Status::Internal("expression program stack imbalance");
  *top = stack[0].ref;
  return Status::OK();
}

Status ExprProgram::EvalBool(ExecContext* ctx, const Row& row, bool* out,
                             const Value* aggs) {
  const Value* top = nullptr;
  RETURN_IF_ERROR(Run(ctx, row, aggs, &top));
  *out = Truthy(*top);
  return Status::OK();
}

Status ExprProgram::EvalValue(ExecContext* ctx, const Row& row, Value* out,
                              const Value* aggs) {
  if (steps_.size() == 1 && steps_[0].op == Op::kPushColumn) {
    // A bare column (a projection, SUM(R0.A)'s argument, SET V = W) is a
    // copy of the row's value; the check is kPushColumn's.
    if (steps_[0].a >= row.size()) {
      return Status::Internal("column offset out of range");
    }
    *out = row[steps_[0].a];
    return Status::OK();
  }
  const Value* top = nullptr;
  RETURN_IF_ERROR(Run(ctx, row, aggs, &top));
  *out = *top;
  return Status::OK();
}

}  // namespace systemr
