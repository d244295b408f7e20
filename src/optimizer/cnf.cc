#include "optimizer/cnf.h"

#include <functional>

namespace systemr {

namespace {

// Collects the mask of current-block tables referenced by `e` (descending
// into subqueries, where refs to this block appear at higher outer levels).
void CollectMask(const BoundExpr& e, int depth, uint32_t* mask) {
  if (e.kind == BoundExprKind::kColumn && e.outer_level == depth) {
    *mask |= 1u << e.table_idx;
  }
  for (const auto& c : e.children) CollectMask(*c, depth, mask);
  if (e.subquery != nullptr) {
    for (const auto& item : e.subquery->select_list) {
      CollectMask(*item, depth + 1, mask);
    }
    if (e.subquery->where != nullptr) {
      CollectMask(*e.subquery->where, depth + 1, mask);
    }
  }
}

// The value side of a sargable leaf: a literal, or a ? host variable (which
// sets *saw_param).
std::optional<ScanOperand> AsOperand(const BoundExpr& e, bool* saw_param) {
  if (e.kind == BoundExprKind::kLiteral) return ScanOperand::Literal(e.literal);
  if (e.kind != BoundExprKind::kParameter) return std::nullopt;
  *saw_param = true;
  return ScanOperand::Param(static_cast<size_t>(e.param_idx));
}

// Claims `col` for the factor's one table: false unless it is a column of
// this block on the table the factor's other leaves use.
bool OnFactorTable(const BoundExpr& col, int* table) {
  if (col.kind != BoundExprKind::kColumn || col.outer_level != 0) return false;
  if (*table >= 0 && *table != col.table_idx) return false;
  *table = col.table_idx;
  return true;
}

// Tries to express `e` as a DNF of (column op value) terms on one table,
// the values literals or ? host variables (in comparison and BETWEEN leaves
// only; *saw_param reports one). On success appends conjuncts to `dnf` and
// sets/validates `*table`.
bool ToSargDnf(const BoundExpr& e, int* table,
               std::vector<std::vector<ScanTerm>>* dnf, bool* saw_param) {
  switch (e.kind) {
    case BoundExprKind::kCompare: {
      // col op value, either orientation.
      const BoundExpr* lhs = e.children[0].get();
      const BoundExpr* rhs = e.children[1].get();
      CompareOp op = e.op;
      if (lhs->kind != BoundExprKind::kColumn) {
        std::swap(lhs, rhs);
        op = MirrorOp(op);
      }
      std::optional<ScanOperand> value = AsOperand(*rhs, saw_param);
      if (!value.has_value() || !OnFactorTable(*lhs, table)) return false;
      dnf->push_back({ScanTerm{lhs->column, op, std::move(*value)}});
      return true;
    }
    case BoundExprKind::kBetween: {
      const BoundExpr* col = e.children[0].get();
      std::optional<ScanOperand> lo = AsOperand(*e.children[1], saw_param);
      std::optional<ScanOperand> hi = AsOperand(*e.children[2], saw_param);
      if (!lo.has_value() || !hi.has_value() || !OnFactorTable(*col, table)) {
        return false;
      }
      dnf->push_back({ScanTerm{col->column, CompareOp::kGe, std::move(*lo)},
                      ScanTerm{col->column, CompareOp::kLe, std::move(*hi)}});
      return true;
    }
    case BoundExprKind::kInList: {
      if (!OnFactorTable(*e.children[0], table)) return false;
      size_t column = e.children[0]->column;
      for (size_t i = 1; i < e.children.size(); ++i) {
        if (e.children[i]->kind != BoundExprKind::kLiteral) return false;
        dnf->push_back({ScanTerm{column, CompareOp::kEq,
                                 ScanOperand::Literal(e.children[i]->literal)}});
      }
      return true;
    }
    case BoundExprKind::kLike: {
      // LIKE 'PREFIX%' (a single trailing % and no other wildcard) is
      // exactly the range [PREFIX, next(PREFIX)), so it is sargable — the
      // System R treatment of prefix patterns. Anything else stays residual.
      if (e.negated) return false;
      const BoundExpr* col = e.children[0].get();
      const BoundExpr* pat = e.children[1].get();
      if (pat->kind != BoundExprKind::kLiteral ||
          pat->literal.type() != ValueType::kString) {
        return false;
      }
      const std::string& pattern = pat->literal.AsStr();
      if (pattern.size() < 2 || pattern.back() != '%') return false;
      std::string prefix = pattern.substr(0, pattern.size() - 1);
      if (prefix.find('%') != std::string::npos ||
          prefix.find('_') != std::string::npos) {
        return false;
      }
      std::string next = prefix;
      if (static_cast<unsigned char>(next.back()) == 0xff) return false;
      next.back() = static_cast<char>(next.back() + 1);
      if (!OnFactorTable(*col, table)) return false;
      dnf->push_back(
          {ScanTerm{col->column, CompareOp::kGe,
                    ScanOperand::Literal(Value::Str(std::move(prefix)))},
           ScanTerm{col->column, CompareOp::kLt,
                    ScanOperand::Literal(Value::Str(std::move(next)))}});
      return true;
    }
    case BoundExprKind::kOr: {
      // OR of sargable parts: union of their disjuncts.
      return ToSargDnf(*e.children[0], table, dnf, saw_param) &&
             ToSargDnf(*e.children[1], table, dnf, saw_param);
    }
    case BoundExprKind::kAnd: {
      // AND inside a factor: distribute (a1|a2|..)&(b1|b2|..). Keep the
      // common cheap case bounded: bail out beyond 64 product conjuncts.
      std::vector<std::vector<ScanTerm>> left, right;
      if (!ToSargDnf(*e.children[0], table, &left, saw_param) ||
          !ToSargDnf(*e.children[1], table, &right, saw_param)) {
        return false;
      }
      if (left.size() * right.size() > 64) return false;
      for (const auto& l : left) {
        for (const auto& r : right) {
          std::vector<ScanTerm> combined = l;
          combined.insert(combined.end(), r.begin(), r.end());
          dnf->push_back(std::move(combined));
        }
      }
      return true;
    }
    default:
      return false;
  }
}

std::optional<JoinPredInfo> AsJoinPred(const BoundExpr& e) {
  if (e.kind != BoundExprKind::kCompare) return std::nullopt;
  const BoundExpr* lhs = e.children[0].get();
  const BoundExpr* rhs = e.children[1].get();
  if (lhs->kind != BoundExprKind::kColumn ||
      rhs->kind != BoundExprKind::kColumn) {
    return std::nullopt;
  }
  if (lhs->outer_level != 0 || rhs->outer_level != 0) return std::nullopt;
  if (lhs->table_idx == rhs->table_idx) return std::nullopt;
  return JoinPredInfo{lhs->table_idx, lhs->column, rhs->table_idx, rhs->column,
                      e.op};
}

void SplitConjuncts(const BoundExpr* e, std::vector<const BoundExpr*>* out) {
  if (e->kind == BoundExprKind::kAnd) {
    SplitConjuncts(e->children[0].get(), out);
    SplitConjuncts(e->children[1].get(), out);
    return;
  }
  out->push_back(e);
}

}  // namespace

std::vector<BooleanFactor> ExtractBooleanFactors(const BoundQueryBlock& block) {
  std::vector<BooleanFactor> factors;
  if (block.where == nullptr) return factors;
  std::vector<const BoundExpr*> conjuncts;
  SplitConjuncts(block.where.get(), &conjuncts);

  for (const BoundExpr* e : conjuncts) {
    BooleanFactor f;
    f.expr = e;
    CollectMask(*e, 0, &f.tables_mask);
    f.has_subquery = e->HasSubquery();
    f.correlated = e->ReferencesOuter(0);

    if (!f.has_subquery && !f.correlated) {
      f.join = AsJoinPred(*e);
      int table = -1;
      bool saw_param = false;
      std::vector<std::vector<ScanTerm>> dnf;
      // A ? is sargable only in a factor that is one comparison or one
      // BETWEEN: one conjunct, whose ? terms become dynamic SARGs.
      if (!f.join.has_value() && ToSargDnf(*e, &table, &dnf, &saw_param) &&
          (!saw_param || e->kind == BoundExprKind::kCompare ||
           e->kind == BoundExprKind::kBetween)) {
        f.sargable = true;
        f.sarg_table = table;
        f.dnf = std::move(dnf);
      }
    }
    factors.push_back(std::move(f));
  }
  return factors;
}

}  // namespace systemr
