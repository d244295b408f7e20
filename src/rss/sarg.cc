#include "rss/sarg.h"

namespace systemr {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

bool EvalCompare(CompareOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return false;
  int c = a.Compare(b);
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

CompareOp MirrorOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kEq;
    case CompareOp::kNe:
      return CompareOp::kNe;
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
  }
  return op;
}

bool Sarg::Matches(const Row& row, size_t offset) const {
  if (disjuncts.empty()) return true;
  for (const auto& conjunct : disjuncts) {
    bool all = true;
    for (const SargTerm& term : conjunct) {
      if (!term.Matches(row, offset)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

std::string Sarg::ToString(const Schema& schema) const {
  if (disjuncts.empty()) return "true";
  std::string s;
  for (size_t d = 0; d < disjuncts.size(); ++d) {
    if (d > 0) s += " OR ";
    if (disjuncts.size() > 1) s += "(";
    for (size_t t = 0; t < disjuncts[d].size(); ++t) {
      if (t > 0) s += " AND ";
      const SargTerm& term = disjuncts[d][t];
      s += term.column < schema.num_columns()
               ? schema.column(term.column).name
               : "col" + std::to_string(term.column);
      s += CompareOpName(term.op);
      s += term.value.ToString();
    }
    if (disjuncts.size() > 1) s += ")";
  }
  return s;
}

}  // namespace systemr
