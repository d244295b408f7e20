// Search arguments (SARGs, §3): predicates of the form
// "column comparison-operator value", in disjunctive normal form, applied to
// a tuple *below* the RSI so that rejected tuples never cost an RSI call.
#ifndef SYSTEMR_RSS_SARG_H_
#define SYSTEMR_RSS_SARG_H_

#include <string>
#include <vector>

#include "common/schema.h"
#include "common/value.h"

namespace systemr {

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpName(CompareOp op);

/// Evaluates `a op b`. Comparisons involving NULL are false.
bool EvalCompare(CompareOp op, const Value& a, const Value& b);

/// Mirror of the operator: (a op b) == (b op Mirror(op) a).
CompareOp MirrorOp(CompareOp op);

/// One sargable term: column(index into the stored tuple) op literal.
/// Matching reads the tuple at `offset` within `row` (a scan may decode its
/// tuple into a slice of a wider row).
struct SargTerm {
  size_t column = 0;
  CompareOp op = CompareOp::kEq;
  Value value;

  bool Matches(const Row& row, size_t offset = 0) const {
    return offset + column < row.size() &&
           EvalCompare(op, row[offset + column], value);
  }
};

/// A boolean expression of sargable terms in DNF: OR of conjunctions.
/// An empty Sarg accepts everything.
struct Sarg {
  std::vector<std::vector<SargTerm>> disjuncts;

  bool empty() const { return disjuncts.empty(); }
  bool Matches(const Row& row, size_t offset = 0) const;

  /// Adds a conjunction of terms as one more disjunct.
  void AddConjunct(std::vector<SargTerm> terms) {
    disjuncts.push_back(std::move(terms));
  }

  /// Renders using the given column names (for EXPLAIN output).
  std::string ToString(const Schema& schema) const;
};

}  // namespace systemr

#endif  // SYSTEMR_RSS_SARG_H_
