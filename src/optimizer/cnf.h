// Boolean factors (§4): the WHERE tree is treated as being in conjunctive
// normal form; every conjunct is a boolean factor, and every result tuple must
// satisfy every boolean factor. This module extracts the factors and analyzes
// each one:
//   - sargable single-table factors become DNF search arguments ("a boolean
//     factor may be an entire tree of predicates headed by an OR") whose
//     values are literals or ? host variables,
//   - two-table column comparisons become join predicates,
//   - everything else stays a residual predicate evaluated above the RSS.
#ifndef SYSTEMR_OPTIMIZER_CNF_H_
#define SYSTEMR_OPTIMIZER_CNF_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "optimizer/bound_expr.h"
#include "optimizer/plan.h"
#include "rss/sarg.h"

namespace systemr {

/// An equi- or theta-join predicate t1.c1 op t2.c2 between distinct tables of
/// the current block.
struct JoinPredInfo {
  int t1 = 0;
  size_t c1 = 0;
  int t2 = 0;
  size_t c2 = 0;
  CompareOp op = CompareOp::kEq;

  bool is_equi() const { return op == CompareOp::kEq; }
  /// Returns the predicate oriented so that `inner` is on the left; requires
  /// that one side references `inner`.
  JoinPredInfo OrientedFor(int inner) const {
    if (t1 == inner) return *this;
    return JoinPredInfo{t2, c2, t1, c1, MirrorOp(op)};
  }
};

struct BooleanFactor {
  const BoundExpr* expr = nullptr;  // The conjunct, for residual evaluation.
  uint32_t tables_mask = 0;         // Current-block tables referenced.
  bool has_subquery = false;
  bool correlated = false;          // References enclosing blocks.
  double selectivity = 1.0;         // F used for planning (feedback-blended).
  double model_selectivity = 1.0;   // F from statistics/Table 1 alone.
  /// Normalized predicate signature for the feedback store ("" = unsignable
  /// or feedback disabled). Single-table factors only.
  std::string signature;

  /// Set if the factor is a single join predicate between two tables.
  std::optional<JoinPredInfo> join;

  /// Set if the factor is sargable: every leaf is `column op value` on one
  /// single table, the value a literal or a ? host variable. Like the
  /// paper's pre-bound host variables, a ? is sargable with the default
  /// Table-1 selectivities and its value substituted at execute time, but
  /// only in a factor that is one comparison or one BETWEEN. `dnf` uses
  /// table-local column ordinals.
  bool sargable = false;
  int sarg_table = -1;
  std::vector<std::vector<ScanTerm>> dnf;
};

/// Splits the block's WHERE tree into boolean factors and analyzes each.
std::vector<BooleanFactor> ExtractBooleanFactors(const BoundQueryBlock& block);

/// Mask helpers.
inline bool SubsetOf(uint32_t a, uint32_t b) { return (a & ~b) == 0; }

}  // namespace systemr

#endif  // SYSTEMR_OPTIMIZER_CNF_H_
