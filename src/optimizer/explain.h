// EXPLAIN: renders a physical plan tree with the optimizer's annotations
// (estimated cost split into page fetches and W*RSI calls, cardinalities,
// tuple orders, SARGs and key bounds), and the one-line labels of the
// paper's search-tree figures.
#ifndef SYSTEMR_OPTIMIZER_EXPLAIN_H_
#define SYSTEMR_OPTIMIZER_EXPLAIN_H_

#include <string>

#include "optimizer/bound_expr.h"
#include "optimizer/plan.h"

namespace systemr {

std::string ExplainPlan(const PlanRef& root, const BoundQueryBlock& block);

/// A plan's label in the style of Figs. 2-6, read from the tree alone:
/// "EMP seg. scan", "index EMP_DNO (matching)" (matching when the path has
/// an equality or range bound), "NLJ(a -> b)", "MJ(sort(a) = merge-inner b)",
/// "MJ(a = sort(b) then merge)", "HJ(a = build b)" and "sort(a)".
std::string DescribePlan(const PlanNode& plan);

}  // namespace systemr

#endif  // SYSTEMR_OPTIMIZER_EXPLAIN_H_
