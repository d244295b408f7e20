// Single-relation access paths (§4, Fig. 2): for one table, with a given
// set of already-bound outer tables, every access path — each index plus the
// segment scan — with the applicable predicates applied (local SARGs,
// residuals, and join predicates bound from the outer composite), the boolean
// factors that *match* each index (the key-prefix rule), and each path costed
// with the Table-2 formulas. A path is its scan plan node: `est` is its
// per-probe cost (the total cost when no outer is bound), `est_rows` its
// expected qualifying tuples per probe and `order` the order it delivers.
// PlannerContext::AccessPaths generates and memoizes them
// (access_path_gen.cc holds the generator); this header holds the pruning
// rule.
#ifndef SYSTEMR_OPTIMIZER_ACCESS_PATH_GEN_H_
#define SYSTEMR_OPTIMIZER_ACCESS_PATH_GEN_H_

#include <vector>

#include "optimizer/plan.h"

namespace systemr {

/// Flags dominated paths (true = pruned): a path is kept only if it is the
/// cheapest producing some interesting order, or the cheapest overall (§4).
/// `interesting` lists the block's interesting orders. The paths themselves
/// are left alone: the context's memo shares them.
std::vector<bool> PrunedAccessPaths(const std::vector<PlanRef>& paths,
                                    const std::vector<OrderSpec>& interesting);

/// The first of the cheapest plans by COST — the one path pruning keeps when
/// no order is interesting. Null for an empty list.
PlanRef CheapestPath(const std::vector<PlanRef>& paths);

/// Covered-interesting-orders bitmask helper shared with the join enumerator.
uint64_t CoveredOrders(const OrderSpec& produced,
                       const std::vector<OrderSpec>& interesting);

}  // namespace systemr

#endif  // SYSTEMR_OPTIMIZER_ACCESS_PATH_GEN_H_
