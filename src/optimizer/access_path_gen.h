// Single-relation access path generation (§4, Fig. 2): for one table, with a
// given set of already-bound outer tables, enumerate every access path — each
// index plus the segment scan — apply the applicable predicates (local SARGs,
// residuals, and join predicates bound from the outer composite), find which
// boolean factors *match* each index (the key-prefix rule), and cost each
// path with the Table-2 formulas.
#ifndef SYSTEMR_OPTIMIZER_ACCESS_PATH_GEN_H_
#define SYSTEMR_OPTIMIZER_ACCESS_PATH_GEN_H_

#include <memory>
#include <string>
#include <vector>

#include "optimizer/plan.h"
#include "optimizer/planner_context.h"

namespace systemr {

struct AccessPath {
  std::shared_ptr<PlanNode> node;  // kSegScan or kIndexScan, annotated.
  PathCost cost;    // Predicted per-probe cost (total cost when outer empty).
  double rows = 0;  // Expected qualifying tuples per probe.
  OrderSpec order;
  bool pruned = false;  // Dominated; kept for search-tree dumps (Fig. 2/3).
  std::string describe;
};

/// Enumerates all access paths for `table_idx`, applying every predicate that
/// is applicable once the tables in `outer_mask` are bound (pass 0 for plain
/// single-relation access). Paths are not pruned.
std::vector<AccessPath> GenerateAccessPaths(const PlannerContext& ctx,
                                            int table_idx,
                                            uint32_t outer_mask);

/// Marks dominated paths (`pruned = true`): a path is kept only if it is the
/// cheapest producing some interesting order, or the cheapest overall (§4).
/// `interesting` lists the block's interesting orders.
void PruneAccessPaths(std::vector<AccessPath>* paths,
                      const std::vector<OrderSpec>& interesting);

/// Covered-interesting-orders bitmask helper shared with the join enumerator.
uint64_t CoveredOrders(const OrderSpec& produced,
                       const std::vector<OrderSpec>& interesting);

}  // namespace systemr

#endif  // SYSTEMR_OPTIMIZER_ACCESS_PATH_GEN_H_
