// Single-relation access paths (§4, Fig. 2): for one table, with a given
// set of already-bound outer tables, every access path — each index plus the
// segment scan — with the applicable predicates applied (local SARGs,
// residuals, and join predicates bound from the outer composite), the boolean
// factors that *match* each index (the key-prefix rule), and each path costed
// with the Table-2 formulas. PlannerContext::AccessPaths generates and
// memoizes them (access_path_gen.cc holds the generator); this header holds
// the path type and the pruning rule.
#ifndef SYSTEMR_OPTIMIZER_ACCESS_PATH_GEN_H_
#define SYSTEMR_OPTIMIZER_ACCESS_PATH_GEN_H_

#include <memory>
#include <string>
#include <vector>

#include "optimizer/plan.h"

namespace systemr {

struct AccessPath {
  std::shared_ptr<PlanNode> node;  // kSegScan or kIndexScan, annotated.
  PathCost cost;    // Predicted per-probe cost (total cost when outer empty).
  double rows = 0;  // Expected qualifying tuples per probe.
  OrderSpec order;
  std::string describe;
};

/// Flags dominated paths (true = pruned): a path is kept only if it is the
/// cheapest producing some interesting order, or the cheapest overall (§4).
/// `interesting` lists the block's interesting orders. The paths themselves
/// are left alone: the context's memo shares them.
std::vector<bool> PrunedAccessPaths(const std::vector<AccessPath>& paths,
                                    const std::vector<OrderSpec>& interesting);

/// The first of the cheapest paths — the one path pruning keeps when no
/// order is interesting. Null for an empty list.
const AccessPath* CheapestPath(const std::vector<AccessPath>& paths);

/// Covered-interesting-orders bitmask helper shared with the join enumerator.
uint64_t CoveredOrders(const OrderSpec& produced,
                       const std::vector<OrderSpec>& interesting);

}  // namespace systemr

#endif  // SYSTEMR_OPTIMIZER_ACCESS_PATH_GEN_H_
