// What the OPTIMIZER works out from one query block before it searches
// (§4-§5): the block's boolean factors with their selectivity factors, the
// order-equivalence classes of its equi-join columns, and — memoized as the
// search asks for them — composite cardinalities and single-relation access
// paths. The DP join enumerator, the baselines and DML target selection all
// plan from one context per block, so no other module derives factors,
// selectivities or access paths.
#ifndef SYSTEMR_OPTIMIZER_PLANNER_CONTEXT_H_
#define SYSTEMR_OPTIMIZER_PLANNER_CONTEXT_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "optimizer/access_path_gen.h"
#include "optimizer/cnf.h"
#include "optimizer/cost_model.h"
#include "optimizer/order_classes.h"
#include "optimizer/selectivity.h"

namespace systemr {

class SelectivityFeedback;

/// The planning inputs of one query block, built once per optimization.
struct PlannerContext {
  /// Extracts the block's boolean factors and gives each its model
  /// selectivity and its planned one: with a `feedback` store, single-table
  /// factors are signed and blended with what the store has learned; without
  /// one, the planned selectivity is the model's. Equi-join columns are
  /// unioned into order classes.
  PlannerContext(const Catalog* catalog, const BoundQueryBlock& block,
                 const CostParams& cost_params, bool use_column_stats,
                 const SelectivityFeedback* feedback);
  PlannerContext(const PlannerContext&) = delete;
  PlannerContext& operator=(const PlannerContext&) = delete;

  /// N(mask): estimated composite cardinality — product of cardinalities
  /// times the selectivities of all applicable predicates (§5). Memoized.
  double Rows(uint32_t mask) const;

  /// Every access path of table `t` (unpruned), as its scan plan node, with
  /// the predicates applicable once the tables in `outer` are bound (0 =
  /// plain single-relation access). Memoized on what the paths depend on:
  /// `t`, the tables of `outer` that share a join factor with `t`, and
  /// whether `outer` is empty (a re-probed inner is costed and fed back
  /// differently). Callers share the nodes, so they are never mutated.
  const std::vector<PlanRef>& AccessPaths(int t, uint32_t outer) const;

  /// True when some join predicate links `t` to a table in `mask`.
  bool Connected(uint32_t mask, int t) const;

  /// Residual predicates newly applicable when `t` joins `mask`, excluding
  /// the simple join predicates already handled: all of them when
  /// `all_simple_joins_handled` (nested loop, where they became SARGs),
  /// else only `merge_pred`, the merge or hash equality itself.
  std::vector<const BoundExpr*> NewResiduals(
      uint32_t mask, int t, bool all_simple_joins_handled,
      const JoinPredInfo* merge_pred) const;

  /// Factors no scan or join applies — subquery, correlated and table-free
  /// ones; a filter evaluates them above the join tree (§6).
  std::vector<const BooleanFactor*> Leftovers() const;

  const BoundQueryBlock* block;
  const Catalog* catalog;
  CostModel cost;
  SelectivityEstimator sel;
  std::vector<BooleanFactor> factors;
  /// Mutable because ClassOf gives a column its singleton class on first use.
  mutable OrderClasses classes;

 private:
  /// AccessPaths' generator (access_path_gen.cc): the paths for exactly
  /// (`table_idx`, `outer_mask`).
  std::vector<PlanRef> GenerateAccessPaths(int table_idx,
                                           uint32_t outer_mask) const;

  /// Per table, the tables it shares a join factor with.
  std::vector<uint32_t> join_neighbours_;
  mutable std::map<uint32_t, double> rows_cache_;
  mutable std::unordered_map<uint64_t, std::vector<PlanRef>> paths_cache_;
};

}  // namespace systemr

#endif  // SYSTEMR_OPTIMIZER_PLANNER_CONTEXT_H_
