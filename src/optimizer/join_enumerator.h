// Dynamic-programming join enumeration (§5): "an efficient way to organize
// the search is to find the best join order for successively larger subsets
// of tables", keeping — per subset — the cheapest unordered solution and the
// cheapest solution for each interesting-order equivalence class, extending
// left-deep with nested-loop and merge-scan joins, and deferring Cartesian
// products via the join-predicate heuristic. A stored solution is its plan
// node: the node's `est`, `est_rows` and `order` are the solution's cost,
// cardinality N and order.
#ifndef SYSTEMR_OPTIMIZER_JOIN_ENUMERATOR_H_
#define SYSTEMR_OPTIMIZER_JOIN_ENUMERATOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/status.h"
#include "optimizer/planner_context.h"

namespace systemr {

class JoinEnumerator {
 public:
  struct Options {
    /// §5 heuristic: only consider join orders with a join predicate linking
    /// the new inner relation to the joined set (Cartesian products last).
    bool cartesian_heuristic = true;
    /// Keep per-order solutions; off = keep only the cheapest per subset
    /// (ablation: forces re-sorts before merges and ORDER BY).
    bool use_interesting_orders = true;
    /// The join methods the DP extend step may use. Nested loop still joins
    /// a relation that no equi predicate links to the joined set, whatever
    /// these say, so the enumeration stays complete; a single enabled
    /// method is how tests and fuzz_driver --join-method force one.
    bool enable_merge_join = true;
    bool enable_nested_loop = true;
    /// Hash join as a third method (and hash aggregation above the join,
    /// forced when hash join is the only method enabled): off reverts to
    /// the paper's two-method §5 enumeration (ablation).
    bool enable_hash_join = true;
  };

  /// Searches the block of `ctx`, which must outlive the enumerator.
  JoinEnumerator(const PlannerContext& ctx, Options options)
      : ctx_(ctx), options_(options) {}

  /// Builds the full search tree up to the all-relations subset.
  Status Run();

  /// Solutions stored for one subset (Figs. 3-6 dumps and tests).
  const std::vector<PlanRef>& SolutionsFor(uint32_t mask) const;

  /// The final plan: cheapest complete solution delivering `required` —
  /// either directly or as cheapest-overall plus a sort (§4/§5). `sort_keys`
  /// gives the executor sort keys for the required order (block-row offsets).
  StatusOr<PlanRef> Best(const OrderSpec& required,
                         const std::vector<SortKey>& sort_keys) const;

  // --- Search statistics (§7 claims: E8) ---
  size_t solutions_stored() const;
  size_t solutions_generated() const { return solutions_generated_; }
  size_t subsets_expanded() const { return subsets_expanded_; }
  size_t ApproxBytes() const;

  const std::vector<OrderSpec>& interesting_orders() const {
    return interesting_;
  }

 private:
  void BuildInterestingOrders();
  /// Offers a candidate for `mask` by its cost and order. Unless a stored
  /// solution dominates it, `build()` makes its plan node, which is stored;
  /// a rejected candidate builds nothing.
  template <typename Build>
  void AddSolution(uint32_t mask, const PathCost& cost, const OrderSpec& order,
                   Build build);
  /// The order a stored solution delivers: its node's, except that without
  /// interesting orders (the ablation) a stored scan counts as unordered, so
  /// an outer or a final plan gets its order from a sort or a merge.
  const OrderSpec& OrderOf(const PlanNode& plan) const;
  bool Eligible(uint32_t mask, int t) const;

  void ExtendNestedLoop(uint32_t mask, int t);
  void ExtendMerge(uint32_t mask, int t);
  void ExtendHash(uint32_t mask, int t);

  /// True when some equi-join predicate links `t` to the joined set — the
  /// precondition for merge and hash variants (elsewhere nested loop joins
  /// `t` whatever the method switches say).
  bool HasEquiJoinWith(uint32_t mask, int t) const;

  double CompositeTupleBytes(uint32_t mask) const;

  const PlannerContext& ctx_;
  Options options_;
  std::map<uint32_t, std::vector<PlanRef>> dp_;
  std::vector<OrderSpec> interesting_;
  size_t solutions_generated_ = 0;
  size_t subsets_expanded_ = 0;
};

}  // namespace systemr

#endif  // SYSTEMR_OPTIMIZER_JOIN_ENUMERATOR_H_
