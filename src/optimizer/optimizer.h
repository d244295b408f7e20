// The OPTIMIZER (§2/§4-§6): plans a bound statement — boolean factors,
// selectivities, single-relation paths, DP join enumeration, residual
// filters, aggregation, ORDER BY — and recursively plans nested query blocks.
#ifndef SYSTEMR_OPTIMIZER_OPTIMIZER_H_
#define SYSTEMR_OPTIMIZER_OPTIMIZER_H_

#include <memory>
#include <unordered_map>

#include "catalog/catalog.h"
#include "common/status.h"
#include "optimizer/join_enumerator.h"
#include "optimizer/plan.h"

namespace systemr {

class SelectivityFeedback;

struct OptimizerOptions {
  CostParams cost;
  JoinEnumerator::Options join;
  /// Consult equi-depth column histograms (UPDATE STATISTICS). Off = the
  /// paper's pure Table 1 behavior, the before/after measurement knob.
  bool use_column_stats = true;
  /// Learned-selectivity store; the optimizer blends its observations into
  /// factor selectivities. nullptr disables the feedback loop.
  const SelectivityFeedback* feedback = nullptr;
  /// Maximum degree of parallelism for morsel-driven fragments. 1 (the
  /// default) disables the parallel post-pass entirely, keeping plans
  /// byte-identical to the serial optimizer.
  int max_dop = 1;
  /// Wrap every structurally eligible fragment in an exchange regardless of
  /// cost (fuzzing knob: exercises the parallel executor on plans the cost
  /// model would keep serial). Never changes WHAT is eligible, only whether
  /// the cheaper serial alternative is allowed to win.
  bool force_parallel = false;
};

/// Plans for every nested query block, keyed by block identity.
using SubplanMap = std::unordered_map<const BoundQueryBlock*, PlanRef>;

/// Relations a statement reads: `block`'s FROM list and that of every nested
/// block planned in `subplans`. A statement takes S on all of them before
/// its first read.
std::vector<RelId> ReadSet(const BoundQueryBlock& block,
                           const SubplanMap& subplans);

struct OptimizedQuery {
  std::unique_ptr<BoundQueryBlock> block;  // Owns all nested blocks too.
  PlanRef root;
  SubplanMap subquery_plans;
  /// The serial plan's COST and result rows (its root's `est` and
  /// `est_rows`): the parallel post-pass may put an exchange above it.
  double est_cost = 0;
  double est_rows = 0;

  /// Count of `?` host-variable markers; Execute must bind exactly this
  /// many values (§2: parameters are checked at execute time, the plan is
  /// compiled without their values).
  int num_params = 0;

  /// True once a divergence-triggered re-optimization produced this plan —
  /// the session replans a statement at most once per cached plan, so a
  /// persistent mis-estimate cannot cause replanning on every execution.
  bool feedback_replanned = false;

  // Search statistics of the top-level block (§7 claims).
  size_t solutions_stored = 0;
  size_t solutions_generated = 0;
  size_t search_bytes = 0;
};

class Optimizer {
 public:
  explicit Optimizer(const Catalog* catalog, OptimizerOptions options = {})
      : catalog_(catalog), options_(options) {}

  /// Full access path selection for a bound statement.
  StatusOr<OptimizedQuery> Optimize(
      std::unique_ptr<BoundQueryBlock> block) const;

  /// Plans one block (recursively planning its subqueries into `subplans`);
  /// the root's `est` is the block's estimate. `stats_sink`, if given,
  /// receives the block's enumeration statistics.
  StatusOr<PlanRef> PlanBlock(const BoundQueryBlock& block,
                              SubplanMap* subplans,
                              OptimizedQuery* stats_sink = nullptr) const;

  /// Shared plan-top construction over the join phase's plan `join_root`,
  /// from its `est`, `est_rows` and `order`: residual filter for the
  /// context's leftover factors (subquery/correlated predicates),
  /// aggregation, output ORDER BY sort, projection. Used by the DP optimizer
  /// and by the baselines, so all strategies produce directly comparable
  /// full plans.
  ///
  /// `use_hash_aggregate` switches the aggregation node to kHashAggregate
  /// over unordered input; the join phase then need not deliver the GROUP BY
  /// order, but any ORDER BY must be re-established by an output sort. The
  /// baselines never set it (they always sort to the required order first).
  StatusOr<PlanRef> FinishBlockPlan(const PlannerContext& ctx,
                                    PlanRef join_root, SubplanMap* subplans,
                                    bool use_hash_aggregate = false) const;

  /// Recursively plans every nested query block inside `e` into `subplans`
  /// (used for SELECT filters and for DML WHERE clauses).
  Status PlanSubqueries(const BoundExpr& e, SubplanMap* subplans) const;

  /// The order specification the join phase must deliver: GROUP BY when
  /// aggregating, else ORDER BY. Also emits the matching executor sort keys.
  static OrderSpec RequiredOrder(const BoundQueryBlock& block,
                                 OrderClasses* classes,
                                 std::vector<SortKey>* sort_keys);

 private:
  static StatusOr<PlanRef> AddDistinct(const PlannerContext& ctx,
                                       PlanRef input, PathCost* est,
                                       double rows);

  const Catalog* catalog_;
  OptimizerOptions options_;
};

}  // namespace systemr

#endif  // SYSTEMR_OPTIMIZER_OPTIMIZER_H_
