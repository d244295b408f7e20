// Physical plans: the output of access path selection, interpreted by the
// executor. This is our stand-in for the paper's ASL (Access Specification
// Language) trees (§2).
//
// Plan nodes are immutable once built and shared between competing solutions
// in the optimizer's search tree, mirroring the paper's "tree of alternate
// path choices".
//
// Rows flowing between nodes are block-width rows (see bound_expr.h): each
// scan fills its own table's column slots; joins merge the inner table's
// columns into the outer composite row.
#ifndef SYSTEMR_OPTIMIZER_PLAN_H_
#define SYSTEMR_OPTIMIZER_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "optimizer/bound_expr.h"
#include "optimizer/cost_model.h"
#include "optimizer/order_classes.h"
#include "rss/sarg.h"

namespace systemr {

struct PlanNode;
using PlanRef = std::shared_ptr<const PlanNode>;

enum class PlanKind {
  kSegScan,
  kIndexScan,
  kSort,           // Sorts child rows by sort_keys.
  kNestedLoopJoin, // left = outer composite, right = inner scan.
  kMergeJoin,      // left = outer (ordered), right = inner (ordered).
  kHashJoin,       // left = outer (probe), right = inner (build); no order.
  kFilter,         // Residual predicates (incl. subquery predicates).
  kProject,        // Evaluates the SELECT list.
  kAggregate,      // Grouped or scalar aggregation; emits projected rows.
  kHashAggregate,  // Grouped aggregation over unordered input (hash table).
  kExchange,       // Morsel-parallel fragment barrier (left = fragment).
};

/// The value side of a search argument or index bound (§4): a compile-time
/// literal, a ? host variable bound at execute time (§2), or a column of the
/// current outer row — the nested-loop join predicate used as a search
/// argument (§5). The executor resolves every operand in one place before
/// each scan open.
struct ScanOperand {
  enum class Source { kLiteral, kParam, kOuter };
  Source source = Source::kLiteral;
  Value literal;     // kLiteral.
  size_t index = 0;  // kParam: the ? ordinal; kOuter: the block-row offset.

  static ScanOperand Literal(Value v) {
    return {Source::kLiteral, std::move(v), 0};
  }
  static ScanOperand Param(size_t ordinal) {
    return {Source::kParam, Value(), ordinal};
  }
  static ScanOperand Outer(size_t offset) {
    return {Source::kOuter, Value(), offset};
  }
  /// EXPLAIN form: the literal, `?n` (1-based) or `outer#k`.
  std::string ToString() const;
};

/// One search-argument term `column op value` (table-local column ordinal).
struct ScanTerm {
  size_t column = 0;
  CompareOp op = CompareOp::kEq;
  ScanOperand value;
};

/// One end of an index key range.
struct KeyBound {
  ScanOperand value;
  bool inclusive = true;
};

/// Everything needed to open one RSS scan on one table.
struct ScanSpec {
  int table_idx = 0;
  const TableInfo* table = nullptr;
  const IndexInfo* index = nullptr;  // Null for a segment scan.

  // Index bounds: equality bounds on the leading key columns (in key-column
  // order), then an optional range on the next key column.
  std::vector<ScanOperand> eq_bounds;
  std::optional<KeyBound> lo;
  std::optional<KeyBound> hi;

  /// Static SARGs (conjunction of DNF boolean factors; table-local columns).
  SargList sargs;
  /// SARG terms whose values are bound before each open: join predicates
  /// (outer operands), then host-variable terms (parameter operands).
  std::vector<ScanTerm> dyn_sargs;
  /// Non-sargable single-table predicates, evaluated on the block row right
  /// after this scan (no subqueries, no correlation).
  std::vector<const BoundExpr*> residual;

  // --- Selectivity-feedback annotations ---
  /// (signature, planned selectivity) per signable local factor applied by
  /// this scan; the executor's observed row count is attributed back to
  /// these signatures after execution.
  struct FeedbackTerm {
    std::string signature;
    double used_sel = 1.0;
  };
  std::vector<FeedbackTerm> feedback_terms;
  double est_base_card = 0.0;    // NCARD basis of the row estimate.
  double est_sel_used = 1.0;     // Product of local factor F's used to plan.
  double est_rows_model = -1.0;  // Rows under pure statistics (no feedback).
  bool learned_applied = false;  // Some factor used a blended selectivity.
  /// True when the scan runs exactly once per statement (it is not re-bound
  /// per outer row), so its total row count is a valid observation of its
  /// local factors' joint selectivity.
  bool feedback_eligible = false;
};

struct SortKey {
  size_t offset = 0;  // Offset into the row format flowing at this point.
  bool asc = true;
};

struct AggSpec {
  AggFunc func = AggFunc::kCount;
  const BoundExpr* arg = nullptr;  // Null for COUNT(*).
};

struct PlanNode {
  PlanKind kind = PlanKind::kSegScan;
  PlanRef left;   // Outer child / only child.
  PlanRef right;  // Inner child (joins).

  // kSegScan / kIndexScan.
  ScanSpec scan;

  // kSort.
  std::vector<SortKey> sort_keys;
  /// kSort: drop consecutive rows equal on all sort keys (SELECT DISTINCT).
  bool distinct = false;

  // kNestedLoopJoin / kMergeJoin / kHashJoin: the inner table's slot range in
  // the block row, used to merge inner columns into the composite row.
  size_t inner_offset = 0;
  size_t inner_width = 0;

  // kMergeJoin / kHashJoin: block-row offsets of the outer and inner join
  // columns (the merge equality / the hash build+probe key).
  size_t merge_outer_offset = 0;
  size_t merge_inner_offset = 0;

  // kFilter and join residual predicates.
  std::vector<const BoundExpr*> residual;

  // kProject.
  std::vector<const BoundExpr*> project;

  // kAggregate / kHashAggregate: grouping keys are block-row offsets; the
  // node evaluates the whole select list per group (group columns +
  // aggregates).
  std::vector<size_t> group_offsets;
  std::vector<const BoundExpr*> agg_select;  // The block's select list.
  const BoundExpr* having = nullptr;         // Group filter (may be null).

  // kExchange: the parallel fragment under `left` runs on `dop` workers
  // pulling page-range morsels of `driving_scan` (the fragment's left-deep
  // driving segment scan). With exchange_partial_agg the workers also fold
  // their rows into per-worker group tables (using the group_offsets /
  // agg_select / having fields above) that merge at the barrier; otherwise
  // the exchange gathers worker rows.
  int dop = 1;
  bool exchange_partial_agg = false;
  const PlanNode* driving_scan = nullptr;

  // --- Optimizer annotations (estimates) ---
  /// The cost model's page fetches, RSI calls and COST for this node and
  /// everything under it.
  PathCost est;
  double est_rows = 0.0;
  OrderSpec order;
};

/// A bare node; the access path generator fills in a scan's estimate once
/// it has costed the path.
std::shared_ptr<PlanNode> NewPlanNode(PlanKind kind);

/// A `kind` node over `input` carrying its estimate: every node above the
/// scans is built here or by the two builders below.
std::shared_ptr<PlanNode> NewPlanNode(PlanKind kind, PlanRef input,
                                      const PathCost& est, double rows);

/// A sort of `input` on `keys` that delivers `order`.
std::shared_ptr<PlanNode> NewSortNode(PlanRef input, std::vector<SortKey> keys,
                                      OrderSpec order, const PathCost& est,
                                      double rows);

/// A `kind` join of the composite `outer` with `inner`, the access to
/// `inner_table`, whose columns it merges into the composite row. A merge
/// or hash join matches the block-row offsets `outer_key` and `inner_key`;
/// `residual` holds the join's other newly applicable predicates.
std::shared_ptr<PlanNode> NewJoinNode(PlanKind kind, PlanRef outer,
                                      PlanRef inner,
                                      const BoundTable& inner_table,
                                      std::vector<const BoundExpr*> residual,
                                      const PathCost& est, double rows,
                                      OrderSpec order, size_t outer_key = 0,
                                      size_t inner_key = 0);

std::string PlanKindName(PlanKind kind);

}  // namespace systemr

#endif  // SYSTEMR_OPTIMIZER_PLAN_H_
