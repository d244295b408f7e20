#include "optimizer/baseline.h"

#include <algorithm>

#include "optimizer/access_path_gen.h"

namespace systemr {

namespace {

PlanRef PickPath(const std::vector<PlanRef>& paths, bool segment_only) {
  if (!segment_only) return CheapestPath(paths);
  for (const PlanRef& p : paths) {
    if (p->kind == PlanKind::kSegScan) return p;
  }
  return nullptr;
}

}  // namespace

const char* BaselineName(BaselineKind kind) {
  switch (kind) {
    case BaselineKind::kSyntacticNestedLoop:
      return "syntactic nested-loop";
    case BaselineKind::kGreedy:
      return "greedy smallest-intermediate";
  }
  return "?";
}

StatusOr<OptimizedQuery> OptimizeBaseline(
    const Catalog* catalog, std::unique_ptr<BoundQueryBlock> block,
    BaselineKind kind, OptimizerOptions options) {
  Optimizer optimizer(catalog, options);
  const BoundQueryBlock& b = *block;
  // Baselines plan on model selectivities alone: no feedback store.
  PlannerContext ctx(catalog, b, options.cost, options.use_column_stats,
                     /*feedback=*/nullptr);

  size_t n = b.tables.size();
  const bool segment_only = kind == BaselineKind::kSyntacticNestedLoop;

  // Choose the join order.
  std::vector<int> order;
  if (kind == BaselineKind::kSyntacticNestedLoop) {
    for (size_t t = 0; t < n; ++t) order.push_back(static_cast<int>(t));
  } else {
    // Greedy: smallest filtered relation first, then smallest intermediate.
    uint32_t mask = 0;
    int first = 0;
    double best = -1;
    for (size_t t = 0; t < n; ++t) {
      double r = ctx.Rows(1u << t);
      if (best < 0 || r < best) {
        best = r;
        first = static_cast<int>(t);
      }
    }
    order.push_back(first);
    mask = 1u << first;
    while (order.size() < n) {
      int pick = -1;
      double pick_rows = -1;
      bool any_connected = false;
      for (size_t t = 0; t < n; ++t) {
        if ((mask >> t) & 1) continue;
        if (ctx.Connected(mask, static_cast<int>(t))) any_connected = true;
      }
      for (size_t t = 0; t < n; ++t) {
        if ((mask >> t) & 1) continue;
        if (any_connected && !ctx.Connected(mask, static_cast<int>(t))) {
          continue;  // Defer Cartesian products, like the real optimizer.
        }
        double r = ctx.Rows(mask | (1u << t));
        if (pick < 0 || r < pick_rows) {
          pick = static_cast<int>(t);
          pick_rows = r;
        }
      }
      order.push_back(pick);
      mask |= 1u << pick;
    }
  }

  // Build the left-deep nested-loop plan along `order`.
  PlanRef plan = PickPath(ctx.AccessPaths(order[0], 0), segment_only);
  if (plan == nullptr) {
    return Status::Internal("no access path for first relation");
  }
  PathCost est = plan->est;
  uint32_t mask = 1u << order[0];
  double rows = plan->est_rows;

  for (size_t i = 1; i < n; ++i) {
    int t = order[i];
    PlanRef inner = PickPath(ctx.AccessPaths(t, mask), segment_only);
    if (inner == nullptr) {
      return Status::Internal("no access path for inner relation");
    }
    std::vector<const BoundExpr*> residual =
        ctx.NewResiduals(mask, t, /*all_simple_joins_handled=*/true, nullptr);
    est = ctx.cost.JoinCost(est, std::max(rows, 1.0), inner->est);
    mask |= 1u << t;
    rows = ctx.Rows(mask);
    plan = NewJoinNode(PlanKind::kNestedLoopJoin, plan, std::move(inner),
                       b.tables[t], std::move(residual), est, rows, {});
  }

  // Baselines do not track orders: sort whenever an order is required.
  std::vector<SortKey> sort_keys;
  OrderSpec required = Optimizer::RequiredOrder(b, &ctx.classes, &sort_keys);
  if (!required.empty()) {
    double bytes = 0;
    for (size_t t = 0; t < n; ++t) {
      bytes += CostModel::TupleBytes(*b.tables[t].table);
    }
    est = ctx.cost.SortCost(est, std::max(rows, 1.0), bytes);
    plan = NewSortNode(plan, std::move(sort_keys), required, est, rows);
  }

  OptimizedQuery out;
  ASSIGN_OR_RETURN(out.root,
                   optimizer.FinishBlockPlan(ctx, plan, &out.subquery_plans));
  out.block = std::move(block);
  out.est_cost = out.root->est.cost;
  out.est_rows = out.root->est_rows;
  return out;
}

}  // namespace systemr
