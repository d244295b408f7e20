#include "optimizer/optimizer.h"

#include <algorithm>

#include "optimizer/parallel.h"

namespace systemr {

namespace {

/// Expected GROUP BY group count: product of the grouping columns' distinct
/// counts when statistics know them, capped by the input cardinality; the
/// old rows/10 guess otherwise.
double EstimateGroups(const SelectivityEstimator& sel,
                      const BoundQueryBlock& block, double rows) {
  if (block.group_by.empty()) return 1.0;
  double product = 1.0;
  bool known = true;
  for (const BoundOrderItem& g : block.group_by) {
    double d = sel.DistinctCount(g.table_idx, g.column);
    if (d <= 0) {
      known = false;
      break;
    }
    product *= d;
  }
  double groups = known ? product : rows / 10.0;
  return std::max(1.0, std::min(groups, std::max(rows, 1.0)));
}

}  // namespace

OrderSpec Optimizer::RequiredOrder(const BoundQueryBlock& block,
                                   OrderClasses* classes,
                                   std::vector<SortKey>* sort_keys) {
  OrderSpec required;
  sort_keys->clear();
  if (block.has_aggregates) {
    for (const BoundOrderItem& i : block.group_by) {
      required.push_back(OrderKey{classes->ClassOf(i.table_idx, i.column),
                                  true});
      sort_keys->push_back(SortKey{block.OffsetOf(i.table_idx, i.column),
                                   true});
    }
    return required;
  }
  for (const BoundOrderItem& i : block.order_by) {
    required.push_back(
        OrderKey{classes->ClassOf(i.table_idx, i.column), i.asc});
    sort_keys->push_back(
        SortKey{block.OffsetOf(i.table_idx, i.column), i.asc});
  }
  return required;
}

Status Optimizer::PlanSubqueries(const BoundExpr& e,
                                 SubplanMap* subplans) const {
  if (e.subquery != nullptr && subplans->count(e.subquery.get()) == 0) {
    ASSIGN_OR_RETURN(PlanRef sub, PlanBlock(*e.subquery, subplans));
    (*subplans)[e.subquery.get()] = std::move(sub);
  }
  for (const auto& c : e.children) {
    RETURN_IF_ERROR(PlanSubqueries(*c, subplans));
  }
  return Status::OK();
}

StatusOr<PlanRef> Optimizer::FinishBlockPlan(const PlannerContext& ctx,
                                             PlanRef join_root,
                                             SubplanMap* subplans,
                                             bool use_hash_aggregate) const {
  const BoundQueryBlock& block = *ctx.block;
  OrderSpec join_order = join_root->order;
  double rows = join_root->est_rows;
  PathCost est = join_root->est;
  PlanRef plan = std::move(join_root);

  // Residual filter: boolean factors not handled inside the join tree —
  // subquery predicates and correlated predicates (§6). Their subquery
  // blocks are planned recursively here.
  std::vector<const BoundExpr*> leftover;
  for (const BooleanFactor* f : ctx.Leftovers()) {
    leftover.push_back(f->expr);
    rows *= f->selectivity;
    RETURN_IF_ERROR(PlanSubqueries(*f->expr, subplans));
  }
  if (!leftover.empty()) {
    auto filter = NewPlanNode(PlanKind::kFilter, plan, est, rows);
    filter->residual = leftover;
    filter->order = join_order;
    plan = filter;
  }

  // Scalar subqueries in the SELECT list are planned too.
  for (const auto& item : block.select_list) {
    RETURN_IF_ERROR(PlanSubqueries(*item, subplans));
  }

  if (block.has_aggregates) {
    // Sorted-group aggregation expects input already ordered by the GROUP BY
    // columns; hash aggregation takes the input unordered and builds a group
    // table instead.
    double groups = EstimateGroups(ctx.sel, block, rows);
    est = use_hash_aggregate ? ctx.cost.HashAggregateCost(est, rows, groups)
                             : ctx.cost.PerRowCost(est, rows);
    auto agg = NewPlanNode(use_hash_aggregate ? PlanKind::kHashAggregate
                                              : PlanKind::kAggregate,
                           plan, est, groups);
    for (const BoundOrderItem& g : block.group_by) {
      agg->group_offsets.push_back(block.OffsetOf(g.table_idx, g.column));
    }
    for (const auto& item : block.select_list) {
      agg->agg_select.push_back(item.get());
    }
    if (block.having != nullptr) {
      RETURN_IF_ERROR(PlanSubqueries(*block.having, subplans));
      agg->having = block.having.get();
    }
    plan = agg;
    rows = groups;

    // ORDER BY on the aggregate output: sort by select-list positions.
    if (!block.order_by.empty()) {
      std::vector<SortKey> out_keys;
      bool needed = false;
      for (size_t i = 0; i < block.order_by.size(); ++i) {
        const BoundOrderItem& o = block.order_by[i];
        // Find the select item that is exactly this column.
        int position = -1;
        for (size_t s = 0; s < block.select_list.size(); ++s) {
          const BoundExpr* e = block.select_list[s].get();
          if (e->kind == BoundExprKind::kColumn &&
              e->outer_level == 0 && e->table_idx == o.table_idx &&
              e->column == o.column) {
            position = static_cast<int>(s);
            break;
          }
        }
        if (position < 0) {
          return Status::InvalidArgument(
              "ORDER BY column of a grouped query must appear in the SELECT "
              "list");
        }
        out_keys.push_back(SortKey{static_cast<size_t>(position), o.asc});
        // If ORDER BY is a prefix of GROUP BY (same columns, ascending), the
        // grouped output is already ordered — but only for sorted-group
        // aggregation; hash-aggregate output carries no order at all.
        if (use_hash_aggregate || i >= block.group_by.size() || !o.asc ||
            block.group_by[i].table_idx != o.table_idx ||
            block.group_by[i].column != o.column) {
          needed = true;
        }
      }
      if (needed) {
        est = est + ctx.cost.SortCost(PathCost{}, rows, 32.0);
        plan = NewSortNode(plan, std::move(out_keys), {}, est, rows);
      }
    }
  } else {
    // Plain projection.
    est = ctx.cost.PerRowCost(est, rows);
    auto project = NewPlanNode(PlanKind::kProject, plan, est, rows);
    for (const auto& item : block.select_list) {
      project->project.push_back(item.get());
    }
    project->order = join_order;
    plan = project;
  }
  if (block.distinct) {
    ASSIGN_OR_RETURN(plan, AddDistinct(ctx, plan, &est, rows));
  }
  return plan;
}

StatusOr<PlanRef> Optimizer::AddDistinct(const PlannerContext& ctx,
                                         PlanRef input, PathCost* est,
                                         double rows) {
  // Dedup by sorting the projected output on all columns — with the ORDER BY
  // columns leading, so the required output order survives the dedup sort.
  const BoundQueryBlock& block = *ctx.block;
  std::vector<SortKey> keys;
  std::vector<bool> used(block.select_list.size(), false);
  for (const BoundOrderItem& o : block.order_by) {
    int position = -1;
    for (size_t s = 0; s < block.select_list.size(); ++s) {
      const BoundExpr* e = block.select_list[s].get();
      if (e->kind == BoundExprKind::kColumn && e->outer_level == 0 &&
          e->table_idx == o.table_idx && e->column == o.column) {
        position = static_cast<int>(s);
        break;
      }
    }
    if (position < 0) {
      return Status::InvalidArgument(
          "ORDER BY column of SELECT DISTINCT must appear in the SELECT "
          "list");
    }
    if (!used[position]) {
      keys.push_back(SortKey{static_cast<size_t>(position), o.asc});
      used[position] = true;
    }
  }
  for (size_t s = 0; s < block.select_list.size(); ++s) {
    if (!used[s]) keys.push_back(SortKey{s, true});
  }
  *est = *est + ctx.cost.SortCost(PathCost{}, std::max(rows, 1.0), 32.0);
  auto sort = NewSortNode(std::move(input), std::move(keys), {}, *est,
                          std::max(1.0, rows / 2.0));
  sort->distinct = true;
  return PlanRef(sort);
}

StatusOr<PlanRef> Optimizer::PlanBlock(
    const BoundQueryBlock& block, SubplanMap* subplans,
    OptimizedQuery* stats_sink) const {
  PlannerContext ctx(catalog_, block, options_.cost,
                     options_.use_column_stats, options_.feedback);
  JoinEnumerator enumerator(ctx, options_.join);
  RETURN_IF_ERROR(enumerator.Run());

  if (stats_sink != nullptr) {
    stats_sink->solutions_stored = enumerator.solutions_stored();
    stats_sink->solutions_generated = enumerator.solutions_generated();
    stats_sink->search_bytes = enumerator.ApproxBytes();
  }

  std::vector<SortKey> sort_keys;
  OrderSpec required = RequiredOrder(block, &ctx.classes, &sort_keys);
  ASSIGN_OR_RETURN(PlanRef sorted, enumerator.Best(required, sort_keys));
  ASSIGN_OR_RETURN(PlanRef plan, FinishBlockPlan(ctx, sorted, subplans));

  // Grouped aggregation has a second strategy: hash-aggregate over the
  // cheapest *unordered* join solution, trading the GROUP BY sort for W per
  // row hashed. Both plan tops are built, each with the output sort its
  // ORDER BY needs, and the cheaper root wins; a tie keeps sorted groups,
  // and hash join as the only enabled method forces hashing.
  const JoinEnumerator::Options& join = options_.join;
  if (block.has_aggregates && !block.group_by.empty() &&
      join.enable_hash_join) {
    ASSIGN_OR_RETURN(PlanRef unordered, enumerator.Best({}, {}));
    ASSIGN_OR_RETURN(PlanRef hashed,
                     FinishBlockPlan(ctx, unordered, subplans,
                                     /*use_hash_aggregate=*/true));
    bool hash_only = !join.enable_nested_loop && !join.enable_merge_join;
    if (hash_only || hashed->est.cost < plan->est.cost) plan = hashed;
  }
  return plan;
}

std::vector<RelId> ReadSet(const BoundQueryBlock& block,
                           const SubplanMap& subplans) {
  std::vector<RelId> rels;
  for (const BoundTable& bt : block.tables) rels.push_back(bt.table->id);
  for (const auto& [sub, plan] : subplans) {
    for (const BoundTable& bt : sub->tables) rels.push_back(bt.table->id);
  }
  return rels;
}

StatusOr<OptimizedQuery> Optimizer::Optimize(
    std::unique_ptr<BoundQueryBlock> block) const {
  OptimizedQuery out;
  ASSIGN_OR_RETURN(PlanRef plan, PlanBlock(*block, &out.subquery_plans, &out));
  out.block = std::move(block);
  out.est_cost = plan->est.cost;
  out.est_rows = plan->est_rows;
  // Parallel post-pass on the top-level plan only: DML takes its scan
  // straight from its context's access paths and nested blocks go through
  // PlanBlock, so neither can pick up an exchange.
  out.root = ParallelizePlan(std::move(plan), options_);
  return out;
}

}  // namespace systemr
