#include "optimizer/join_enumerator.h"

#include <algorithm>
#include <bit>

namespace systemr {

namespace {

int PopCount(uint32_t v) { return std::popcount(v); }

}  // namespace

double JoinEnumerator::CompositeTupleBytes(uint32_t mask) const {
  double bytes = 0;
  for (size_t t = 0; t < ctx_.block->tables.size(); ++t) {
    if ((mask >> t) & 1) {
      bytes += CostModel::TupleBytes(*ctx_.block->tables[t].table);
    }
  }
  return std::max(bytes, 8.0);
}

void JoinEnumerator::BuildInterestingOrders() {
  if (!options_.use_interesting_orders) return;
  auto add = [&](OrderSpec spec) {
    if (spec.empty()) return;
    for (const OrderSpec& existing : interesting_) {
      if (existing == spec) return;
    }
    interesting_.push_back(std::move(spec));
  };
  // ORDER BY and GROUP BY specifications (§4).
  OrderSpec order_by;
  for (const BoundOrderItem& i : ctx_.block->order_by) {
    order_by.push_back(
        OrderKey{ctx_.classes.ClassOf(i.table_idx, i.column), i.asc});
  }
  add(order_by);
  OrderSpec group_by;
  for (const BoundOrderItem& i : ctx_.block->group_by) {
    group_by.push_back(
        OrderKey{ctx_.classes.ClassOf(i.table_idx, i.column), true});
  }
  add(group_by);
  // "Also every join column defines an interesting order" (§5).
  for (const BooleanFactor& f : ctx_.factors) {
    if (f.join.has_value() && f.join->is_equi()) {
      add({OrderKey{ctx_.classes.ClassOf(f.join->t1, f.join->c1), true}});
    }
  }
}

template <typename Build>
void JoinEnumerator::AddSolution(uint32_t mask, const PathCost& cost,
                                 double rows, const OrderSpec& order,
                                 Build build) {
  ++solutions_generated_;
  std::vector<JoinSolution>& list = dp_[mask];
  if (!options_.use_interesting_orders) {
    // Keep the single cheapest solution (order is never reused).
    if (!list.empty() && !(cost.cost < list[0].cost.cost)) return;
    list.clear();
  } else {
    uint64_t covered = CoveredOrders(order, interesting_);
    // Dominated by an existing solution?
    for (const JoinSolution& s : list) {
      uint64_t c = CoveredOrders(s.order, interesting_);
      if (s.cost.cost <= cost.cost && (covered & ~c) == 0) return;
    }
    // Remove solutions the new one dominates.
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](const JoinSolution& s) {
                                uint64_t c =
                                    CoveredOrders(s.order, interesting_);
                                return cost.cost <= s.cost.cost &&
                                       (c & ~covered) == 0;
                              }),
               list.end());
  }
  JoinSolution solution;
  solution.mask = mask;
  solution.cost = cost;
  solution.rows = rows;
  solution.order = order;
  build(&solution);
  list.push_back(std::move(solution));
}

bool JoinEnumerator::Eligible(uint32_t mask, int t) const {
  if ((mask >> t) & 1) return false;
  if (!options_.cartesian_heuristic) return true;
  if (ctx_.Connected(mask, t)) return true;
  // Cartesian products are deferred: only allowed if NO remaining relation
  // has a join predicate with the joined set.
  for (size_t u = 0; u < ctx_.block->tables.size(); ++u) {
    if (((mask >> u) & 1) == 0 && ctx_.Connected(mask, static_cast<int>(u))) {
      return false;
    }
  }
  return true;
}

Status JoinEnumerator::Run() {
  const BoundQueryBlock& block = *ctx_.block;
  size_t n = block.tables.size();
  BuildInterestingOrders();

  // Level 1: single-relation access paths (Fig. 2/3).
  static const OrderSpec kUnordered;
  for (size_t t = 0; t < n; ++t) {
    const std::vector<AccessPath>& paths =
        ctx_.AccessPaths(static_cast<int>(t), 0);
    std::vector<bool> pruned = PrunedAccessPaths(paths, interesting_);
    uint32_t mask = 1u << t;
    double rows = ctx_.Rows(mask);
    for (size_t i = 0; i < paths.size(); ++i) {
      if (pruned[i]) continue;
      const AccessPath& p = paths[i];
      AddSolution(mask, p.cost, rows,
                  options_.use_interesting_orders ? p.order : kUnordered,
                  [&p](JoinSolution* s) {
                    s->plan = p.node;
                    s->describe = p.describe;
                  });
    }
  }
  if (n == 1) return Status::OK();

  // Levels 2..n: extend every subset by one eligible relation (left-deep).
  uint32_t full = (1u << n) - 1;
  for (int level = 1; level < static_cast<int>(n); ++level) {
    // Collect masks of this size first: AddSolution mutates dp_.
    std::vector<uint32_t> masks;
    for (const auto& [mask, sols] : dp_) {
      if (PopCount(mask) == level && !sols.empty()) masks.push_back(mask);
    }
    for (uint32_t mask : masks) {
      ++subsets_expanded_;
      for (size_t t = 0; t < n; ++t) {
        int inner = static_cast<int>(t);
        if (!Eligible(mask, inner)) continue;
        // Nested loop also joins what no equi predicate links, so a
        // disabled method never loses DP completeness.
        if (options_.enable_nested_loop || !HasEquiJoinWith(mask, inner)) {
          ExtendNestedLoop(mask, inner);
        }
        if (options_.enable_merge_join) ExtendMerge(mask, inner);
        if (options_.enable_hash_join) ExtendHash(mask, inner);
      }
    }
  }
  if (dp_.find(full) == dp_.end() || dp_[full].empty()) {
    return Status::Internal("join enumeration produced no complete solution");
  }
  return Status::OK();
}

void JoinEnumerator::ExtendNestedLoop(uint32_t mask, int t) {
  const BoundQueryBlock& block = *ctx_.block;
  uint32_t combined = mask | (1u << t);
  double n_outer = std::max(ctx_.Rows(mask), 1.0);
  double rows = ctx_.Rows(combined);

  // Inner order is irrelevant for NL: only the cheapest inner path competes.
  const AccessPath* inner = CheapestPath(ctx_.AccessPaths(t, mask));
  if (inner == nullptr) return;
  std::vector<const BoundExpr*> residual =
      ctx_.NewResiduals(mask, t, /*all_simple_joins_handled=*/true, nullptr);

  for (const JoinSolution& outer : dp_[mask]) {
    // C-nested-loop-join = C-outer + N * C-inner (§5); the outer composite's
    // order is preserved.
    PathCost cost = ctx_.cost.JoinCost(outer.cost, n_outer, inner->cost);
    AddSolution(combined, cost, rows, outer.order, [&](JoinSolution* s) {
      s->plan = NewJoinNode(PlanKind::kNestedLoopJoin, outer.plan,
                            inner->node, block.tables[t], residual, s->cost,
                            s->rows, s->order);
      s->describe = "NLJ(" + outer.describe + " -> " + inner->describe + ")";
    });
  }
}

void JoinEnumerator::ExtendMerge(uint32_t mask, int t) {
  const BoundQueryBlock& block = *ctx_.block;
  uint32_t combined = mask | (1u << t);
  double n_outer = std::max(ctx_.Rows(mask), 1.0);
  double rows = ctx_.Rows(combined);

  // One merge variant per equi-join predicate linking t to the joined set.
  for (const BooleanFactor& f : ctx_.factors) {
    if (!f.join.has_value() || !f.join->is_equi()) continue;
    JoinPredInfo j = *f.join;
    if (j.t1 != t && j.t2 != t) continue;
    j = j.OrientedFor(t);
    if (((mask >> j.t2) & 1) == 0) continue;

    int cls = ctx_.classes.ClassOf(j.t2, j.c2);
    OrderSpec required = {OrderKey{cls, true}};
    size_t outer_off = block.OffsetOf(j.t2, j.c2);
    size_t inner_off = block.OffsetOf(j.t1, j.c1);

    std::vector<const BoundExpr*> residual =
        ctx_.NewResiduals(mask, t, /*all_simple_joins_handled=*/false, &j);

    // Inner variants, costed here; their plans are built only for a stored
    // candidate.
    struct InnerVariant {
      const AccessPath* index_path;  // (a), or null for (b)'s sorted inner.
      PathCost setup;                // One-time (sorting into a temp list).
      PathCost per_probe;            // C-inner.
    };
    std::vector<InnerVariant> inners;

    // (a) An index on the join column provides the inner in join-column
    // order directly (Fig. 5's "Merge E.DNO D.DNO" with both indexes). The
    // merging-scans method synchronizes the two ordered streams, so the
    // inner is read exactly once with only its local predicates applied —
    // costed as one full ordered scan (setup) with no per-probe charge.
    for (const AccessPath& p : ctx_.AccessPaths(t, 0)) {
      if (p.node->kind != PlanKind::kIndexScan) continue;
      if (!OrderSatisfies(p.order, required)) continue;
      inners.push_back({&p, p.cost, PathCost{}});
    }

    // (b) Sort the inner into a temporary list (C-inner(sorted list), §5).
    const JoinSolution* cheapest = nullptr;
    double inner_rows = std::max(ctx_.Rows(1u << t), 1.0);
    PlanRef sorted_inner;  // Built for the first stored candidate using it.
    auto it = dp_.find(1u << t);
    if (it != dp_.end() && !it->second.empty()) {
      cheapest = &it->second[0];
      for (const JoinSolution& s : it->second) {
        if (s.cost.cost < cheapest->cost.cost) cheapest = &s;
      }
      double bytes = CostModel::TupleBytes(*block.tables[t].table);
      double temppages = ctx_.cost.TempPages(inner_rows, bytes);
      double rsicard_group = inner_rows * f.selectivity;
      inners.push_back(
          {nullptr, ctx_.cost.SortCost(cheapest->cost, inner_rows, bytes),
           ctx_.cost.SortedInnerPerProbe(temppages, n_outer, rsicard_group)});
    }
    if (inners.empty()) continue;

    double outer_bytes = CompositeTupleBytes(mask);
    for (const JoinSolution& outer : dp_[mask]) {
      // The outer as-is if ordered on the join class, else sorted. Either
      // way the merge output is ordered by the join column class; the outer
      // order (which starts with that class) is preserved.
      bool sort_outer = !OrderSatisfies(outer.order, required);
      PathCost outer_cost =
          sort_outer ? ctx_.cost.SortCost(outer.cost, n_outer, outer_bytes)
                     : outer.cost;
      const OrderSpec& order = sort_outer ? required : outer.order;
      PlanRef sorted_outer;  // Built for the first stored candidate using it.

      for (const InnerVariant& iv : inners) {
        PathCost cost =
            iv.setup + ctx_.cost.JoinCost(outer_cost, n_outer, iv.per_probe);
        AddSolution(combined, cost, rows, order, [&](JoinSolution* s) {
          if (sort_outer && sorted_outer == nullptr) {
            sorted_outer = NewSortNode(outer.plan, {SortKey{outer_off, true}},
                                       required, outer_cost, n_outer);
          }
          if (iv.index_path == nullptr && sorted_inner == nullptr) {
            sorted_inner =
                NewSortNode(cheapest->plan, {SortKey{inner_off, true}},
                            required, iv.setup, inner_rows);
          }
          s->plan = NewJoinNode(
              PlanKind::kMergeJoin, sort_outer ? sorted_outer : outer.plan,
              iv.index_path != nullptr ? PlanRef(iv.index_path->node)
                                       : sorted_inner,
              block.tables[t], residual, s->cost, s->rows, s->order,
              outer_off, inner_off);
          s->describe = sort_outer ? "MJ(sort(" + outer.describe + ")"
                                   : "MJ(" + outer.describe;
          s->describe += " = ";
          s->describe += iv.index_path != nullptr
                             ? "merge-inner " + iv.index_path->describe
                             : "sort(" + cheapest->describe + ") then merge";
          s->describe += ")";
        });
      }
    }
  }
}

bool JoinEnumerator::HasEquiJoinWith(uint32_t mask, int t) const {
  for (const BooleanFactor& f : ctx_.factors) {
    if (!f.join.has_value() || !f.join->is_equi()) continue;
    const JoinPredInfo& j = *f.join;
    if ((j.t1 == t && ((mask >> j.t2) & 1)) ||
        (j.t2 == t && ((mask >> j.t1) & 1))) {
      return true;
    }
  }
  return false;
}

void JoinEnumerator::ExtendHash(uint32_t mask, int t) {
  const BoundQueryBlock& block = *ctx_.block;
  uint32_t combined = mask | (1u << t);
  double n_outer = std::max(ctx_.Rows(mask), 1.0);
  double n_inner = std::max(ctx_.Rows(1u << t), 1.0);
  double rows = ctx_.Rows(combined);

  // The build side is read exactly once with only its local predicates, so
  // the cheapest single-relation path for t is always the right input.
  auto it = dp_.find(1u << t);
  if (it == dp_.end() || it->second.empty()) return;
  const JoinSolution* build = &it->second[0];
  for (const JoinSolution& s : it->second) {
    if (s.cost.cost < build->cost.cost) build = &s;
  }
  double build_pages = ctx_.cost.TempPages(
      n_inner, CostModel::TupleBytes(*block.tables[t].table));

  // One hash variant per equi-join predicate linking t to the joined set.
  for (const BooleanFactor& f : ctx_.factors) {
    if (!f.join.has_value() || !f.join->is_equi()) continue;
    JoinPredInfo j = *f.join;
    if (j.t1 != t && j.t2 != t) continue;
    j = j.OrientedFor(t);
    if (((mask >> j.t2) & 1) == 0) continue;

    size_t outer_off = block.OffsetOf(j.t2, j.c2);
    size_t inner_off = block.OffsetOf(j.t1, j.c1);
    std::vector<const BoundExpr*> residual =
        ctx_.NewResiduals(mask, t, /*all_simple_joins_handled=*/false, &j);

    for (const JoinSolution& outer : dp_[mask]) {
      PathCost cost = ctx_.cost.HashJoinCost(outer.cost, build->cost, n_outer,
                                             n_inner, rows, build_pages);
      // Hash join delivers no interesting order: rows come out in probe
      // order, but the optimizer must not rely on it (§5's order bookkeeping
      // treats the hash output as unordered).
      AddSolution(combined, cost, rows, OrderSpec{}, [&](JoinSolution* s) {
        s->plan = NewJoinNode(PlanKind::kHashJoin, outer.plan, build->plan,
                              block.tables[t], residual, s->cost, s->rows,
                              s->order, outer_off, inner_off);
        s->describe =
            "HJ(" + outer.describe + " = build " + build->describe + ")";
      });
    }
  }
}

const std::vector<JoinSolution>& JoinEnumerator::SolutionsFor(
    uint32_t mask) const {
  static const std::vector<JoinSolution>* empty =
      new std::vector<JoinSolution>();
  auto it = dp_.find(mask);
  return it == dp_.end() ? *empty : it->second;
}

StatusOr<JoinSolution> JoinEnumerator::Best(
    const OrderSpec& required, const std::vector<SortKey>& sort_keys) const {
  uint32_t full = (1u << ctx_.block->tables.size()) - 1;
  auto it = dp_.find(full);
  if (it == dp_.end() || it->second.empty()) {
    return Status::Internal("no complete solution");
  }
  const JoinSolution* cheapest = &it->second[0];
  const JoinSolution* cheapest_ordered = nullptr;
  for (const JoinSolution& s : it->second) {
    if (s.cost.cost < cheapest->cost.cost) cheapest = &s;
    if (!required.empty() && OrderSatisfies(s.order, required)) {
      if (cheapest_ordered == nullptr ||
          s.cost.cost < cheapest_ordered->cost.cost) {
        cheapest_ordered = &s;
      }
    }
  }
  if (required.empty()) return *cheapest;

  // "The cheapest solution with the correct order, unless it is more
  // expensive than the cheapest unordered solution plus a sort" (§5).
  PathCost sorted_cost = ctx_.cost.SortCost(
      cheapest->cost, std::max(cheapest->rows, 1.0), CompositeTupleBytes(full));
  if (cheapest_ordered != nullptr &&
      cheapest_ordered->cost.cost <= sorted_cost.cost) {
    return *cheapest_ordered;
  }
  JoinSolution s = *cheapest;
  s.plan = NewSortNode(cheapest->plan, sort_keys, required, sorted_cost,
                       cheapest->rows);
  s.cost = sorted_cost;
  s.order = required;
  s.describe = "sort(" + s.describe + ")";
  return s;
}

size_t JoinEnumerator::solutions_stored() const {
  size_t n = 0;
  for (const auto& [mask, sols] : dp_) n += sols.size();
  return n;
}

size_t JoinEnumerator::ApproxBytes() const {
  size_t bytes = 0;
  for (const auto& [mask, sols] : dp_) {
    for (const JoinSolution& s : sols) {
      bytes += sizeof(JoinSolution) + s.describe.size() +
               s.order.size() * sizeof(OrderKey) + 64;
    }
  }
  return bytes;
}

}  // namespace systemr
