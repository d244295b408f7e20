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
                                 const OrderSpec& order, Build build) {
  ++solutions_generated_;
  std::vector<PlanRef>& list = dp_[mask];
  if (!options_.use_interesting_orders) {
    // Keep the single cheapest solution (order is never reused).
    if (!list.empty() && !(cost.cost < list[0]->est.cost)) return;
    list.clear();
  } else {
    uint64_t covered = CoveredOrders(order, interesting_);
    // Dominated by an existing solution?
    for (const PlanRef& s : list) {
      uint64_t c = CoveredOrders(s->order, interesting_);
      if (s->est.cost <= cost.cost && (covered & ~c) == 0) return;
    }
    // Remove solutions the new one dominates.
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](const PlanRef& s) {
                                uint64_t c =
                                    CoveredOrders(s->order, interesting_);
                                return cost.cost <= s->est.cost &&
                                       (c & ~covered) == 0;
                              }),
               list.end());
  }
  list.push_back(build());
}

const OrderSpec& JoinEnumerator::OrderOf(const PlanNode& plan) const {
  static const OrderSpec kUnordered;
  bool scan = plan.kind == PlanKind::kSegScan ||
              plan.kind == PlanKind::kIndexScan;
  return scan && !options_.use_interesting_orders ? kUnordered : plan.order;
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
  for (size_t t = 0; t < n; ++t) {
    const std::vector<PlanRef>& paths =
        ctx_.AccessPaths(static_cast<int>(t), 0);
    std::vector<bool> pruned = PrunedAccessPaths(paths, interesting_);
    for (size_t i = 0; i < paths.size(); ++i) {
      if (pruned[i]) continue;
      const PlanRef& p = paths[i];
      AddSolution(1u << t, p->est, OrderOf(*p), [&p] { return p; });
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
  PlanRef inner = CheapestPath(ctx_.AccessPaths(t, mask));
  if (inner == nullptr) return;
  std::vector<const BoundExpr*> residual =
      ctx_.NewResiduals(mask, t, /*all_simple_joins_handled=*/true, nullptr);

  for (const PlanRef& outer : dp_[mask]) {
    // C-nested-loop-join = C-outer + N * C-inner (§5); the outer composite's
    // order is preserved.
    PathCost cost = ctx_.cost.JoinCost(outer->est, n_outer, inner->est);
    const OrderSpec& order = OrderOf(*outer);
    AddSolution(combined, cost, order, [&] {
      return NewJoinNode(PlanKind::kNestedLoopJoin, outer, inner,
                         block.tables[t], residual, cost, rows, order);
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
      PlanRef index_path;  // (a), or null for (b)'s sorted inner.
      PathCost setup;      // One-time (sorting into a temp list).
      PathCost per_probe;  // C-inner.
    };
    std::vector<InnerVariant> inners;

    // (a) An index on the join column provides the inner in join-column
    // order directly (Fig. 5's "Merge E.DNO D.DNO" with both indexes). The
    // merging-scans method synchronizes the two ordered streams, so the
    // inner is read exactly once with only its local predicates applied —
    // costed as one full ordered scan (setup) with no per-probe charge.
    for (const PlanRef& p : ctx_.AccessPaths(t, 0)) {
      if (p->kind != PlanKind::kIndexScan) continue;
      if (!OrderSatisfies(p->order, required)) continue;
      inners.push_back({p, p->est, PathCost{}});
    }

    // (b) Sort the inner into a temporary list (C-inner(sorted list), §5).
    PlanRef cheapest = CheapestPath(SolutionsFor(1u << t));
    double inner_rows = std::max(ctx_.Rows(1u << t), 1.0);
    PlanRef sorted_inner;  // Built for the first stored candidate using it.
    if (cheapest != nullptr) {
      double bytes = CostModel::TupleBytes(*block.tables[t].table);
      double temppages = ctx_.cost.TempPages(inner_rows, bytes);
      double rsicard_group = inner_rows * f.selectivity;
      inners.push_back(
          {nullptr, ctx_.cost.SortCost(cheapest->est, inner_rows, bytes),
           ctx_.cost.SortedInnerPerProbe(temppages, n_outer, rsicard_group)});
    }
    if (inners.empty()) continue;

    double outer_bytes = CompositeTupleBytes(mask);
    for (const PlanRef& outer : dp_[mask]) {
      // The outer as-is if ordered on the join class, else sorted. Either
      // way the merge output is ordered by the join column class; the outer
      // order (which starts with that class) is preserved.
      bool sort_outer = !OrderSatisfies(OrderOf(*outer), required);
      PathCost outer_cost =
          sort_outer ? ctx_.cost.SortCost(outer->est, n_outer, outer_bytes)
                     : outer->est;
      const OrderSpec& order = sort_outer ? required : OrderOf(*outer);
      PlanRef sorted_outer;  // Built for the first stored candidate using it.

      for (const InnerVariant& iv : inners) {
        PathCost cost =
            iv.setup + ctx_.cost.JoinCost(outer_cost, n_outer, iv.per_probe);
        AddSolution(combined, cost, order, [&] {
          if (sort_outer && sorted_outer == nullptr) {
            sorted_outer = NewSortNode(outer, {SortKey{outer_off, true}},
                                       required, outer_cost, n_outer);
          }
          if (iv.index_path == nullptr && sorted_inner == nullptr) {
            sorted_inner = NewSortNode(cheapest, {SortKey{inner_off, true}},
                                       required, iv.setup, inner_rows);
          }
          return NewJoinNode(
              PlanKind::kMergeJoin, sort_outer ? sorted_outer : outer,
              iv.index_path != nullptr ? iv.index_path : sorted_inner,
              block.tables[t], residual, cost, rows, order, outer_off,
              inner_off);
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
  PlanRef build = CheapestPath(SolutionsFor(1u << t));
  if (build == nullptr) return;
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

    for (const PlanRef& outer : dp_[mask]) {
      PathCost cost = ctx_.cost.HashJoinCost(outer->est, build->est, n_outer,
                                             n_inner, rows, build_pages);
      // Hash join delivers no interesting order: rows come out in probe
      // order, but the optimizer must not rely on it (§5's order bookkeeping
      // treats the hash output as unordered).
      AddSolution(combined, cost, OrderSpec{}, [&] {
        return NewJoinNode(PlanKind::kHashJoin, outer, build, block.tables[t],
                           residual, cost, rows, OrderSpec{}, outer_off,
                           inner_off);
      });
    }
  }
}

const std::vector<PlanRef>& JoinEnumerator::SolutionsFor(
    uint32_t mask) const {
  static const std::vector<PlanRef>* empty = new std::vector<PlanRef>();
  auto it = dp_.find(mask);
  return it == dp_.end() ? *empty : it->second;
}

StatusOr<PlanRef> JoinEnumerator::Best(
    const OrderSpec& required, const std::vector<SortKey>& sort_keys) const {
  uint32_t full = (1u << ctx_.block->tables.size()) - 1;
  const std::vector<PlanRef>& solutions = SolutionsFor(full);
  PlanRef cheapest = CheapestPath(solutions);
  if (cheapest == nullptr) return Status::Internal("no complete solution");
  if (required.empty()) return cheapest;

  const PlanRef* cheapest_ordered = nullptr;
  for (const PlanRef& s : solutions) {
    if (OrderSatisfies(OrderOf(*s), required) &&
        (cheapest_ordered == nullptr ||
         s->est.cost < (*cheapest_ordered)->est.cost)) {
      cheapest_ordered = &s;
    }
  }
  // "The cheapest solution with the correct order, unless it is more
  // expensive than the cheapest unordered solution plus a sort" (§5).
  PathCost sorted_cost =
      ctx_.cost.SortCost(cheapest->est, std::max(cheapest->est_rows, 1.0),
                         CompositeTupleBytes(full));
  if (cheapest_ordered != nullptr &&
      (*cheapest_ordered)->est.cost <= sorted_cost.cost) {
    return *cheapest_ordered;
  }
  return PlanRef(NewSortNode(cheapest, sort_keys, required, sorted_cost,
                             cheapest->est_rows));
}

size_t JoinEnumerator::solutions_stored() const {
  size_t n = 0;
  for (const auto& [mask, sols] : dp_) n += sols.size();
  return n;
}

size_t JoinEnumerator::ApproxBytes() const {
  // Each stored solution is its plan node and that node's order keys; the
  // nodes beneath it are shared with other solutions and access paths.
  size_t bytes = 0;
  for (const auto& [mask, sols] : dp_) {
    for (const PlanRef& s : sols) {
      bytes += sizeof(PlanRef) + sizeof(PlanNode) +
               s->order.size() * sizeof(OrderKey);
    }
  }
  return bytes;
}

}  // namespace systemr
