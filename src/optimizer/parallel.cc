#include "optimizer/parallel.h"

#include <algorithm>
#include <vector>

#include "exec/parallel/morsel.h"

namespace systemr {

namespace {

/// Plan-top kinds that stay serial above the exchange: they either need the
/// whole input (sort, final aggregation) or may hold subquery / correlated
/// predicates (the leftover-factor filter), which evaluate against
/// per-statement state the workers don't share.
bool IsSerialTop(PlanKind kind) {
  switch (kind) {
    case PlanKind::kProject:
    case PlanKind::kSort:
    case PlanKind::kFilter:
    case PlanKind::kAggregate:
    case PlanKind::kHashAggregate:
      return true;
    default:
      return false;
  }
}

bool ResidualsSubqueryFree(const std::vector<const BoundExpr*>& residual) {
  for (const BoundExpr* e : residual) {
    if (e != nullptr && e->HasSubquery()) return false;
  }
  return true;
}

/// The fragment's driving segment scan — the left-deep leaf whose pages the
/// morsel dispenser partitions — or null when the fragment shape is not
/// parallelizable. Eligible shapes: a plain segment scan, optionally under a
/// chain of nested-loop joins (inner scans re-bind per outer row in each
/// worker privately) and/or hash joins (the build side runs once, serially,
/// before the workers start; only the probe spine parallelizes).
const PlanNode* FragmentDrivingScan(const PlanNode* n) {
  switch (n->kind) {
    case PlanKind::kSegScan:
      return n;
    case PlanKind::kNestedLoopJoin:
    case PlanKind::kHashJoin:
      if (!ResidualsSubqueryFree(n->residual)) return nullptr;
      return n->left == nullptr ? nullptr : FragmentDrivingScan(n->left.get());
    default:
      // Index-scan leaves (no page ranges to split), merge joins (order
      // contracts), and anything already serial-top stop the fragment.
      return nullptr;
  }
}

/// True when a hash aggregation can be absorbed into the exchange as a
/// per-worker partial aggregation: its expressions must be subquery-free
/// (workers can't share subquery caches or ancestor rows).
bool CanAbsorbAggregate(const PlanNode& agg) {
  for (const BoundExpr* e : agg.agg_select) {
    if (e != nullptr && e->HasSubquery()) return false;
  }
  return agg.having == nullptr || !agg.having->HasSubquery();
}

}  // namespace

PlanRef ParallelizePlan(PlanRef root, const OptimizerOptions& options) {
  if (root == nullptr || options.max_dop <= 1) return root;

  // Walk the serial top of the plan down to the fragment root.
  std::vector<const PlanNode*> chain;  // Serial ancestors, top first.
  const PlanNode* frag = root.get();
  PlanRef frag_ref = root;
  while (frag != nullptr && IsSerialTop(frag->kind)) {
    chain.push_back(frag);
    frag_ref = frag->left;
    frag = frag_ref.get();
  }
  if (frag == nullptr) return root;

  const PlanNode* driving = FragmentDrivingScan(frag);
  if (driving == nullptr) return root;
  // Defensive: a fragment delivering an interesting order must stay serial
  // (morsel interleaving destroys it). Left-deep spines over a segment scan
  // never carry one today.
  if (!frag->order.empty()) return root;

  // Absorb a hash aggregation sitting directly above the fragment: workers
  // then fold their morsels into private group tables merged at the barrier,
  // instead of shipping every pre-aggregation row through the exchange.
  const PlanNode* absorbed_agg = nullptr;
  if (!chain.empty() && chain.back()->kind == PlanKind::kHashAggregate &&
      CanAbsorbAggregate(*chain.back())) {
    absorbed_agg = chain.back();
    chain.pop_back();
  }

  // The work being divided (and the rows crossing the barrier) are those of
  // the absorbed aggregation when present, else the fragment itself.
  const PlanNode* priced = absorbed_agg != nullptr ? absorbed_agg : frag;
  double rows_out = priced->est_rows;

  // A worker can never hold more than one morsel, so dop beyond the morsel
  // count only adds startup cost. The driving scan's predicted pages are
  // its TCARD/P page count; unloaded tables get a nominal guess.
  size_t morsels =
      MorselCountForPages(driving->scan.table != nullptr &&
                                  driving->est.pages > 0
                              ? driving->est.pages
                              : 64.0);
  int max_dop = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(options.max_dop), std::max<size_t>(1, morsels)));

  CostModel model(options.cost);
  int best_dop = 1;
  PathCost best = priced->est;
  for (int d = 2; d <= max_dop; ++d) {
    PathCost c = model.ParallelFragmentCost(priced->est, rows_out, d);
    if (c.cost < best.cost) {
      best = c;
      best_dop = d;
    }
  }
  if (best_dop <= 1 && !options.force_parallel) return root;
  if (options.force_parallel && best_dop <= 1) {
    // Fuzzing mode: run the parallel machinery even when it costs more.
    best_dop = std::max(max_dop, 1);
    best = model.ParallelFragmentCost(priced->est, rows_out, best_dop);
  }

  // Morsel interleaving: no order survives the exchange.
  auto exchange = NewPlanNode(PlanKind::kExchange, frag_ref, best, rows_out);
  exchange->dop = best_dop;
  exchange->driving_scan = driving;
  if (absorbed_agg != nullptr) {
    exchange->exchange_partial_agg = true;
    exchange->group_offsets = absorbed_agg->group_offsets;
    exchange->agg_select = absorbed_agg->agg_select;
    exchange->having = absorbed_agg->having;
  }

  // Re-root: copy the remaining serial ancestors above the exchange (plan
  // nodes are shared between cached solutions, so splicing must not mutate).
  PlanRef rebuilt = exchange;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    auto copy = std::make_shared<PlanNode>(**it);
    copy->left = rebuilt;
    rebuilt = copy;
  }
  return rebuilt;
}

}  // namespace systemr
