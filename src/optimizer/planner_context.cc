#include "optimizer/planner_context.h"

#include "optimizer/feedback.h"

namespace systemr {

PlannerContext::PlannerContext(const Catalog* catalog,
                               const BoundQueryBlock& query_block,
                               const CostParams& cost_params,
                               bool use_column_stats,
                               const SelectivityFeedback* feedback)
    : block(&query_block),
      catalog(catalog),
      cost(cost_params),
      sel(catalog, &query_block, use_column_stats),
      factors(ExtractBooleanFactors(query_block)) {
  for (BooleanFactor& f : factors) {
    f.model_selectivity = sel.FactorSelectivity(*f.expr);
    f.selectivity = f.model_selectivity;
    if (feedback != nullptr && !f.has_subquery && !f.correlated) {
      f.signature = FactorSignature(*f.expr, query_block);
      if (auto learned = feedback->Lookup(f.signature)) {
        f.selectivity = ClampSelectivity(SelectivityFeedback::Blend(
            f.model_selectivity, learned->selectivity, learned->n));
      }
    }
    if (f.join.has_value() && f.join->is_equi()) {
      classes.Union(f.join->t1, f.join->c1, f.join->t2, f.join->c2);
    }
  }
}

double PlannerContext::Rows(uint32_t mask) const {
  auto it = rows_cache_.find(mask);
  if (it != rows_cache_.end()) return it->second;
  double rows = 1.0;
  for (size_t t = 0; t < block->tables.size(); ++t) {
    if ((mask >> t) & 1) rows *= sel.TableCardinality(static_cast<int>(t));
  }
  for (const BooleanFactor& f : factors) {
    if (f.has_subquery || f.correlated) continue;
    if (f.tables_mask != 0 && SubsetOf(f.tables_mask, mask)) {
      rows *= f.selectivity;
    }
  }
  rows_cache_[mask] = rows;
  return rows;
}

bool PlannerContext::Connected(uint32_t mask, int t) const {
  for (const BooleanFactor& f : factors) {
    if (!f.join.has_value()) continue;
    const JoinPredInfo& j = *f.join;
    if ((j.t1 == t && ((mask >> j.t2) & 1)) ||
        (j.t2 == t && ((mask >> j.t1) & 1))) {
      return true;
    }
  }
  return false;
}

std::vector<const BoundExpr*> PlannerContext::NewResiduals(
    uint32_t mask, int t, bool all_simple_joins_handled,
    const JoinPredInfo* merge_pred) const {
  std::vector<const BoundExpr*> out;
  uint32_t self = 1u << t;
  uint32_t combined = mask | self;
  for (const BooleanFactor& f : factors) {
    if (f.has_subquery || f.correlated) continue;
    // Newly applicable: references t and only tables now joined, and spans
    // more than just t (single-table predicates were applied at the scan).
    if ((f.tables_mask & self) == 0) continue;
    if (!SubsetOf(f.tables_mask, combined)) continue;
    if (f.tables_mask == self) continue;
    if (f.join.has_value()) {
      if (all_simple_joins_handled) continue;  // Applied as dynamic SARGs.
      if (merge_pred != nullptr) {
        const JoinPredInfo o = f.join->OrientedFor(t);
        if (o.c1 == merge_pred->c1 && o.t2 == merge_pred->t2 &&
            o.c2 == merge_pred->c2 && o.op == merge_pred->op) {
          continue;  // The merge equality itself.
        }
      }
    }
    out.push_back(f.expr);
  }
  return out;
}

std::vector<const BooleanFactor*> PlannerContext::Leftovers() const {
  std::vector<const BooleanFactor*> out;
  for (const BooleanFactor& f : factors) {
    if (f.has_subquery || f.correlated || f.tables_mask == 0) {
      out.push_back(&f);
    }
  }
  return out;
}

}  // namespace systemr
