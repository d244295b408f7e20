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
      factors(ExtractBooleanFactors(query_block)),
      join_neighbours_(query_block.tables.size(), 0) {
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
    if (f.join.has_value()) {
      const JoinPredInfo& j = *f.join;
      join_neighbours_[j.t1] |= 1u << j.t2;
      join_neighbours_[j.t2] |= 1u << j.t1;
      if (j.is_equi()) classes.Union(j.t1, j.c1, j.t2, j.c2);
    }
  }
}

const std::vector<PlanRef>& PlannerContext::AccessPaths(
    int t, uint32_t outer) const {
  // Generation reads `outer` only through the join factors of `t` and
  // through `outer != 0`; t < kMaxBlockRelations, so the key packs in 64 bits.
  uint64_t key = (static_cast<uint64_t>(t) << 33) |
                 (static_cast<uint64_t>(outer != 0) << 32) |
                 (outer & join_neighbours_[t]);
  auto it = paths_cache_.find(key);
  if (it == paths_cache_.end()) {
    it = paths_cache_.emplace(key, GenerateAccessPaths(t, outer)).first;
  }
  return it->second;
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
