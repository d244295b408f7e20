#include "optimizer/access_path_gen.h"

#include <algorithm>
#include <cmath>

#include "optimizer/planner_context.h"

namespace systemr {

namespace {

struct ApplicablePreds {
  // Local sargable factors (DNF SARGs) and their selectivity product.
  SargList sargs;
  double f_sargable = 1.0;          // Includes dynamic join sargs.
  // Join predicates with the outer set, oriented inner-first.
  std::vector<std::pair<JoinPredInfo, double>> join_preds;  // (pred, F)
  // Local non-sargable residuals.
  std::vector<const BoundExpr*> residual;
  // Feedback bookkeeping over the local (non-join) factors: the planned and
  // pure-model selectivity products, and the signable factors' signatures.
  double f_local_used = 1.0;
  double f_local_model = 1.0;
  std::vector<ScanSpec::FeedbackTerm> feedback_terms;
  // Host-variable terms applied as dynamic SARGs, values filled at execute
  // time.
  std::vector<ScanTerm> param_sargs;
  // Factor lookup for index matching: single-term factors, and `>=` with
  // `<=` or `<` on one column (BETWEEN, LIKE prefix), with their
  // selectivities.
  struct SimpleTerm {
    const ScanTerm* term;
    double selectivity;
  };
  std::vector<SimpleTerm> simple_terms;
  struct BetweenTerm {
    const ScanTerm* lo;
    const ScanTerm* hi;
    double selectivity;
  };
  std::vector<BetweenTerm> betweens;
};

ApplicablePreds CollectPreds(const PlannerContext& ctx, int table_idx,
                             uint32_t outer_mask) {
  ApplicablePreds out;
  uint32_t self = 1u << table_idx;
  auto track_local = [&out](const BooleanFactor& f) {
    out.f_local_used *= f.selectivity;
    out.f_local_model *= f.model_selectivity;
    if (!f.signature.empty()) {
      out.feedback_terms.push_back({f.signature, f.selectivity});
    }
  };
  for (const BooleanFactor& f : ctx.factors) {
    if (f.has_subquery || f.correlated) continue;
    if (f.join.has_value()) {
      const JoinPredInfo& j = *f.join;
      uint32_t other =
          (j.t1 == table_idx) ? (1u << j.t2) : (1u << j.t1);
      if ((f.tables_mask & self) != 0 && SubsetOf(f.tables_mask, self | outer_mask) &&
          SubsetOf(other, outer_mask)) {
        out.join_preds.emplace_back(j.OrientedFor(table_idx), f.selectivity);
        out.f_sargable *= f.selectivity;
      }
      continue;
    }
    if (f.sargable && f.sarg_table == table_idx) {
      // Literal terms form the factor's static SARG; ? terms (only ever in
      // a one-conjunct factor) become dynamic SARGs.
      Sarg s;
      s.disjuncts.reserve(f.dnf.size());
      for (const std::vector<ScanTerm>& conj : f.dnf) {
        std::vector<SargTerm> literals;
        literals.reserve(conj.size());
        for (const ScanTerm& t : conj) {
          if (t.value.source == ScanOperand::Source::kLiteral) {
            literals.push_back(SargTerm{t.column, t.op, t.value.literal});
          } else {
            out.param_sargs.push_back(t);
          }
        }
        if (!literals.empty()) s.AddConjunct(std::move(literals));
      }
      if (!s.empty()) out.sargs.push_back(std::move(s));
      out.f_sargable *= f.selectivity;
      track_local(f);
      // Single-conjunct factors can bound an index scan.
      if (f.dnf.size() == 1) {
        const std::vector<ScanTerm>& conj = f.dnf[0];
        if (conj.size() == 1) {
          out.simple_terms.push_back({&conj[0], f.selectivity});
        } else if (conj.size() == 2 && conj[0].column == conj[1].column &&
                   conj[0].op == CompareOp::kGe &&
                   (conj[1].op == CompareOp::kLe ||
                    conj[1].op == CompareOp::kLt)) {
          out.betweens.push_back({&conj[0], &conj[1], f.selectivity});
        }
      }
      continue;
    }
    if (f.tables_mask == self) {
      out.residual.push_back(f.expr);
      track_local(f);
    }
  }
  return out;
}

OrderSpec IndexOrder(const PlannerContext& ctx, int table_idx,
                     const IndexInfo& index) {
  OrderSpec order;
  for (size_t col : index.key_columns) {
    order.push_back(OrderKey{ctx.classes.ClassOf(table_idx, col), true});
  }
  return order;
}

}  // namespace

uint64_t CoveredOrders(const OrderSpec& produced,
                       const std::vector<OrderSpec>& interesting) {
  uint64_t covered = 0;
  for (size_t i = 0; i < interesting.size() && i < 64; ++i) {
    if (OrderSatisfies(produced, interesting[i])) covered |= 1ull << i;
  }
  return covered;
}

std::vector<PlanRef> PlannerContext::GenerateAccessPaths(
    int table_idx, uint32_t outer_mask) const {
  const TableInfo& table = *block->tables[table_idx].table;
  ApplicablePreds preds = CollectPreds(*this, table_idx, outer_mask);

  double ncard = sel.TableCardinality(table_idx);
  double rsicard = ncard * preds.f_sargable;
  // N(t) times the join factors bound per probe: a plain path's rows are
  // exactly its level-1 solution's N.
  double rows = Rows(1u << table_idx);
  for (const auto& [j, f] : preds.join_preds) rows *= f;

  // Feedback annotations, identical for every path over this table. Join
  // factors are never blended, so the pure-model row count differs from
  // `rows` exactly by the local used/model selectivity ratio.
  auto annotate_scan = [&](ScanSpec* spec) {
    spec->feedback_terms = preds.feedback_terms;
    spec->est_base_card = ncard;
    spec->est_sel_used = preds.f_local_used;
    spec->est_rows_model =
        rows * (preds.f_local_model / std::max(preds.f_local_used, 1e-12));
    spec->learned_applied =
        std::abs(preds.f_local_used - preds.f_local_model) >
        1e-12 * preds.f_local_model;
    spec->feedback_eligible = outer_mask == 0;
  };

  // Dynamic SARG terms: join predicates (outer-row sourced, all comparison
  // ops) plus host-variable terms (parameter sourced).
  std::vector<ScanTerm> dyn_sargs;
  for (const auto& [j, f] : preds.join_preds) {
    dyn_sargs.push_back(ScanTerm{
        j.c1, j.op, ScanOperand::Outer(block->OffsetOf(j.t2, j.c2))});
  }
  dyn_sargs.insert(dyn_sargs.end(), preds.param_sargs.begin(),
                   preds.param_sargs.end());

  std::vector<PlanRef> paths;

  // --- Segment scan ---
  {
    auto node = NewPlanNode(PlanKind::kSegScan);
    node->scan.table_idx = table_idx;
    node->scan.table = &table;
    node->scan.sargs = preds.sargs;
    node->scan.dyn_sargs = dyn_sargs;
    node->scan.residual = preds.residual;
    annotate_scan(&node->scan);
    node->est = cost.SegmentScan(table, rsicard);
    node->est_rows = rows;
    paths.push_back(std::move(node));
  }

  // --- One path per index ---
  for (IndexId iid : table.indexes) {
    const IndexInfo& index = *catalog->index(iid);
    auto node = NewPlanNode(PlanKind::kIndexScan);
    ScanSpec& spec = node->scan;
    spec.table_idx = table_idx;
    spec.table = &table;
    spec.index = &index;
    spec.sargs = preds.sargs;
    spec.dyn_sargs = dyn_sargs;
    spec.residual = preds.residual;
    annotate_scan(&spec);

    // Find the matching predicate prefix: equality factors on the leading
    // key columns, then a range on the next column.
    double f_matching = 1.0;
    size_t bound_cols = 0;
    bool matching = false;
    for (size_t k = 0; k < index.key_columns.size(); ++k) {
      size_t col = index.key_columns[k];
      // Equality on this key column: a literal or ? parameter factor?
      const ApplicablePreds::SimpleTerm* eq = nullptr;
      for (const auto& t : preds.simple_terms) {
        if (t.term->column == col && t.term->op == CompareOp::kEq) {
          eq = &t;
          break;
        }
      }
      if (eq != nullptr) {
        spec.eq_bounds.push_back(eq->term->value);
        f_matching *= eq->selectivity;
        ++bound_cols;
        matching = true;
        continue;
      }
      // Dynamic equality from an equi-join predicate?
      const JoinPredInfo* dyn = nullptr;
      double dyn_f = 1.0;
      for (const auto& [j, f] : preds.join_preds) {
        if (j.is_equi() && j.c1 == col) {
          dyn = &j;
          dyn_f = f;
          break;
        }
      }
      if (dyn != nullptr) {
        spec.eq_bounds.push_back(
            ScanOperand::Outer(block->OffsetOf(dyn->t2, dyn->c2)));
        f_matching *= dyn_f;
        ++bound_cols;
        matching = true;
        continue;
      }
      // Range bounds on the first unbound column end the prefix.
      for (const auto& t : preds.simple_terms) {
        if (t.term->column != col) continue;
        CompareOp op = t.term->op;
        std::optional<KeyBound>* end = nullptr;
        if (op == CompareOp::kGt || op == CompareOp::kGe) end = &spec.lo;
        if (op == CompareOp::kLt || op == CompareOp::kLe) end = &spec.hi;
        if (end != nullptr && !end->has_value()) {
          *end = KeyBound{t.term->value,
                          op == CompareOp::kGe || op == CompareOp::kLe};
          f_matching *= t.selectivity;
          matching = true;
        }
      }
      if (!spec.lo.has_value() && !spec.hi.has_value()) {
        for (const auto& b : preds.betweens) {
          if (b.lo->column == col) {
            spec.lo = KeyBound{b.lo->value, true};
            spec.hi = KeyBound{b.hi->value, b.hi->op == CompareOp::kLe};
            f_matching *= b.selectivity;
            matching = true;
            break;
          }
        }
      }
      break;  // Prefix ends at the first non-equality column.
    }

    bool unique_eq =
        index.unique && bound_cols == index.key_columns.size();

    node->est = cost.IndexScan(table, index, matching, f_matching, rsicard,
                               unique_eq, /*repeated_probe=*/outer_mask != 0);
    node->est_rows = rows;
    node->order = IndexOrder(*this, table_idx, index);
    paths.push_back(std::move(node));
  }
  return paths;
}

std::vector<bool> PrunedAccessPaths(
    const std::vector<PlanRef>& paths,
    const std::vector<OrderSpec>& interesting) {
  std::vector<bool> pruned(paths.size(), false);
  for (size_t i = 0; i < paths.size(); ++i) {
    uint64_t covered = CoveredOrders(paths[i]->order, interesting);
    for (size_t j = 0; j < paths.size(); ++j) {
      if (j == i || pruned[j]) continue;
      uint64_t j_covered = CoveredOrders(paths[j]->order, interesting);
      bool strictly_better =
          paths[j]->est.cost < paths[i]->est.cost ||
          (paths[j]->est.cost == paths[i]->est.cost && j < i);  // Stable.
      if (strictly_better && (covered & ~j_covered) == 0) {
        pruned[i] = true;
        break;
      }
    }
  }
  return pruned;
}

PlanRef CheapestPath(const std::vector<PlanRef>& paths) {
  const PlanRef* best = nullptr;
  for (const PlanRef& p : paths) {
    if (best == nullptr || p->est.cost < (*best)->est.cost) best = &p;
  }
  return best != nullptr ? *best : nullptr;
}

}  // namespace systemr
