#include "optimizer/explain.h"

#include <cmath>
#include <sstream>

#include "exec/batch.h"

namespace systemr {

namespace {

void Indent(std::ostringstream& os, int depth) {
  for (int i = 0; i < depth; ++i) os << "  ";
}

// One-line summary of a scan's access path.
std::string DescribeScan(const ScanSpec& spec, const BoundQueryBlock& block) {
  std::ostringstream os;
  const std::string& corr = block.tables[spec.table_idx].correlation;
  if (spec.index == nullptr) {
    os << corr << " (segment scan)";
  } else {
    os << corr << " via " << spec.index->name;
    if (!spec.eq_bounds.empty() || spec.lo.has_value() ||
        spec.hi.has_value()) {
      const char* sep = " [";
      for (const ScanOperand& b : spec.eq_bounds) {
        os << sep << "=" << b.ToString();
        sep = ", ";
      }
      if (spec.lo.has_value()) {
        os << sep << (spec.lo->inclusive ? ">=" : ">")
           << spec.lo->value.ToString();
        sep = ", ";
      }
      if (spec.hi.has_value()) {
        os << sep << (spec.hi->inclusive ? "<=" : "<")
           << spec.hi->value.ToString();
      }
      os << "]";
    }
  }
  if (!spec.sargs.empty()) {
    os << " sargs(";
    for (size_t i = 0; i < spec.sargs.size(); ++i) {
      if (i > 0) os << " AND ";
      os << spec.sargs[i].ToString(spec.table->schema);
    }
    os << ")";
  }
  for (const ScanTerm& d : spec.dyn_sargs) {
    os << " dynsarg(" << spec.table->schema.column(d.column).name
       << CompareOpName(d.op) << d.value.ToString() << ")";
  }
  if (!spec.residual.empty()) {
    os << " where(";
    for (size_t i = 0; i < spec.residual.size(); ++i) {
      if (i > 0) os << " AND ";
      os << spec.residual[i]->ToString(block);
    }
    os << ")";
  }
  return os.str();
}

// `dop` is the inherited degree of parallelism: 1 outside an exchange, the
// exchange's worker count inside its fragment (printed on the scans so the
// morsel-parallel part of the plan is visible at a glance).
void ExplainNode(const PlanRef& node, const BoundQueryBlock& block, int depth,
                 std::ostringstream& os, int dop = 1) {
  if (node == nullptr) return;
  Indent(os, depth);
  os << PlanKindName(node->kind);
  switch (node->kind) {
    case PlanKind::kSegScan:
    case PlanKind::kIndexScan:
      os << " " << DescribeScan(node->scan, block);
      if (dop > 1) os << " dop=" << dop;
      break;
    case PlanKind::kExchange:
      os << " dop=" << node->dop << " exchange="
         << (node->exchange_partial_agg ? "partial-agg" : "gather");
      break;
    case PlanKind::kSort: {
      os << " by [";
      for (size_t i = 0; i < node->sort_keys.size(); ++i) {
        if (i > 0) os << ", ";
        os << "#" << node->sort_keys[i].offset
           << (node->sort_keys[i].asc ? "" : " DESC");
      }
      os << "]";
      break;
    }
    case PlanKind::kMergeJoin:
      os << " on #" << node->merge_outer_offset << " = #"
         << node->merge_inner_offset << " method=merge";
      break;
    case PlanKind::kHashJoin:
      os << " on #" << node->merge_outer_offset << " = #"
         << node->merge_inner_offset << " method=hash";
      break;
    case PlanKind::kNestedLoopJoin:
      os << " method=nested-loop";
      break;
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kAggregate:
    case PlanKind::kHashAggregate:
      break;
  }
  if (!node->residual.empty()) {
    os << " residual(";
    for (size_t i = 0; i < node->residual.size(); ++i) {
      if (i > 0) os << " AND ";
      os << node->residual[i]->ToString(block);
    }
    os << ")";
  }
  os << "  [cost=" << node->est.cost << " rows=" << node->est_rows;
  if (node->kind == PlanKind::kSegScan || node->kind == PlanKind::kIndexScan) {
    // Calibration visibility: `est=` is what the statistics-only model
    // predicts; `learned=` appears when feedback observations shifted the
    // estimate actually used; `stats=stale` warns that enough mutations
    // landed since UPDATE STATISTICS to distrust the histograms.
    if (node->scan.learned_applied && node->scan.est_rows_model >= 0) {
      os << " est=" << node->scan.est_rows_model
         << " learned=" << node->est_rows;
    }
    if (node->scan.table != nullptr && node->scan.table->stats_stale) {
      os << " stats=stale";
    }
  }
  // Batch-model row count: how many kBatchRows-sized batches the vectorized
  // executor would move through this node for the estimated cardinality.
  os << " batches=" << std::max(
      1.0, std::ceil(node->est_rows / static_cast<double>(kBatchRows)));
  if (!node->order.empty()) os << " order=" << OrderSpecToString(node->order);
  os << "]";
  os << "\n";
  int child_dop = node->kind == PlanKind::kExchange ? node->dop : dop;
  ExplainNode(node->left, block, depth + 1, os, child_dop);
  // A hash join's build side runs serially even inside a parallel fragment.
  ExplainNode(node->right, block, depth + 1, os,
              node->kind == PlanKind::kHashJoin ? 1 : child_dop);
}

}  // namespace

std::string ExplainPlan(const PlanRef& root, const BoundQueryBlock& block) {
  std::ostringstream os;
  ExplainNode(root, block, 0, os);
  return os.str();
}

std::string DescribePlan(const PlanNode& plan) {
  switch (plan.kind) {
    case PlanKind::kSegScan:
      return plan.scan.table->name + " seg. scan";
    case PlanKind::kIndexScan: {
      const ScanSpec& s = plan.scan;
      bool matching =
          !s.eq_bounds.empty() || s.lo.has_value() || s.hi.has_value();
      return "index " + s.index->name +
             (matching ? " (matching)" : " (non-matching)");
    }
    case PlanKind::kNestedLoopJoin:
      return "NLJ(" + DescribePlan(*plan.left) + " -> " +
             DescribePlan(*plan.right) + ")";
    case PlanKind::kMergeJoin: {
      const PlanNode& inner = *plan.right;
      return "MJ(" + DescribePlan(*plan.left) + " = " +
             (inner.kind == PlanKind::kSort
                  ? DescribePlan(inner) + " then merge"
                  : "merge-inner " + DescribePlan(inner)) +
             ")";
    }
    case PlanKind::kHashJoin:
      return "HJ(" + DescribePlan(*plan.left) + " = build " +
             DescribePlan(*plan.right) + ")";
    case PlanKind::kSort:
      return "sort(" + DescribePlan(*plan.left) + ")";
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kAggregate:
    case PlanKind::kHashAggregate:
    case PlanKind::kExchange:
      break;
  }
  return PlanKindName(plan.kind) + "(" + DescribePlan(*plan.left) + ")";
}

}  // namespace systemr
