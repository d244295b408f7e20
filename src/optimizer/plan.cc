#include "optimizer/plan.h"

namespace systemr {

std::string ScanOperand::ToString() const {
  switch (source) {
    case Source::kLiteral:
      return literal.ToString();
    case Source::kParam:
      return "?" + std::to_string(index + 1);
    case Source::kOuter:
      return "outer#" + std::to_string(index);
  }
  return "?";
}

std::shared_ptr<PlanNode> NewPlanNode(PlanKind kind) {
  auto node = std::make_shared<PlanNode>();
  node->kind = kind;
  return node;
}

std::shared_ptr<PlanNode> NewPlanNode(PlanKind kind, PlanRef input,
                                      const PathCost& est, double rows) {
  auto node = NewPlanNode(kind);
  node->left = std::move(input);
  node->est = est;
  node->est_rows = rows;
  return node;
}

std::shared_ptr<PlanNode> NewSortNode(PlanRef input, std::vector<SortKey> keys,
                                      OrderSpec order, const PathCost& est,
                                      double rows) {
  auto node = NewPlanNode(PlanKind::kSort, std::move(input), est, rows);
  node->sort_keys = std::move(keys);
  node->order = std::move(order);
  return node;
}

std::shared_ptr<PlanNode> NewJoinNode(PlanKind kind, PlanRef outer,
                                      PlanRef inner,
                                      const BoundTable& inner_table,
                                      std::vector<const BoundExpr*> residual,
                                      const PathCost& est, double rows,
                                      OrderSpec order, size_t outer_key,
                                      size_t inner_key) {
  auto node = NewPlanNode(kind, std::move(outer), est, rows);
  node->right = std::move(inner);
  node->inner_offset = inner_table.offset;
  node->inner_width = inner_table.table->schema.num_columns();
  node->merge_outer_offset = outer_key;
  node->merge_inner_offset = inner_key;
  node->residual = std::move(residual);
  node->order = std::move(order);
  return node;
}

std::string PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSegScan:
      return "SegScan";
    case PlanKind::kIndexScan:
      return "IndexScan";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kNestedLoopJoin:
      return "NestedLoopJoin";
    case PlanKind::kMergeJoin:
      return "MergeJoin";
    case PlanKind::kHashJoin:
      return "HashJoin";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kHashAggregate:
      return "HashAggregate";
    case PlanKind::kExchange:
      return "Exchange";
  }
  return "?";
}

}  // namespace systemr
