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
