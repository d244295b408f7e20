#include "sql/binder.h"

#include <algorithm>
#include <functional>
#include <set>

namespace systemr {

namespace {

bool TypesComparable(ValueType a, ValueType b) {
  if (a == ValueType::kNull || b == ValueType::kNull) return true;
  if (IsArithmetic(a) && IsArithmetic(b)) return true;
  return a == b;
}

bool ContainsAggregate(const BoundExpr& e) {
  if (e.kind == BoundExprKind::kAggregate) return true;
  for (const auto& c : e.children) {
    if (ContainsAggregate(*c)) return true;
  }
  return false;
}

}  // namespace

StatusOr<std::unique_ptr<BoundQueryBlock>> Binder::Bind(
    const SelectStmt& stmt) {
  return BindBlock(stmt);
}

StatusOr<std::unique_ptr<BoundExpr>> Binder::BindExprInBlock(
    const Expr& expr, BoundQueryBlock* block) {
  stack_.push_back(block);
  auto result = BindExpr(expr, /*allow_aggregates=*/false);
  stack_.pop_back();
  return result;
}

StatusOr<std::unique_ptr<BoundQueryBlock>> Binder::BindBlock(
    const SelectStmt& stmt) {
  auto block = std::make_unique<BoundQueryBlock>();
  block->distinct = stmt.distinct;

  // FROM list.
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM list cannot be empty");
  }
  if (stmt.from.size() > kMaxBlockRelations) {
    return Status::InvalidArgument("too many relations in one block");
  }
  std::set<std::string> correlations;
  size_t offset = 0;
  for (const FromItem& item : stmt.from) {
    const TableInfo* table = catalog_->FindTable(item.table);
    if (table == nullptr) {
      return Status::NotFound("no such table: " + item.table);
    }
    if (!correlations.insert(item.correlation).second) {
      return Status::InvalidArgument("duplicate correlation name " +
                                     item.correlation);
    }
    BoundTable bt;
    bt.table = table;
    bt.correlation = item.correlation;
    bt.offset = offset;
    offset += table->schema.num_columns();
    block->tables.push_back(std::move(bt));
  }
  block->row_width = offset;

  stack_.push_back(block.get());

  // SELECT list.
  if (stmt.select_star) {
    for (size_t t = 0; t < block->tables.size(); ++t) {
      const Schema& schema = block->tables[t].table->schema;
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        auto e = std::make_unique<BoundExpr>();
        e->kind = BoundExprKind::kColumn;
        e->table_idx = static_cast<int>(t);
        e->column = c;
        e->offset = block->OffsetOf(static_cast<int>(t), c);
        e->type = schema.column(c).type;
        block->select_list.push_back(std::move(e));
        block->select_names.push_back(schema.column(c).name);
      }
    }
  } else {
    for (const SelectItem& item : stmt.select_list) {
      ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> e,
                       BindExpr(*item.expr, /*allow_aggregates=*/true));
      std::string name = item.alias;
      if (name.empty()) {
        name = item.expr->kind == ExprKind::kColumnRef ? item.expr->column
                                                       : item.expr->ToString();
      }
      block->select_list.push_back(std::move(e));
      block->select_names.push_back(std::move(name));
    }
  }

  // WHERE tree. Aggregates are not allowed here.
  if (stmt.where != nullptr) {
    ASSIGN_OR_RETURN(block->where,
                     BindExpr(*stmt.where, /*allow_aggregates=*/false));
  }

  // GROUP BY / ORDER BY: plain columns of this block.
  for (const OrderItem& item : stmt.group_by) {
    ASSIGN_OR_RETURN(BoundOrderItem bi, BindOrderItem(item));
    block->group_by.push_back(bi);
  }
  for (const OrderItem& item : stmt.order_by) {
    ASSIGN_OR_RETURN(BoundOrderItem bi, BindOrderItem(item));
    bi.asc = item.asc;
    block->order_by.push_back(bi);
  }
  if (stmt.having != nullptr) {
    ASSIGN_OR_RETURN(block->having,
                     BindExpr(*stmt.having, /*allow_aggregates=*/true));
  }

  stack_.pop_back();

  // Aggregate validation.
  for (const auto& e : block->select_list) {
    if (ContainsAggregate(*e)) block->has_aggregates = true;
  }
  if (block->having != nullptr && ContainsAggregate(*block->having)) {
    block->has_aggregates = true;
  }
  if (block->having != nullptr && !block->has_aggregates) {
    return Status::InvalidArgument("HAVING requires aggregation");
  }
  if (block->has_aggregates) {
    for (const auto& e : block->select_list) {
      if (ContainsAggregate(*e)) continue;
      // Non-aggregate output must be a grouping column.
      if (e->kind != BoundExprKind::kColumn) {
        return Status::InvalidArgument(
            "non-aggregate SELECT item must be a GROUP BY column");
      }
      bool grouped = false;
      for (const BoundOrderItem& g : block->group_by) {
        if (g.table_idx == e->table_idx && g.column == e->column) {
          grouped = true;
        }
      }
      if (!grouped) {
        return Status::InvalidArgument(
            "column " + block->ColumnName(e->table_idx, e->column) +
            " must appear in GROUP BY");
      }
    }
  } else if (!block->group_by.empty()) {
    return Status::InvalidArgument(
        "GROUP BY requires aggregates in the SELECT list");
  }

  block->correlation_reach = ComputeReach(*block);
  return block;
}

StatusOr<BoundOrderItem> Binder::BindOrderItem(const OrderItem& item) {
  Expr ref;
  ref.kind = ExprKind::kColumnRef;
  ref.table = item.table;
  ref.column = item.column;
  ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> e, BindColumnRef(ref));
  if (e->outer_level != 0) {
    return Status::InvalidArgument(
        "GROUP BY / ORDER BY cannot reference outer blocks");
  }
  BoundOrderItem bi;
  bi.table_idx = e->table_idx;
  bi.column = e->column;
  return bi;
}

StatusOr<std::unique_ptr<BoundExpr>> Binder::BindColumnRef(const Expr& expr) {
  // Search the current block first, then enclosing blocks (correlation, §6).
  for (int level = 0; level < static_cast<int>(stack_.size()); ++level) {
    BoundQueryBlock* block = stack_[stack_.size() - 1 - level];
    int found_table = -1;
    size_t found_col = 0;
    for (size_t t = 0; t < block->tables.size(); ++t) {
      const BoundTable& bt = block->tables[t];
      if (!expr.table.empty() && bt.correlation != expr.table) continue;
      auto col = bt.table->schema.FindColumn(expr.column);
      if (!col.has_value()) continue;
      if (found_table >= 0) {
        return Status::InvalidArgument("ambiguous column " + expr.column);
      }
      found_table = static_cast<int>(t);
      found_col = *col;
    }
    if (found_table >= 0) {
      auto e = std::make_unique<BoundExpr>();
      e->kind = BoundExprKind::kColumn;
      e->outer_level = level;
      e->table_idx = found_table;
      e->column = found_col;
      e->offset = block->OffsetOf(found_table, found_col);
      e->type = block->ColumnType(found_table, found_col);
      return e;
    }
  }
  std::string name =
      expr.table.empty() ? expr.column : expr.table + "." + expr.column;
  return Status::NotFound("no such column: " + name);
}

Status Binder::CheckComparable(const BoundExpr& a, const BoundExpr& b,
                               const std::string& context) {
  if (!TypesComparable(a.type, b.type)) {
    return Status::InvalidArgument(
        "type mismatch in " + context + ": " +
        std::string(ValueTypeName(a.type)) + " vs " + ValueTypeName(b.type));
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<BoundExpr>> Binder::BindExpr(const Expr& expr,
                                                      bool allow_aggregates) {
  switch (expr.kind) {
    case ExprKind::kColumnRef:
      return BindColumnRef(expr);
    case ExprKind::kLiteral: {
      auto e = std::make_unique<BoundExpr>();
      e->kind = BoundExprKind::kLiteral;
      e->literal = expr.literal;
      e->type = expr.literal.type();
      return e;
    }
    case ExprKind::kParameter: {
      // Host variable (§2): the value is unknown at compile time, so the
      // parameter types as kNull — comparable with every column type.
      auto e = std::make_unique<BoundExpr>();
      e->kind = BoundExprKind::kParameter;
      e->param_idx = expr.param_idx;
      e->type = ValueType::kNull;
      return e;
    }
    case ExprKind::kCompare: {
      auto e = std::make_unique<BoundExpr>();
      e->kind = BoundExprKind::kCompare;
      e->op = expr.op;
      e->type = ValueType::kInt64;  // Boolean as 0/1.
      for (const auto& c : expr.children) {
        ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bc,
                         BindExpr(*c, allow_aggregates));
        e->children.push_back(std::move(bc));
      }
      RETURN_IF_ERROR(
          CheckComparable(*e->children[0], *e->children[1], "comparison"));
      return e;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot: {
      auto e = std::make_unique<BoundExpr>();
      e->kind = expr.kind == ExprKind::kAnd   ? BoundExprKind::kAnd
                : expr.kind == ExprKind::kOr  ? BoundExprKind::kOr
                                              : BoundExprKind::kNot;
      e->type = ValueType::kInt64;
      for (const auto& c : expr.children) {
        ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bc,
                         BindExpr(*c, allow_aggregates));
        e->children.push_back(std::move(bc));
      }
      return e;
    }
    case ExprKind::kArith: {
      auto e = std::make_unique<BoundExpr>();
      e->kind = BoundExprKind::kArith;
      e->arith_op = expr.arith_op;
      for (const auto& c : expr.children) {
        ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bc,
                         BindExpr(*c, allow_aggregates));
        e->children.push_back(std::move(bc));
      }
      for (const auto& c : e->children) {
        if (!IsArithmetic(c->type) && c->type != ValueType::kNull) {
          return Status::InvalidArgument("arithmetic on non-numeric operand");
        }
      }
      e->type = (e->children[0]->type == ValueType::kDouble ||
                 e->children[1]->type == ValueType::kDouble ||
                 expr.arith_op == '/')
                    ? ValueType::kDouble
                    : ValueType::kInt64;
      return e;
    }
    case ExprKind::kBetween: {
      auto e = std::make_unique<BoundExpr>();
      e->kind = BoundExprKind::kBetween;
      e->type = ValueType::kInt64;
      for (const auto& c : expr.children) {
        ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bc,
                         BindExpr(*c, allow_aggregates));
        e->children.push_back(std::move(bc));
      }
      RETURN_IF_ERROR(
          CheckComparable(*e->children[0], *e->children[1], "BETWEEN"));
      RETURN_IF_ERROR(
          CheckComparable(*e->children[0], *e->children[2], "BETWEEN"));
      return e;
    }
    case ExprKind::kInList: {
      auto e = std::make_unique<BoundExpr>();
      e->kind = BoundExprKind::kInList;
      e->type = ValueType::kInt64;
      for (const auto& c : expr.children) {
        ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bc,
                         BindExpr(*c, allow_aggregates));
        e->children.push_back(std::move(bc));
      }
      for (size_t i = 1; i < e->children.size(); ++i) {
        RETURN_IF_ERROR(
            CheckComparable(*e->children[0], *e->children[i], "IN list"));
      }
      return e;
    }
    case ExprKind::kInSubquery: {
      auto e = std::make_unique<BoundExpr>();
      e->kind = BoundExprKind::kInSubquery;
      e->type = ValueType::kInt64;
      ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> lhs,
                       BindExpr(*expr.children[0], allow_aggregates));
      e->children.push_back(std::move(lhs));
      ASSIGN_OR_RETURN(e->subquery, BindBlock(*expr.subquery));
      if (e->subquery->select_list.size() != 1) {
        return Status::InvalidArgument(
            "IN subquery must select exactly one column");
      }
      RETURN_IF_ERROR(CheckComparable(*e->children[0],
                                      *e->subquery->select_list[0],
                                      "IN subquery"));
      return e;
    }
    case ExprKind::kSubquery: {
      auto e = std::make_unique<BoundExpr>();
      e->kind = BoundExprKind::kSubquery;
      ASSIGN_OR_RETURN(e->subquery, BindBlock(*expr.subquery));
      if (e->subquery->select_list.size() != 1) {
        return Status::InvalidArgument(
            "scalar subquery must select exactly one value");
      }
      e->type = e->subquery->select_list[0]->type;
      return e;
    }
    case ExprKind::kAggregate: {
      if (!allow_aggregates) {
        return Status::InvalidArgument("aggregate not allowed here");
      }
      auto e = std::make_unique<BoundExpr>();
      e->kind = BoundExprKind::kAggregate;
      e->agg = expr.agg;
      if (!expr.children.empty()) {
        // Aggregate arguments cannot themselves contain aggregates.
        ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> arg,
                         BindExpr(*expr.children[0], false));
        if (expr.agg != AggFunc::kCount && expr.agg != AggFunc::kMin &&
            expr.agg != AggFunc::kMax && !IsArithmetic(arg->type)) {
          return Status::InvalidArgument("SUM/AVG require a numeric argument");
        }
        e->children.push_back(std::move(arg));
      } else if (expr.agg != AggFunc::kCount) {
        return Status::InvalidArgument("only COUNT may take *");
      }
      switch (expr.agg) {
        case AggFunc::kCount:
          e->type = ValueType::kInt64;
          break;
        case AggFunc::kAvg:
          e->type = ValueType::kDouble;
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          e->type = e->children[0]->type;
          break;
        case AggFunc::kSum:
          e->type = e->children[0]->type;
          break;
      }
      return e;
    }
    case ExprKind::kLike: {
      auto e = std::make_unique<BoundExpr>();
      e->kind = BoundExprKind::kLike;
      e->negated = expr.negated;
      e->type = ValueType::kInt64;
      ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> subject,
                       BindExpr(*expr.children[0], allow_aggregates));
      if (subject->type != ValueType::kString &&
          subject->type != ValueType::kNull) {
        return Status::InvalidArgument("LIKE requires a string operand");
      }
      e->children.push_back(std::move(subject));
      ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> pattern,
                       BindExpr(*expr.children[1], allow_aggregates));
      e->children.push_back(std::move(pattern));
      return e;
    }
    case ExprKind::kIsNull: {
      auto e = std::make_unique<BoundExpr>();
      e->kind = BoundExprKind::kIsNull;
      e->negated = expr.negated;
      e->type = ValueType::kInt64;
      ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> child,
                       BindExpr(*expr.children[0], allow_aggregates));
      e->children.push_back(std::move(child));
      return e;
    }
    case ExprKind::kStar:
      return Status::InvalidArgument("* only allowed as the full SELECT list");
  }
  return Status::Internal("unhandled expression kind");
}

int Binder::ComputeReach(const BoundQueryBlock& block) {
  int reach = 0;
  std::function<void(const BoundExpr&, int)> walk = [&](const BoundExpr& e,
                                                        int depth) {
    if (e.kind == BoundExprKind::kColumn) {
      // outer_level is relative to the block `depth` levels below `block`'s
      // child frame; the escape beyond `block` is outer_level - depth.
      reach = std::max(reach, e.outer_level - depth);
    }
    for (const auto& c : e.children) walk(*c, depth);
    if (e.subquery != nullptr) {
      for (const auto& item : e.subquery->select_list) walk(*item, depth + 1);
      if (e.subquery->where != nullptr) walk(*e.subquery->where, depth + 1);
    }
  };
  for (const auto& item : block.select_list) walk(*item, 0);
  if (block.where != nullptr) walk(*block.where, 0);
  return reach;
}

}  // namespace systemr
