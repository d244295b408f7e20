// Bound (name-resolved, typed) expressions and query blocks — the output of
// the OPTIMIZER's catalog-lookup and semantic-checking phase (§2), and the
// input to access path selection.
//
// Row layout convention: each query block evaluates over a "full-width row"
// that concatenates the columns of every FROM table in FROM-list order. A
// column reference carries its precomputed offset into that row, so predicate
// evaluation is independent of the join order the optimizer later picks;
// slots for not-yet-joined tables simply hold NULL.
#ifndef SYSTEMR_OPTIMIZER_BOUND_EXPR_H_
#define SYSTEMR_OPTIMIZER_BOUND_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/value.h"
#include "rss/sarg.h"
#include "sql/ast.h"

namespace systemr {

struct BoundQueryBlock;

enum class BoundExprKind {
  kColumn,
  kLiteral,
  kCompare,
  kAnd,
  kOr,
  kNot,
  kArith,
  kBetween,
  kInList,
  kInSubquery,
  kSubquery,   // Scalar subquery (operand of a comparison).
  kAggregate,
  kIsNull,
  kLike,
  kParameter,  // ? host variable: value supplied at execute time (§2).
};

struct BoundExpr {
  BoundExprKind kind;
  ValueType type = ValueType::kNull;  // Result type.

  // kColumn.
  int outer_level = 0;  // 0 = this block; k = k query blocks up (correlation).
  int table_idx = 0;    // FROM slot in the owning block.
  size_t column = 0;    // Column ordinal within that table's schema.
  size_t offset = 0;    // Offset into the owning block's full-width row.

  // kLiteral.
  Value literal;

  // kCompare.
  CompareOp op = CompareOp::kEq;

  // kArith.
  char arith_op = '+';

  // kAggregate.
  AggFunc agg = AggFunc::kCount;

  // kIsNull.
  bool negated = false;

  // kParameter: ordinal into the execute-time parameter vector.
  int param_idx = -1;

  // Children (same shape conventions as sql/ast.h).
  std::vector<std::unique_ptr<BoundExpr>> children;

  // kSubquery / kInSubquery: the nested query block (owned).
  std::unique_ptr<BoundQueryBlock> subquery;

  /// True if this expression (or any descendant, crossing into subqueries)
  /// contains a column reference that escapes `levels` blocks upward.
  bool ReferencesOuter(int levels = 0) const;

  /// True if any descendant is a subquery.
  bool HasSubquery() const;

  std::string ToString(const BoundQueryBlock& block) const;

  std::unique_ptr<BoundExpr> Clone() const;
};

struct BoundTable {
  const TableInfo* table = nullptr;
  std::string correlation;  // Unique within the block.
  size_t offset = 0;        // Start of this table's columns in the block row.
};

struct BoundOrderItem {
  int table_idx = 0;
  size_t column = 0;
  bool asc = true;
};

/// Most FROM relations one query block may name, checked by the binder: the
/// planner keeps table sets in 32-bit masks, and its search doubles in size
/// with every table.
inline constexpr size_t kMaxBlockRelations = 20;

/// A bound query block: the unit the optimizer plans (§2, §4–§6).
struct BoundQueryBlock {
  std::vector<BoundTable> tables;
  size_t row_width = 0;  // Total columns across all FROM tables.

  bool distinct = false;
  std::vector<std::unique_ptr<BoundExpr>> select_list;
  std::vector<std::string> select_names;
  std::unique_ptr<BoundExpr> where;   // May be null.
  std::vector<BoundOrderItem> group_by;
  std::unique_ptr<BoundExpr> having;  // May be null.
  std::vector<BoundOrderItem> order_by;
  bool has_aggregates = false;

  /// Max number of ancestor blocks referenced from within this block
  /// (including through nested subqueries). 0 = uncorrelated.
  int correlation_reach = 0;

  size_t OffsetOf(int table_idx, size_t column) const {
    return tables[table_idx].offset + column;
  }
  /// "CORR.COL" name for diagnostics.
  std::string ColumnName(int table_idx, size_t column) const;
  ValueType ColumnType(int table_idx, size_t column) const {
    return tables[table_idx].table->schema.column(column).type;
  }

  std::string ToString() const;
};

}  // namespace systemr

#endif  // SYSTEMR_OPTIMIZER_BOUND_EXPR_H_
