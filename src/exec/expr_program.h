// Compiled expression programs — the engine's one evaluator of bound
// expressions, and its stand-in for System R's generated access-module code
// (§2). A BoundExpr tree is flattened ONCE, at operator construction, into a
// postfix array of small steps evaluated with an explicit value stack: no
// recursion, no StatusOr<Value> temporaries on the hot path, constant
// sub-expressions folded at compile time (each runs once as a program of its
// own), and AND/OR short-circuiting via jump steps. Column and constant
// operands are pushed by reference, so a comparison over two columns touches
// no Value copies at all.
//
// Aggregate leaves compile to slot steps. An aggregation operator compiles
// its SELECT items and HAVING clause against its list of aggregate
// expressions and runs them over a finished group's representative row plus
// the group's aggregate values, slot i holding aggregate i. An aggregate
// leaf with no slot compiles to a step that fails with kInternal.
#ifndef SYSTEMR_EXEC_EXPR_PROGRAM_H_
#define SYSTEMR_EXEC_EXPR_PROGRAM_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "exec/exec_context.h"
#include "optimizer/bound_expr.h"

namespace systemr {

/// SQL LIKE: '%' matches any sequence, '_' any single character. Iterative
/// two-pointer backtracking — O(|s|·|pattern|) worst case, so pathological
/// patterns like "%a%a%a%a%a" stay cheap.
bool LikeMatch(const std::string& s, const std::string& pattern);

class ExprProgram {
 public:
  ExprProgram() = default;

  /// Compiles `e` (owned by the plan, which outlives the operator) for
  /// repeated evaluation. An aggregate leaf that appears in `agg_slots`, at
  /// index i, reads aggs[i] of the values passed to EvalValue/EvalBool.
  void CompileExpr(const BoundExpr* e,
                   const std::vector<const BoundExpr*>* agg_slots = nullptr);

  /// Compiles the conjunction of `preds`: conjuncts are evaluated left to
  /// right, NULL counts as false, and the first false conjunct
  /// short-circuits the rest.
  void CompilePreds(const std::vector<const BoundExpr*>* preds);

  /// Predicate evaluation; NULL is false. `aggs` holds a finished group's
  /// aggregate values, by slot; a program compiled with `agg_slots` must be
  /// given them.
  Status EvalBool(ExecContext* ctx, const Row& row, bool* out,
                  const Value* aggs = nullptr);

  /// Vectorized predicate evaluation over a batch: `sel` holds candidate row
  /// indices into `rows` on entry and is compacted in place to the indices
  /// that pass. Single column-vs-constant / column-vs-column comparisons run
  /// a branch-light fast path; everything else loops the compiled program
  /// per selected row.
  Status EvalBoolBatch(ExecContext* ctx, const std::vector<Row>& rows,
                       std::vector<uint32_t>* sel);

  /// Value evaluation (SELECT items, aggregate arguments, DML SET values).
  Status EvalValue(ExecContext* ctx, const Row& row, Value* out,
                   const Value* aggs = nullptr);

 private:
  enum class Op : uint8_t {
    kPushColumn,      // push &row[a]
    kPushOuter,       // push outer value (a = levels up, b = offset)
    kPushConst,       // push &consts_[a]
    kPushParam,       // push the execute-time value of parameter a
    kCompare,         // pop rhs, lhs; push lhs cmp rhs (NULL -> false)
    kArith,           // pop rhs, lhs; push lhs arith rhs
    kNot,             // pop v; push !truthy(v)
    kToBool,          // pop v; push truthy(v)
    kIsNull,          // pop v; push v IS [NOT] NULL
    kBetween,         // pop hi, lo, v; push lo <= v <= hi
    kLike,            // pop pattern, subject; push [NOT] LIKE
    kInSortedConsts,  // pop v; binary-search lists_[a]
    kInRow,           // pop a items + v; linear membership test
    kJumpIfFalse,     // pop v; if !truthy(v): push false, jump to a
    kJumpIfTrue,      // pop v; if truthy(v): push true, jump to a
    kScalarSubquery,  // push the (cached, §6) scalar subquery result
    kInSubquery,      // pop v; membership in the subquery's sorted list
    kPushAgg,         // push &aggs[a], a finished group's aggregate value
    kAggNoSlot,       // fail: aggregate leaf compiled without a slot
  };

  struct Step {
    Op op = Op::kPushConst;
    bool negated = false;
    CompareOp cmp = CompareOp::kEq;
    char arith = '+';
    uint32_t a = 0;
    uint32_t b = 0;
    const BoundQueryBlock* subquery = nullptr;
  };

  // A stack slot either references a row/constant/outer value (no copy) or
  // owns a computed intermediate; `ref` always points at the live value.
  struct Slot {
    const Value* ref = nullptr;
    Value owned;
  };

  /// Starts a new program: drops the previous one's steps and constants.
  void Reset();
  /// Appends a step with opcode `op`; the reference is valid until the next
  /// append.
  Step& Add(Op op);
  void Emit(const BoundExpr& e);
  /// Runs the constant subtree `e` as a program of its own; false if it
  /// fails, so the caller emits its steps and the error surfaces at run time.
  static bool FoldConst(const BoundExpr& e, Value* out);
  uint32_t AddConst(Value v);
  Status Run(ExecContext* ctx, const Row& row, const Value* aggs,
             const Value** top);
  /// Classifies the finished program for EvalBoolBatch's fast paths.
  void ClassifyForBatch();

  /// Batch fast-path shapes detected at compile time.
  enum class BatchKind : uint8_t {
    kGeneric,   // Loop Run() per row.
    kAlwaysOn,  // Constant-true program (empty predicate list).
    kColConst,  // row[a] cmp consts_[b]
    kColCol,    // row[a] cmp row[b]
  };

  BatchKind batch_kind_ = BatchKind::kGeneric;
  bool fold_ = true;  // False inside FoldConst's program: no nested folds.
  // Compile time only: the aggregate leaves that have slots.
  const std::vector<const BoundExpr*>* agg_slots_ = nullptr;
  std::vector<Step> steps_;
  std::vector<Value> consts_;
  std::vector<std::vector<Value>> lists_;  // kInSortedConsts operands.
  std::vector<Slot> stack_;                // Reused across evaluations.
};

}  // namespace systemr

#endif  // SYSTEMR_EXEC_EXPR_PROGRAM_H_
