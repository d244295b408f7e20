// Aggregate-function machinery shared by the sorted-group operator
// (AggregateOp) and the hash-group operator (HashGroupByOp): the compiled
// function set (aggregate expressions + argument programs) is per-operator,
// while the running state is per-group — sorted grouping keeps exactly one
// live state vector, hash grouping keeps one per resident group.
#ifndef SYSTEMR_EXEC_AGG_COMMON_H_
#define SYSTEMR_EXEC_AGG_COMMON_H_

#include <vector>

#include "exec/exec_context.h"
#include "exec/expr_program.h"
#include "optimizer/plan.h"

namespace systemr {

/// Per-group running state for one aggregate function. SUM stays in exact
/// integer arithmetic until a non-integer value arrives, then degrades to
/// double for the rest of the group. The exact sum is 128-bit, so only a
/// final sum outside int64 fails, whatever order the rows arrive in.
struct AggState {
  uint64_t count = 0;
  double sum = 0;
  __int128 isum = 0;
  bool int_sum = true;
  Value min, max;
  void Reset();

  /// Folds another partial state into this one (parallel partial
  /// aggregation): counts and sums add — degrading to double arithmetic if
  /// either side already did — min/max combine by Value::Compare.
  void Merge(const AggState& other);
};

/// Element-wise AggState::Merge over two equally-sized state vectors.
void MergeAggStates(std::vector<AggState>* into,
                    const std::vector<AggState>& from);

/// The compiled aggregate functions of one query block, with its SELECT
/// list and HAVING clause compiled over them: aggregate i is slot i of the
/// values a finished group's programs read.
class AggFunctionSet {
 public:
  /// Collects and compiles every aggregate in the node's SELECT list and
  /// HAVING clause, then the SELECT items and HAVING clause themselves.
  /// Call once at operator construction.
  void Compile(const PlanNode* node);

  size_t size() const { return funcs_.size(); }

  /// Resizes `states` to size() and resets every entry.
  void ResetStates(std::vector<AggState>* states) const;

  /// Folds one input row into every aggregate's state.
  Status Accept(ExecContext* ctx, const Row& row,
                std::vector<AggState>* states);

  /// Finishes one group: computes its aggregate values from `states`, then
  /// evaluates HAVING (if any) over `rep`, the group's representative row,
  /// plus those values. True when the group passes.
  StatusOr<bool> FinishGroup(ExecContext* ctx, const Row& rep,
                             const std::vector<AggState>& states);

  /// Evaluates the SELECT list into `*out` over `rep` plus the aggregate
  /// values of the group FinishGroup last finished.
  Status EmitSelect(ExecContext* ctx, const Row& rep, Row* out);

 private:
  /// Final value of aggregate `i` given its accumulated state; an exact SUM
  /// outside int64 is an integer overflow.
  Status Result(size_t i, const AggState& state, Value* out) const;

  struct CompiledAgg {
    const BoundExpr* agg = nullptr;
    ExprProgram arg;  // Compiled argument expression (COUNT(*) has none).
  };
  std::vector<CompiledAgg> funcs_;
  std::vector<ExprProgram> select_;
  ExprProgram having_;
  bool has_having_ = false;
  std::vector<Value> results_;  // The finished group's values, by slot.
};

}  // namespace systemr

#endif  // SYSTEMR_EXEC_AGG_COMMON_H_
