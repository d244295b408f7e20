// RefExecutor: the trusted reference interpreter for differential testing.
//
// It answers the same bound query blocks as the engine, but on purpose knows
// nothing the engine knows: no optimizer, no access paths, no indexes, no
// SARG pushdown, no subquery caches, no buffer pool. It walks the raw heap
// pages of every FROM table, materializes full-width rows through plain
// nested loops, and evaluates bound expressions with its own evaluator.
//
// The only code shared with the engine under test is the binder (it consumes
// the binder's BoundQueryBlock output) and Value semantics (comparison,
// serialization) — enforced structurally by its CMake target, which links
// `systemr_kernel` only, never the engine library (see src/CMakeLists.txt).
//
// Evaluation note: a WHERE conjunct is applied as soon as every FROM table it
// references has been filled in. That is plain short-circuiting of a
// conjunction — it cannot change the result multiset — and keeps the cross
// product tractable without doing anything resembling access path selection.
#ifndef SYSTEMR_HARNESS_REF_EXECUTOR_H_
#define SYSTEMR_HARNESS_REF_EXECUTOR_H_

#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "optimizer/bound_expr.h"
#include "rss/page.h"

namespace systemr {

/// Ground-truth per-column statistics counted from the raw heap pages.
struct RefColumnStats {
  uint64_t distinct = 0;  // Distinct non-null values (single-column ICARD).
  Value low;              // Min value (NULL when the table is empty).
  Value high;             // Max value.
};

/// Ground-truth table statistics, for validating UPDATE STATISTICS.
struct RefTableStats {
  uint64_t rows = 0;   // Live tuples: the true NCARD.
  uint64_t pages = 0;  // Pages holding >= 1 live tuple: the true TCARD.
  std::vector<RefColumnStats> columns;
};

class RefExecutor {
 public:
  /// `store` is the page store backing the database under test; `rel_pages`
  /// maps each relation id to the page list of the segment holding it.
  /// The reference executor reads pages directly (unmetered), so running it
  /// never perturbs the engine's buffer pool or cost counters.
  RefExecutor(const PageStore* store,
              std::unordered_map<RelId, std::vector<PageId>> rel_pages)
      : store_(store), rel_pages_(std::move(rel_pages)) {}

  /// Executes a bound top-level query block; returns the projected rows in
  /// an unspecified order (callers compare multisets).
  StatusOr<std::vector<Row>> Execute(const BoundQueryBlock& block);

  /// Host-variable values for `?` markers in the block, by ordinal. The
  /// vector must outlive the Execute call.
  void set_params(const std::vector<Value>* params) { params_ = params; }

  /// Refreshes the relation→pages map and drops cached rows; call after DML
  /// mutated the database under test (pages may have been added, tuples
  /// inserted or tombstoned).
  void set_rel_pages(std::unordered_map<RelId, std::vector<PageId>> m) {
    rel_pages_ = std::move(m);
    table_cache_.clear();
  }

  /// Counts ground-truth statistics for one relation with `num_columns`
  /// columns by scanning its raw pages.
  StatusOr<RefTableStats> TableStats(RelId relid, size_t num_columns);

 private:
  StatusOr<std::vector<Row>> ExecuteBlock(const BoundQueryBlock& block);
  Status LoadTable(RelId relid, const std::vector<Row>** rows);

  // Expression evaluation (independent reimplementation of the semantics in
  // src/exec/, on purpose — divergence is what the harness hunts for).
  StatusOr<Value> Eval(const BoundExpr& e, const Row& row);
  StatusOr<bool> EvalPred(const BoundExpr& e, const Row& row);

  // Aggregation.
  struct Accumulator {
    const BoundExpr* agg = nullptr;
    uint64_t count = 0;
    __int128 isum = 0;  // Exact; only a final SUM outside int64 overflows.
    double dsum = 0;
    bool int_sum = true;
    Value min;
    Value max;
    Status Accept(RefExecutor* self, const Row& row);
    StatusOr<Value> Result() const;
  };
  StatusOr<std::vector<Row>> Aggregate(const BoundQueryBlock& block,
                                       std::vector<Row> input);

  const PageStore* store_;
  std::unordered_map<RelId, std::vector<PageId>> rel_pages_;
  const std::vector<Value>* params_ = nullptr;
  // Tables decoded once per top-level Execute (cleared on entry).
  std::unordered_map<RelId, std::vector<Row>> table_cache_;
  // Enclosing rows for correlated references, outermost first (same stack
  // discipline as the engine's ExecContext).
  std::vector<const Row*> ancestors_;
  // Accumulators of the group being emitted; Eval resolves aggregate leaves
  // against them (null outside group emission).
  const std::vector<Accumulator>* group_accs_ = nullptr;
  int depth_ = 0;  // Recursion depth; 0 = top-level Execute.
};

}  // namespace systemr

#endif  // SYSTEMR_HARNESS_REF_EXECUTOR_H_
