// ExchangeOp: the barrier between a morsel-parallel fragment and the serial
// plan top (PlanKind::kExchange). Open() runs the whole fragment to
// completion: hash-join build sides are materialized once, serially, into
// shared read-only tables; then `dop` workers (capped by the morsel count)
// each run a private copy of the fragment's operator tree, pulling
// page-range morsels of the driving segment scan from a shared dispenser.
// Worker rows are gathered — or, with exchange_partial_agg, folded into
// per-worker group tables merged at the barrier — and emitted serially.
//
// Merge points (exactly-once guarantees): each worker's ExecStats block is
// added to the parent context's with one operator+=, and its scan
// observations fold into the parent's, at the barrier, whether the fragment
// succeeded or not; the first worker error wins and aborts the siblings
// cooperatively via SharedFragmentState.
#ifndef SYSTEMR_EXEC_PARALLEL_EXCHANGE_H_
#define SYSTEMR_EXEC_PARALLEL_EXCHANGE_H_

#include <memory>
#include <vector>

#include "exec/hash_ops.h"
#include "exec/operators.h"

namespace systemr {

class ExchangeOp : public Operator {
 public:
  ExchangeOp(ExecContext* ctx, const BoundQueryBlock* block,
             const PlanNode* node)
      : ctx_(ctx), block_(block), node_(node) {}

  /// Runs the fragment to completion (build, fan out, barrier, merge).
  Status Open() override;
  /// Defensive: an exchange never appears in rebound subtrees (the parallel
  /// pass only runs on top-level plans), but re-running is correct.
  Status Rebind(const Row*) override { return Open(); }
  Status NextBatch(RowBatch* out, bool* has_batch) override;
  void Close() override {}

 private:
  Status RunFragment();

  ExecContext* ctx_;
  const BoundQueryBlock* block_;
  const PlanNode* node_;
  std::vector<Row> rows_;  // Fragment output, ready to emit.
  size_t emit_pos_ = 0;
};

}  // namespace systemr

#endif  // SYSTEMR_EXEC_PARALLEL_EXCHANGE_H_
