// Vectorized data flow: operators exchange RowBatch blocks of up to
// kBatchRows rows — NextBatch is the executor's only pull call. A batch is a
// buffer of decoded rows plus a selection vector of surviving row indices;
// predicates filter by shrinking the selection vector, never by moving rows.
//
// This header stays dependency-light (kernel types only): the optimizer's
// EXPLAIN also reads kBatchRows to report batch-model row counts.
#ifndef SYSTEMR_EXEC_BATCH_H_
#define SYSTEMR_EXEC_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/schema.h"

namespace systemr {

/// Default rows per batch, chosen by a batch-size sweep (recorded in
/// BENCH_6_sweep.json): large enough to amortize per-batch virtual
/// dispatch, small enough that a batch of block-width rows stays
/// cache-resident.
inline constexpr size_t kBatchRows = 1024;

struct RowBatch {
  /// Row buffer; rows[0..filled) hold decoded data this batch. The buffer
  /// grows to the largest batch its producer has filled — a 3-row result
  /// allocates 3 rows, not kBatchRows — and is reused across batches, so a
  /// row may carry stale values in slots its producer does not own:
  /// consumers must only read through `sel` and the producer's column
  /// slices. A consumer may move a row out; producers re-size rows they
  /// refill.
  std::vector<Row> rows;
  /// Indices (ascending) of rows that survived all predicates so far.
  std::vector<uint32_t> sel;
  size_t filled = 0;
  /// Most rows a producer may put in this batch. A merge join, which may
  /// stop reading before its inputs end, and a nested-loop join's outer are
  /// read one row at a time; other streaming inputs (under a projection or
  /// filter, a nested-loop inner, a hash join's probe side) get their
  /// consumer's capacity, while blocking operators (sort, aggregation, hash
  /// build) drain their inputs at full size. So no scan decodes — and the
  /// RSI meters — a tuple the plan never reads.
  size_t capacity = kBatchRows;

  void Clear() {
    filled = 0;
    sel.clear();
  }
  /// The next row to fill, rows[filled++], growing the buffer by one row
  /// when it is full.
  Row& Append() {
    if (filled == rows.size()) rows.emplace_back();
    return rows[filled++];
  }
  /// Selection vector = identity over the filled prefix.
  void SelectAll() {
    sel.resize(filled);
    std::iota(sel.begin(), sel.end(), 0u);
  }
  size_t live() const { return sel.size(); }
};

}  // namespace systemr

#endif  // SYSTEMR_EXEC_BATCH_H_
