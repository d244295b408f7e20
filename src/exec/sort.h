// External merge sort, spilling runs to temporary pages through the buffer
// pool so sort I/O is metered exactly like the cost model's C-sort: write
// the initial runs, read+write per extra merge pass, final read charged to
// the consumer.
#ifndef SYSTEMR_EXEC_SORT_H_
#define SYSTEMR_EXEC_SORT_H_

#include <memory>
#include <vector>

#include "exec/operators.h"

namespace systemr {

/// A temporary row file: pages allocated from the ExecContext temp space.
class TempRowFile {
 public:
  explicit TempRowFile(ExecContext* ctx) : ctx_(ctx) {}

  Status Append(const Row& row);
  void Finish();  // Flushes the last partial page.
  size_t num_pages() const { return pages_.size(); }

  class Reader {
   public:
    Reader(ExecContext* ctx, const std::vector<PageId>* pages)
        : ctx_(ctx), pages_(pages) {}
    /// Reads the next row; *has_row is false at end. Page reads are metered
    /// and storage failures propagate.
    Status Next(Row* row, bool* has_row);

   private:
    ExecContext* ctx_;
    const std::vector<PageId>* pages_;
    size_t page_idx_ = 0;
    uint16_t slot_ = 0;
  };
  Reader NewReader() const { return Reader(ctx_, &pages_); }

 private:
  ExecContext* ctx_;
  std::vector<PageId> pages_;
  PageId current_ = kInvalidPage;
};

class SortOp : public Operator {
 public:
  SortOp(ExecContext* ctx, const BoundQueryBlock* block, const PlanNode* node,
         std::unique_ptr<Operator> child)
      : ctx_(ctx), block_(block), node_(node), child_(std::move(child)) {}

  Status Open() override;
  Status Rebind(const Row* outer) override;
  Status NextBatch(RowBatch* out, bool* has_batch) override;
  void Close() override { child_->Close(); }

  /// Rows kept in memory before spilling a run (roughly half the buffer
  /// pool's worth of pages).
  size_t RunLimitBytes() const;

 private:
  /// A k-way merge over sorted runs: each run's reader and its next row.
  struct Merge {
    struct Head {
      Row row;
      bool valid = false;
    };
    std::vector<TempRowFile::Reader> readers;
    std::vector<Head> heads;

    /// Reads run `i`'s next row into its head.
    Status Advance(size_t i) {
      return readers[i].Next(&heads[i].row, &heads[i].valid);
    }
  };

  /// Drains the (re-opened) child into sorted runs and arms the final merge.
  Status Fill();
  Status SpillRun(std::vector<Row>* rows);
  /// Merges groups of runs into longer runs until one merge of what is left
  /// fits the buffer pool; NextBatch does that final merge.
  Status MergePass(std::vector<std::unique_ptr<TempRowFile>>* runs);
  /// Opens `merge` over `runs[begin, end)` and reads each run's first row.
  Status StartMerge(const std::vector<std::unique_ptr<TempRowFile>>& runs,
                    size_t begin, size_t end, Merge* merge) const;
  /// The run whose head sorts first (the earliest such run on ties), or -1
  /// once every run is exhausted.
  int Smallest(const Merge& merge) const;

  int Compare(const Row& a, const Row& b) const;

  ExecContext* ctx_;
  const BoundQueryBlock* block_;
  const PlanNode* node_;
  std::unique_ptr<Operator> child_;
  RowBatch in_;  // Child batches, drained by Fill.

  // Final merge state.
  std::vector<std::unique_ptr<TempRowFile>> runs_;
  Merge merge_;
  // SELECT DISTINCT: the last emitted row, for duplicate suppression.
  Row last_emitted_;
  bool emitted_any_ = false;
};

}  // namespace systemr

#endif  // SYSTEMR_EXEC_SORT_H_
