// The RSI (RSS Interface): scans with OPEN / NEXT / CLOSE (§3). NEXT
// delivers the next qualifying tuples a batch at a time (NextBatch); each
// tuple delivered still counts as one RSI call, so the paper's per-tuple
// CPU term is unchanged by batching. Two scan types exist, exactly as in the
// paper:
//  - SegmentScan: touches every page of the segment once, returning tuples of
//    the requested relation;
//  - IndexScan: walks the chained B+-tree leaves between optional start and
//    stop keys, fetching the data tuple for each qualifying entry.
// Both apply SARGs below the interface: a tuple rejected by the SARGs costs
// no RSI call.
#ifndef SYSTEMR_RSS_SCAN_H_
#define SYSTEMR_RSS_SCAN_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "rss/btree.h"
#include "rss/heap_file.h"
#include "rss/sarg.h"

namespace systemr {

/// Counters shared by all scans of one RSS instance (atomic: scans from
/// concurrent sessions increment them). RSI calls approximate CPU cost in
/// the paper's COST formula (§4). Process-level observability only: each
/// statement's own RSI count is in its ExecStats (rss/meter.h).
struct RssCounters {
  std::atomic<uint64_t> rsi_calls{0};
};

/// Where a scan puts each delivered tuple in its caller's rows: columns
/// [offset, offset + ncols) of a row at least `width` wide, as DecodeTupleAt
/// places them, the row's other columns untouched. The executor's
/// block-width rows give each table of a query block its own slice; the
/// default is a bare tuple.
struct RowSlice {
  size_t offset = 0;
  size_t width = 0;
};

/// A scan takes a *set* of SARGs — the conjunction of the sargable boolean
/// factors, each of which is itself a DNF (§3/§4).
using SargList = std::vector<Sarg>;

inline bool MatchesAll(const SargList& sargs, const Row& row,
                       size_t offset) {
  for (const Sarg& s : sargs) {
    if (!s.Matches(row, offset)) return false;
  }
  return true;
}

class RsiScan {
 public:
  virtual ~RsiScan() = default;

  /// Positions the scan at the start. May be called repeatedly: a re-Open
  /// resets the position, so one scan object serves every probe of a
  /// nested-loop inner or correlated subquery.
  virtual Status Open() = 0;

  /// NEXT: delivers up to `max_rows` qualifying tuples into rows[0..*n)
  /// and their TIDs into tids[0..*n); *n is 0 only at the end of the scan.
  /// Each tuple lands in its row at the RowSlice the scan was opened with.
  /// `rows` and `tids` grow to the largest batch delivered and are never
  /// shrunk, so a caller that reuses them allocates nothing after its first
  /// full batch. Each tuple delivered counts one RSI call. Storage failures
  /// (kDataLoss, kIoError, kInternal) return non-OK; only a dangling index
  /// entry (the tuple was deleted) is skipped silently.
  virtual Status NextBatch(std::vector<Row>* rows, std::vector<Tid>* tids,
                           size_t max_rows, size_t* n) = 0;

  /// Mutable view of the scan's SARGs, so dynamically-bound terms (§5 join
  /// SARGs) can be updated in place between re-Opens instead of rebuilding
  /// the scan.
  virtual SargList* mutable_sargs() = 0;

  virtual void Close() = 0;
};

class SegmentScan : public RsiScan {
 public:
  SegmentScan(BufferPool* pool, const Segment* segment, RelId relid,
              SargList sargs, RssCounters* counters, RowSlice slice)
      : pool_(pool),
        segment_(segment),
        relid_(relid),
        sargs_(std::move(sargs)),
        counters_(counters),
        slice_(slice) {}

  Status Open() override;
  /// Page at a time: every remaining slot of a page is decoded under one
  /// buffer get, so a segment scan pays one get per page visit.
  Status NextBatch(std::vector<Row>* rows, std::vector<Tid>* tids,
                   size_t max_rows, size_t* n) override;
  SargList* mutable_sargs() override { return &sargs_; }
  void Close() override {}

  /// Restricts the scan to segment pages [begin, end) — the morsel contract
  /// for parallel execution. The range persists across re-Opens (Open resets
  /// the position to `begin`); `end` is clamped to the segment size. The
  /// default range covers the whole segment.
  void SetPageRange(size_t begin, size_t end) {
    range_begin_ = begin;
    range_end_ = end;
  }

 private:
  size_t PageLimit() const {
    return range_end_ < segment_->pages().size() ? range_end_
                                                 : segment_->pages().size();
  }

  BufferPool* pool_;
  const Segment* segment_;
  RelId relid_;
  SargList sargs_;
  RssCounters* counters_;
  RowSlice slice_;

  size_t page_idx_ = 0;
  uint16_t slot_ = 0;
  bool at_end_ = false;
  size_t range_begin_ = 0;
  size_t range_end_ = SIZE_MAX;  // Exclusive; SIZE_MAX = whole segment.
};

/// Key range for an index scan. Bounds are user-key encodings (possibly a
/// prefix of the full index key).
struct KeyRange {
  std::optional<std::string> start;
  bool start_inclusive = true;
  std::optional<std::string> stop;
  bool stop_inclusive = true;
};

class IndexScan : public RsiScan {
 public:
  IndexScan(const BTree* index, const HeapFile* heap, KeyRange range,
            SargList sargs, RssCounters* counters, RowSlice slice)
      : index_(index),
        heap_(heap),
        range_(std::move(range)),
        sargs_(std::move(sargs)),
        counters_(counters),
        slice_(slice),
        cursor_(index->NewCursor()) {}

  Status Open() override;
  /// One data-page get per qualifying index entry, as in the paper's index
  /// scan cost.
  Status NextBatch(std::vector<Row>* rows, std::vector<Tid>* tids,
                   size_t max_rows, size_t* n) override;
  SargList* mutable_sargs() override { return &sargs_; }
  void Close() override {}

  /// Replaces the key range before a re-Open (nested-loop rebinding).
  void set_range(KeyRange range) { range_ = std::move(range); }

 private:
  /// True if the cursor's current key is within the stop bound.
  bool InRange() const;

  const BTree* index_;
  const HeapFile* heap_;
  KeyRange range_;
  SargList sargs_;
  RssCounters* counters_;
  RowSlice slice_;
  BTree::Cursor cursor_;
};

/// Reads a whole relation through `scan`: Open, NextBatch to the end, Close,
/// handing every delivered tuple and its TID to `fn` (which may move the
/// row out). For RSS-level readers that want every tuple: index bulk loads,
/// recovery's tuple recount, test dumps.
Status ScanAll(RsiScan* scan, const std::function<Status(Row&, Tid)>& fn);

}  // namespace systemr

#endif  // SYSTEMR_RSS_SCAN_H_
