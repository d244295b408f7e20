#include "rss/scan.h"

#include "rss/meter.h"

namespace systemr {

namespace {

bool HasPrefix(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

// Meters the tuples one NextBatch call delivered: one RSI call each (§4).
void CountRsiCalls(RssCounters* counters, size_t n) {
  if (n == 0) return;
  counters->rsi_calls.fetch_add(n, std::memory_order_relaxed);
  if (ExecStats* m = CurrentMeter()) m->rsi_calls += n;
}

// The row that the next delivered tuple decodes into, grown on demand to
// the caller's row width.
Row* RowAt(std::vector<Row>* rows, std::vector<Tid>* tids, size_t i,
           size_t width) {
  if (rows->size() <= i) rows->resize(i + 1);
  if (tids->size() <= i) tids->resize(i + 1);
  Row* row = &(*rows)[i];
  if (row->size() < width) row->resize(width);
  return row;
}

}  // namespace

Status SegmentScan::Open() {
  page_idx_ = range_begin_;
  slot_ = 0;
  at_end_ = page_idx_ >= PageLimit();
  return Status::OK();
}

Status SegmentScan::NextBatch(std::vector<Row>* rows, std::vector<Tid>* tids,
                              size_t max_rows, size_t* n) {
  size_t count = 0;
  while (!at_end_ && count < max_rows) {
    PageId pid = segment_->pages()[page_idx_];
    ASSIGN_OR_RETURN(Page * page, pool_->Fetch(pid));
    SlottedPage sp(page);
    if (slot_ == 0 && !sp.ValidateHeader()) {
      return Status::DataLoss("corrupt slotted page " + std::to_string(pid));
    }
    // Decode every remaining slot of this page under the one buffer get
    // above.
    while (slot_ < sp.slot_count() && count < max_rows) {
      uint16_t slot = slot_++;
      std::string_view record;
      switch (sp.ReadSlot(slot, &record)) {
        case SlotState::kEmpty:
          continue;  // Tombstone.
        case SlotState::kCorrupt:
          return Status::DataLoss("corrupt slot directory on page " +
                                  std::to_string(pid));
        case SlotState::kLive:
          break;
      }
      RelId rel;
      if (!DecodeRelId(record, &rel)) {
        return Status::DataLoss("undecodable record on page " +
                                std::to_string(pid));
      }
      if (rel != relid_) continue;  // Tuple of a co-located relation.
      Row* row = RowAt(rows, tids, count, slice_.width);
      if (!DecodeTupleAt(record, &rel, slice_.offset, row)) {
        return Status::DataLoss("undecodable tuple on page " +
                                std::to_string(pid));
      }
      if (!MatchesAll(sargs_, *row, slice_.offset)) continue;
      (*tids)[count++] = Tid{pid, slot};
    }
    if (slot_ >= sp.slot_count()) {
      ++page_idx_;
      slot_ = 0;
      if (page_idx_ >= PageLimit()) at_end_ = true;
    }
  }
  CountRsiCalls(counters_, count);
  *n = count;
  return Status::OK();
}

Status IndexScan::Open() {
  if (range_.start.has_value()) {
    RETURN_IF_ERROR(cursor_.Seek(*range_.start));
    if (!range_.start_inclusive) {
      // Skip entries whose leading key column(s) equal the exclusive start.
      while (cursor_.Valid() && HasPrefix(cursor_.user_key(), *range_.start)) {
        RETURN_IF_ERROR(cursor_.Next());
      }
    }
  } else {
    RETURN_IF_ERROR(cursor_.SeekToFirst());
  }
  return Status::OK();
}

bool IndexScan::InRange() const {
  if (!range_.stop.has_value()) return true;
  std::string_view key = cursor_.user_key();
  const std::string& stop = *range_.stop;
  if (HasPrefix(key, stop)) return range_.stop_inclusive;
  return key.compare(stop) < 0;
}

Status IndexScan::NextBatch(std::vector<Row>* rows, std::vector<Tid>* tids,
                            size_t max_rows, size_t* n) {
  size_t count = 0;
  while (count < max_rows && cursor_.Valid() && InRange()) {
    Tid t = cursor_.tid();
    Row* row = RowAt(rows, tids, count, slice_.width);
    Status read = heap_->ReadTuple(t, row, slice_.offset);
    RETURN_IF_ERROR(cursor_.Next());
    if (!read.ok()) {
      // A deleted tuple leaves a dangling entry until the index is
      // reorganized — skip it. Anything else (kDataLoss, kIoError,
      // kInternal) is a storage failure and must propagate.
      if (read.code() == StatusCode::kNotFound) continue;
      return read;
    }
    if (!MatchesAll(sargs_, *row, slice_.offset)) continue;
    (*tids)[count++] = t;
  }
  CountRsiCalls(counters_, count);
  *n = count;
  return Status::OK();
}

Status ScanAll(RsiScan* scan, const std::function<Status(Row&, Tid)>& fn) {
  // Any batch size delivers the same tuples; this one bounds the buffers.
  constexpr size_t kRowsPerCall = 256;
  RETURN_IF_ERROR(scan->Open());
  std::vector<Row> rows;
  std::vector<Tid> tids;
  size_t n = 0;
  do {
    RETURN_IF_ERROR(scan->NextBatch(&rows, &tids, kRowsPerCall, &n));
    for (size_t i = 0; i < n; ++i) RETURN_IF_ERROR(fn(rows[i], tids[i]));
  } while (n > 0);
  scan->Close();
  return Status::OK();
}

}  // namespace systemr
