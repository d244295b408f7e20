#include "exec/sort.h"

#include <algorithm>

#include "rss/segment.h"

namespace systemr {

Status TempRowFile::Append(const Row& row) {
  std::string record = EncodeTuple(0, row);
  if (record.size() > kPageSize - 64) {
    return Status::InvalidArgument("row too large for a temp page");
  }
  if (current_ != kInvalidPage) {
    ASSIGN_OR_RETURN(Page * page, ctx_->rss()->pool().FetchMut(current_));
    SlottedPage sp(page);
    if (sp.Insert(record) >= 0) return Status::OK();
  }
  current_ = ctx_->NewTempPage();
  pages_.push_back(current_);
  ASSIGN_OR_RETURN(Page * fresh, ctx_->rss()->pool().FetchMut(current_));
  SlottedPage sp(fresh);
  sp.Init();
  if (sp.Insert(record) < 0) {
    return Status::Internal("temp page insert failed");
  }
  return Status::OK();
}

void TempRowFile::Finish() { current_ = kInvalidPage; }

Status TempRowFile::Reader::Next(Row* row, bool* has_row) {
  *has_row = false;
  while (page_idx_ < pages_->size()) {
    PageId pid = (*pages_)[page_idx_];
    ASSIGN_OR_RETURN(Page * page, ctx_->rss()->pool().Fetch(pid));
    SlottedPage sp(page);
    if (slot_ >= sp.slot_count()) {
      ++page_idx_;
      slot_ = 0;
      continue;
    }
    std::string_view record;
    switch (sp.ReadSlot(slot_++, &record)) {
      case SlotState::kEmpty:
        continue;
      case SlotState::kCorrupt:
        return Status::DataLoss("corrupt temp page " + std::to_string(pid));
      case SlotState::kLive:
        break;
    }
    RelId rel;
    if (!DecodeTuple(record, &rel, row)) {
      return Status::DataLoss("undecodable row on temp page " +
                              std::to_string(pid));
    }
    *has_row = true;
    return Status::OK();
  }
  return Status::OK();
}

int SortOp::Compare(const Row& a, const Row& b) const {
  for (const SortKey& k : node_->sort_keys) {
    int c = a[k.offset].Compare(b[k.offset]);
    if (c != 0) return k.asc ? c : -c;
  }
  return 0;
}

size_t SortOp::RunLimitBytes() const {
  size_t buffers = std::max<size_t>(ctx_->rss()->pool().capacity(), 4);
  return buffers / 2 * kPageSize;
}

Status SortOp::SpillRun(std::vector<Row>* rows) {
  std::stable_sort(rows->begin(), rows->end(),
                   [this](const Row& a, const Row& b) {
                     return Compare(a, b) < 0;
                   });
  auto run = std::make_unique<TempRowFile>(ctx_);
  for (const Row& r : *rows) {
    RETURN_IF_ERROR(run->Append(r));
  }
  run->Finish();
  runs_.push_back(std::move(run));
  rows->clear();
  return Status::OK();
}

Status SortOp::MergePass(std::vector<std::unique_ptr<TempRowFile>>* runs) {
  size_t fanin = std::max<size_t>(ctx_->rss()->pool().capacity(), 3) - 1;
  while (runs->size() > fanin) {
    std::vector<std::unique_ptr<TempRowFile>> next;
    for (size_t start = 0; start < runs->size(); start += fanin) {
      size_t end = std::min(start + fanin, runs->size());
      auto merged = std::make_unique<TempRowFile>(ctx_);
      Merge merge;
      RETURN_IF_ERROR(StartMerge(*runs, start, end, &merge));
      for (int i = Smallest(merge); i >= 0; i = Smallest(merge)) {
        RETURN_IF_ERROR(merged->Append(merge.heads[i].row));
        RETURN_IF_ERROR(merge.Advance(i));
      }
      merged->Finish();
      next.push_back(std::move(merged));
    }
    *runs = std::move(next);
  }
  return Status::OK();
}

Status SortOp::StartMerge(const std::vector<std::unique_ptr<TempRowFile>>& runs,
                          size_t begin, size_t end, Merge* merge) const {
  merge->readers.clear();
  for (size_t i = begin; i < end; ++i) {
    merge->readers.push_back(runs[i]->NewReader());
  }
  merge->heads.assign(merge->readers.size(), Merge::Head{});
  for (size_t i = 0; i < merge->readers.size(); ++i) {
    RETURN_IF_ERROR(merge->Advance(i));
  }
  return Status::OK();
}

int SortOp::Smallest(const Merge& merge) const {
  int best = -1;
  for (size_t i = 0; i < merge.heads.size(); ++i) {
    if (!merge.heads[i].valid) continue;
    if (best < 0 || Compare(merge.heads[i].row, merge.heads[best].row) < 0) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

Status SortOp::Open() {
  RETURN_IF_ERROR(child_->Open());
  return Fill();
}

Status SortOp::Rebind(const Row* outer) {
  RETURN_IF_ERROR(child_->Rebind(outer));
  return Fill();
}

Status SortOp::Fill() {
  runs_.clear();
  emitted_any_ = false;
  std::vector<Row> buffer;
  size_t buffered_bytes = 0;
  size_t limit = RunLimitBytes();
  while (true) {
    bool has;
    RETURN_IF_ERROR(child_->NextBatch(&in_, &has));
    if (!has) break;
    for (uint32_t idx : in_.sel) {
      Row& row = in_.rows[idx];
      buffered_bytes += row.size() * 16;  // Rough in-memory estimate.
      buffer.push_back(std::move(row));
      if (buffered_bytes >= limit) {
        RETURN_IF_ERROR(SpillRun(&buffer));
        buffered_bytes = 0;
      }
    }
  }
  // The temporary list is always materialized, as in the paper ("stored in a
  // temporary relation before it can be sorted").
  RETURN_IF_ERROR(SpillRun(&buffer));
  RETURN_IF_ERROR(MergePass(&runs_));
  return StartMerge(runs_, 0, runs_.size(), &merge_);
}

Status SortOp::NextBatch(RowBatch* out, bool* has_batch) {
  out->Clear();
  while (out->filled < out->capacity) {
    int i = Smallest(merge_);
    if (i < 0) break;
    Row& head = merge_.heads[i].row;
    if (node_->distinct && emitted_any_ && Compare(head, last_emitted_) == 0) {
      // Duplicate under the sort keys: suppress.
      RETURN_IF_ERROR(merge_.Advance(i));
      continue;
    }
    // Hand the head row to the batch; the reader decodes its next row into
    // the batch row's old buffer.
    Row& dst = out->Append();
    std::swap(dst, head);
    if (node_->distinct) {
      last_emitted_ = dst;
      emitted_any_ = true;
    }
    RETURN_IF_ERROR(merge_.Advance(i));
  }
  out->SelectAll();
  *has_batch = out->filled > 0;
  return Status::OK();
}

}  // namespace systemr
