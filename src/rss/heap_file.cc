#include "rss/heap_file.h"

namespace systemr {

StatusOr<Tid> HeapFile::Insert(const Row& row, TxnId txn) {
  std::string record = EncodeTuple(relid_, row);
  if (record.size() > kPageSize - 64) {
    return Status::InvalidArgument("tuple does not fit on a 4K page");
  }
  // Try the segment's last page first.
  if (!segment_->pages().empty()) {
    PageId last = segment_->pages().back();
    ASSIGN_OR_RETURN(Page * page, pool_->FetchMut(last));
    SlottedPage sp(page);
    int slot = sp.Insert(record);
    if (slot >= 0) {
      if (wal_ != nullptr) {
        WalRecord rec;
        rec.type = WalRecordType::kPageInsert;
        rec.txn = txn;
        rec.page = last;
        rec.slot = static_cast<uint16_t>(slot);
        rec.offset = sp.free_end();  // Insert() placed the record here.
        rec.payload = std::move(record);
        wal_->Append(rec);
      }
      return Tid{last, static_cast<uint16_t>(slot)};
    }
  }
  PageId fresh = pool_->NewPage();
  segment_->AddPage(fresh);
  ASSIGN_OR_RETURN(Page * page, pool_->FetchMut(fresh));
  SlottedPage sp(page);
  sp.Init();
  int slot = sp.Insert(record);
  if (slot < 0) return Status::Internal("insert into fresh page failed");
  if (wal_ != nullptr) {
    WalRecord alloc;
    alloc.type = WalRecordType::kPageAlloc;
    alloc.txn = txn;
    alloc.page = fresh;
    alloc.segment = segment_->id();
    wal_->Append(alloc);
    WalRecord rec;
    rec.type = WalRecordType::kPageInsert;
    rec.txn = txn;
    rec.page = fresh;
    rec.slot = static_cast<uint16_t>(slot);
    rec.offset = sp.free_end();
    rec.payload = std::move(record);
    wal_->Append(rec);
  }
  return Tid{fresh, static_cast<uint16_t>(slot)};
}

Status HeapFile::Delete(Tid tid, TxnId txn, uint16_t* offset) {
  Row row;
  RETURN_IF_ERROR(ReadTuple(tid, &row));  // Validates slot and relation tag.
  ASSIGN_OR_RETURN(Page * page, pool_->FetchMut(tid.page));
  SlottedPage sp(page);
  if (offset != nullptr) {
    // Where the record lives, before the tombstone erases the slot entry.
    std::string_view record;
    if (sp.ReadSlot(tid.slot, &record) != SlotState::kLive) {
      return Status::NotFound("slot already empty");
    }
    *offset = static_cast<uint16_t>(record.data() - page->bytes.data());
  }
  if (!sp.Delete(tid.slot)) return Status::NotFound("slot already empty");
  if (wal_ != nullptr) {
    WalRecord rec;
    rec.type = WalRecordType::kPageDelete;
    rec.txn = txn;
    rec.page = tid.page;
    rec.slot = tid.slot;
    wal_->Append(rec);
  }
  return Status::OK();
}

Status HeapFile::Undelete(Tid tid, uint16_t offset, const Row& row,
                          TxnId txn) {
  std::string record = EncodeTuple(relid_, row);
  ASSIGN_OR_RETURN(Page * page, pool_->FetchMut(tid.page));
  SlottedPage sp(page);
  std::string_view existing;
  if (sp.ReadSlot(tid.slot, &existing) != SlotState::kEmpty) {
    return Status::Internal("undelete target slot is not empty");
  }
  if (!sp.RedoInsertAt(tid.slot, offset, record)) {
    return Status::Internal("undelete placement does not fit page " +
                            std::to_string(tid.page));
  }
  if (wal_ != nullptr) {
    WalRecord rec;
    rec.type = WalRecordType::kPageInsert;
    rec.txn = txn;
    rec.page = tid.page;
    rec.slot = tid.slot;
    rec.offset = offset;
    rec.payload = std::move(record);
    wal_->Append(rec);
  }
  return Status::OK();
}

Status HeapFile::ReadTuple(Tid tid, Row* row, size_t offset) const {
  ASSIGN_OR_RETURN(Page * page, pool_->Fetch(tid.page));
  SlottedPage sp(page);
  std::string_view record;
  switch (sp.ReadSlot(tid.slot, &record)) {
    case SlotState::kEmpty:
      return Status::NotFound("empty slot");
    case SlotState::kCorrupt:
      return Status::DataLoss("corrupt slot directory on page " +
                              std::to_string(tid.page));
    case SlotState::kLive:
      break;
  }
  RelId rel;
  if (!DecodeTupleAt(record, &rel, offset, row)) {
    return Status::DataLoss("undecodable record at live slot on page " +
                            std::to_string(tid.page));
  }
  if (rel != relid_) {
    return Status::NotFound("tuple belongs to another relation");
  }
  return Status::OK();
}

}  // namespace systemr
