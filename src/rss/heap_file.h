// HeapFile: a relation's tuple storage inside a segment. Appends records to
// the segment's last page, spilling to a fresh page when full — so a relation
// loaded in key order stays physically clustered on that key, which is
// exactly how the paper's "clustered index" property arises (§3).
//
// Every structural mutation is redo-logged through the segment's WAL (when
// one is attached): page allocations, inserts with their exact (slot, offset)
// placement, and deletes. The `txn` tag on Insert/Delete attributes the
// record to a transaction; kSystemTxn marks auto-committed system work.
#ifndef SYSTEMR_RSS_HEAP_FILE_H_
#define SYSTEMR_RSS_HEAP_FILE_H_

#include "common/status.h"
#include "rss/segment.h"
#include "rss/wal.h"

namespace systemr {

class HeapFile {
 public:
  HeapFile(Segment* segment, BufferPool* pool, RelId relid,
           WalManager* wal = nullptr)
      : segment_(segment), pool_(pool), relid_(relid), wal_(wal) {}

  RelId relid() const { return relid_; }
  Segment* segment() { return segment_; }
  const Segment* segment() const { return segment_; }

  /// Appends a tuple; returns its TID. Logged under `txn`.
  StatusOr<Tid> Insert(const Row& row, TxnId txn = kSystemTxn);

  /// Fetches the tuple at `tid` (metered through the buffer pool) into
  /// (*row)[offset, offset + ncols), as DecodeTupleAt does. Returns NotFound
  /// if the slot is empty or holds a tuple of another relation.
  Status ReadTuple(Tid tid, Row* row, size_t offset = 0) const;

  /// Tombstones the tuple at `tid`. Returns NotFound if the slot is empty
  /// or belongs to another relation. Logged under `txn`. `offset`, when
  /// non-null, receives the record's on-page byte offset — the exact
  /// placement Undelete needs to restore it.
  Status Delete(Tid tid, TxnId txn = kSystemTxn, uint16_t* offset = nullptr);

  /// Restores a tombstoned tuple at its original placement. Tombstoned bytes
  /// are never reclaimed (free_end never retreats), so the space is always
  /// still there; the slot must currently be empty. Logged as a plain
  /// kPageInsert at (tid.slot, offset) under `txn` — physically identical to
  /// the original insert, which is what keeps the live heap byte-for-byte in
  /// agreement with a committed-only WAL replay (see DESIGN.md §9): undoing
  /// a delete never moves the row, so later transactions' logged placements
  /// stay valid whether or not this transaction's records are replayed.
  Status Undelete(Tid tid, uint16_t offset, const Row& row,
                  TxnId txn = kSystemTxn);

 private:
  Segment* segment_;
  BufferPool* pool_;
  RelId relid_;
  WalManager* wal_;
};

}  // namespace systemr

#endif  // SYSTEMR_RSS_HEAP_FILE_H_
