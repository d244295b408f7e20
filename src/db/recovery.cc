// Crash recovery: rebuilds a database from the WAL prefix that survived a
// crash. Redo-committed-only (see DESIGN.md §9): the analysis pass finds the
// checksummed-valid log prefix and the set of transactions whose COMMIT
// record lies inside it; the redo pass replays page records of exactly those
// transactions, at their logged (slot, offset) placement, so interleaved
// loser records leave holes that read back as tombstones. Page allocations
// replay regardless of their transaction's outcome — a committed transaction
// may well have inserted into a page a loser allocated, and the segment's
// page list must match what the log's offsets assume. CREATE INDEX and
// UPDATE STATISTICS are logical records, deferred to after all data redo and
// re-run against the recovered heaps.
#include <unordered_set>

#include "db/database.h"

namespace systemr {

namespace {

/// Makes sure `page` exists in the store. Pages the log never mentions
/// (B+-tree nodes, temp pages) still consumed ids at runtime, so the id
/// space can have gaps; fill them with blank pages to keep logged ids
/// pointing at the same physical slots.
Status EnsureAllocated(Rss* rss, PageId page) {
  while (rss->store().num_pages() <= page) {
    rss->pool().NewPage();
  }
  if (rss->store().Get(page) == nullptr) {
    return Status::DataLoss("recovered page " + std::to_string(page) +
                            " is not allocatable");
  }
  return Status::OK();
}

}  // namespace

StatusOr<Database::RecoveryStats> Database::Recover(
    const std::string& wal_bytes) {
  if (catalog_.num_tables() != 0 || rss_.wal().size() != 0) {
    return Status::InvalidArgument(
        "Recover() requires a freshly-constructed empty database");
  }
  RecoveryStats stats;

  // --- Pass 1: analysis. Decode the valid prefix; a truncated or
  // checksum-failing record ends the log (torn write), and everything after
  // it is discarded.
  std::vector<WalRecord> records;
  std::unordered_set<TxnId> committed{kSystemTxn};
  TxnId max_txn = 0;
  {
    WalReader reader(wal_bytes);
    WalRecord rec;
    while (reader.Next(&rec)) {
      max_txn = std::max(max_txn, rec.txn);
      if (rec.type == WalRecordType::kCommit) committed.insert(rec.txn);
      records.push_back(rec);
    }
    stats.valid_prefix = reader.valid_prefix();
    stats.dropped_bytes = wal_bytes.size() - stats.valid_prefix;
  }
  stats.committed_txns = committed.size() - 1;

  // --- Pass 2: redo. Logging is off so the replay does not re-write the
  // records it is reading.
  rss_.wal().set_enabled(false);
  std::vector<const WalRecord*> deferred_ddl;
  Status redo = [&]() -> Status {
    for (const WalRecord& rec : records) {
      switch (rec.type) {
        case WalRecordType::kBegin:
        case WalRecordType::kCommit:
        case WalRecordType::kAbort:
          break;
        case WalRecordType::kPageAlloc: {
          if (rec.segment >= rss_.num_segments()) {
            return Status::DataLoss("page alloc into unknown segment " +
                                    std::to_string(rec.segment));
          }
          RETURN_IF_ERROR(EnsureAllocated(&rss_, rec.page));
          rss_.segment(rec.segment)->AddPage(rec.page);
          ASSIGN_OR_RETURN(Page * page, rss_.pool().FetchMut(rec.page));
          SlottedPage(page).Init();
          break;
        }
        case WalRecordType::kPageInsert: {
          if (committed.count(rec.txn) == 0) {
            ++stats.skipped;
            break;
          }
          ASSIGN_OR_RETURN(Page * page, rss_.pool().FetchMut(rec.page));
          if (!SlottedPage(page).RedoInsertAt(rec.slot, rec.offset,
                                              rec.payload)) {
            return Status::DataLoss(
                "redo insert does not fit the recovered layout of page " +
                std::to_string(rec.page));
          }
          ++stats.replayed;
          break;
        }
        case WalRecordType::kPageDelete: {
          if (committed.count(rec.txn) == 0) {
            ++stats.skipped;
            break;
          }
          ASSIGN_OR_RETURN(Page * page, rss_.pool().FetchMut(rec.page));
          // The target was inserted by a committed transaction (strict 2PL:
          // nothing else was visible to the deleter), so it was replayed.
          if (!SlottedPage(page).Delete(rec.slot)) {
            return Status::DataLoss("redo delete of an empty slot on page " +
                                    std::to_string(rec.page));
          }
          ++stats.replayed;
          break;
        }
        case WalRecordType::kCreateTable: {
          CreateTablePayload p;
          if (!DecodeCreateTablePayload(rec.payload, &p)) {
            return Status::DataLoss("undecodable CREATE TABLE record");
          }
          ASSIGN_OR_RETURN(
              TableInfo * ignored,
              catalog_.CreateTable(p.name, p.schema,
                                   p.has_segment
                                       ? std::optional<SegmentId>(p.segment)
                                       : std::nullopt));
          (void)ignored;
          break;
        }
        case WalRecordType::kCreateIndex:
        case WalRecordType::kUpdateStats:
          // Rebuilt from the recovered heaps once all data redo is done.
          deferred_ddl.push_back(&rec);
          break;
      }
    }

    // Deferred logical DDL, in original order — so index ids (and hence
    // plan-visible physical design) come out exactly as before the crash.
    for (const WalRecord* rec : deferred_ddl) {
      if (rec->type == WalRecordType::kCreateIndex) {
        CreateIndexPayload p;
        if (!DecodeCreateIndexPayload(rec->payload, &p)) {
          return Status::DataLoss("undecodable CREATE INDEX record");
        }
        ASSIGN_OR_RETURN(IndexInfo * ignored,
                         catalog_.CreateIndex(p.name, p.table, p.columns,
                                              p.unique, p.clustered));
        (void)ignored;
      } else {
        RETURN_IF_ERROR(catalog_.UpdateStatistics(rec->payload));
      }
    }
    return Status::OK();
  }();
  rss_.wal().set_enabled(true);
  RETURN_IF_ERROR(redo);

  // Carry the surviving valid prefix forward as the new log: the recovered
  // database keeps appending after it (and can crash and recover again).
  // Everything in it is durable by definition — it survived.
  rss_.wal().ResetTo(wal_bytes.substr(0, stats.valid_prefix),
                     stats.valid_prefix);
  next_txn_id_.store(max_txn + 1, std::memory_order_relaxed);
  catalog_.ForceVersionBump();
  return stats;
}

}  // namespace systemr
