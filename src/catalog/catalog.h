// Catalog: relation, column, and index descriptors plus the optimizer
// statistics of §4:
//   NCARD(T)  relation cardinality
//   TCARD(T)  pages of the segment holding tuples of T
//   P(T)      TCARD / non-empty segment pages
//   ICARD(I)  distinct keys in index I
//   NINDX(I)  pages in index I
// Statistics are initialized at load/index-creation time and refreshed by the
// UPDATE STATISTICS command (update_statistics.cc); they are deliberately NOT
// maintained per-INSERT, mirroring the paper's locking-bottleneck argument.
#ifndef SYSTEMR_CATALOG_CATALOG_H_
#define SYSTEMR_CATALOG_CATALOG_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/column_stats.h"
#include "catalog/txn.h"
#include "common/schema.h"
#include "common/status.h"
#include "rss/rss.h"

namespace systemr {

struct IndexInfo {
  IndexId id = 0;
  std::string name;
  RelId rel = 0;
  std::vector<size_t> key_columns;  // Ordinals into the table schema.
  bool unique = false;
  /// Physical clustering (§3): tuples inserted in index order. Declared at
  /// creation; UPDATE STATISTICS re-measures it as `cluster_ratio`.
  bool clustered = false;

  // --- Statistics ---
  uint64_t icard = 0;          // ICARD: distinct full keys.
  uint64_t icard_leading = 0;  // Distinct values of the leading key column.
  uint64_t nindx = 0;          // NINDX: pages in the index.
  Value low_key;               // Min of the leading key column.
  Value high_key;              // Max of the leading key column.
  /// Fraction of consecutive index entries whose tuples share a page
  /// neighborhood; UPDATE STATISTICS sets clustered = (ratio >= 0.8).
  double cluster_ratio = 0.0;
};

struct TableInfo {
  RelId id = 0;
  std::string name;
  Schema schema;
  SegmentId segment = 0;
  std::vector<IndexId> indexes;

  // --- Statistics ---
  bool has_stats = false;  // Absent stats => the paper's default guesses.
  uint64_t ncard = 0;      // NCARD.
  uint64_t tcard = 0;      // TCARD.
  double p = 1.0;          // P(T).
  /// Per-column equi-depth histograms + distinct counts, indexed by column
  /// ordinal. Built by UPDATE STATISTICS; empty until then.
  std::vector<ColumnStats> column_stats;
  /// Set once kInsertsPerVersionBump row mutations have hit this table since
  /// its stats were built: the histograms may no longer reflect the data.
  /// EXPLAIN flags plans built on stale stats; UPDATE STATISTICS clears it.
  bool stats_stale = false;
  uint64_t mutations_since_stats = 0;
};

class Catalog {
 public:
  explicit Catalog(Rss* rss) : rss_(rss) {}
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates a table in a fresh segment (or in `segment` if given, so that
  /// several relations can share one segment as §3 allows).
  StatusOr<TableInfo*> CreateTable(const std::string& name, Schema schema,
                                   std::optional<SegmentId> segment =
                                       std::nullopt);

  /// Creates a B+-tree index over `column_names` and bulk-loads it from the
  /// table's current contents. Initializes the index statistics.
  StatusOr<IndexInfo*> CreateIndex(const std::string& index_name,
                                   const std::string& table_name,
                                   const std::vector<std::string>& column_names,
                                   bool unique, bool clustered);

  /// Inserts a row (also maintains all indexes on the table). Does NOT update
  /// statistics (see UPDATE STATISTICS). Atomic per row: a failed index
  /// maintenance (e.g. a unique-key violation) leaves no partial effects.
  /// With `txn`, the mutation is WAL-tagged with the transaction id and its
  /// logical inverse is recorded in the transaction's undo log.
  Status Insert(const std::string& table_name, const Row& row,
                Txn* txn = nullptr);

  /// Deletes the tuple at `tid` (heap tombstone + all index entries).
  /// Statistics are not updated (see UPDATE STATISTICS).
  Status DeleteRow(const std::string& table_name, Tid tid, Txn* txn = nullptr);

  /// Replaces the tuple at `tid` with `new_row` (delete + re-insert, so all
  /// indexes stay consistent; the tuple gets a new TID). Atomic: if the
  /// re-insert fails, the old row is restored in place at its original TID.
  Status UpdateRow(const std::string& table_name, Tid tid, const Row& new_row,
                   Txn* txn = nullptr);

  /// Applies the inverse of one recorded mutation — rollback's worker.
  /// WAL-tagged with `wal_txn` (compensations of a transaction that later
  /// commits must replay with it); records no further undo. Undoing a delete
  /// restores the row at its original placement, never a fresh TID.
  Status ApplyUndo(const UndoOp& op, TxnId wal_txn);

  /// The UPDATE STATISTICS command (§4): recomputes all statistics for the
  /// table from the stored data.
  Status UpdateStatistics(const std::string& table_name);

  TableInfo* FindTable(const std::string& name);
  const TableInfo* FindTable(const std::string& name) const;
  TableInfo* table(RelId id) {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return tables_[id].get();
  }
  const TableInfo* table(RelId id) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return tables_[id].get();
  }
  IndexInfo* index(IndexId id) {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return indexes_[id].get();
  }
  const IndexInfo* index(IndexId id) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return indexes_[id].get();
  }

  size_t num_tables() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return tables_.size();
  }
  Rss* rss() { return rss_; }
  const Rss* rss() const { return rss_; }

  /// Monotone schema/statistics version — the plan-cache invalidation fence.
  /// Bumped by CreateTable, CreateIndex, UpdateStatistics, and every
  /// kInsertsPerVersionBump inserts (a plan optimized against a version that
  /// is no longer current must be re-optimized; §2's dependency-driven
  /// recompilation, with a counter standing in for the dependency list).
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Row mutations (inserts/deletes) between automatic version bumps.
  /// Statistics stay stale by design (UPDATE STATISTICS owns them); the
  /// bump only un-pins cached plans so churning tables get re-optimized
  /// eventually.
  static constexpr uint64_t kInsertsPerVersionBump = 256;

  /// Extracts the index key of `row` for `info` as a composite key encoding.
  static std::string ExtractKey(const IndexInfo& info, const Row& row);

  /// Invalidates every cached plan immediately (recovery, after replay).
  void ForceVersionBump() { BumpVersion(); }

 private:
  // Unlocked implementations, for composition under one exclusive lock.
  TableInfo* FindTableLocked(const std::string& name);
  const TableInfo* FindTableLocked(const std::string& name) const;
  /// Heap + index insert with internal compensation: on index failure the
  /// already-made entries and the heap tuple are removed again. Each value
  /// is first coerced to its column (CoerceToColumn).
  Status InsertRowLocked(TableInfo* table, const Row& row, TxnId wal_txn,
                         Tid* out_tid);
  /// Index + heap delete with internal compensation; `*old_row` receives the
  /// deleted image, `*offset` (optional) its on-page byte offset — what
  /// UndeleteRowLocked needs to put it back exactly where it was.
  Status DeleteRowLocked(TableInfo* table, Tid tid, TxnId wal_txn,
                         Row* old_row, uint16_t* offset = nullptr);
  /// Restores a deleted row at its original (tid, offset) placement and
  /// re-creates its index entries under the same TID.
  Status UndeleteRowLocked(TableInfo* table, Tid tid, uint16_t offset,
                           const Row& row, TxnId wal_txn);
  /// Adds `row`'s entry under `tid` to every index of `table`, all or
  /// nothing: on a failure the entries already added are taken out again.
  Status InsertIndexEntriesLocked(const TableInfo& table, const Row& row,
                                  Tid tid);
  /// Removes `row`'s entry under `tid` from every index of `table`, all or
  /// nothing: on a failure the entries already removed are put back.
  Status DeleteIndexEntriesLocked(const TableInfo& table, const Row& row,
                                  Tid tid);
  void BumpMutationCountersLocked(TableInfo* table);
  Status UpdateStatisticsLocked(const std::string& table_name);
  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }

  Rss* rss_;
  // Readers (name lookup, descriptor access) take mu_ shared; every DDL,
  // DML, and statistics write takes it exclusive. Descriptors live behind
  // unique_ptr, so reader-held pointers stay valid across table creation.
  mutable std::shared_mutex mu_;
  std::atomic<uint64_t> version_{1};
  uint64_t mutations_since_bump_ = 0;  // Guarded by mu_.
  std::vector<std::unique_ptr<TableInfo>> tables_;
  std::vector<std::unique_ptr<IndexInfo>> indexes_;
  std::unordered_map<std::string, RelId> table_by_name_;
};

}  // namespace systemr

#endif  // SYSTEMR_CATALOG_CATALOG_H_
