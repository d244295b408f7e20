// The UPDATE STATISTICS command (§4): recomputes NCARD, TCARD, P, ICARD,
// NINDX, key ranges, and the measured clustering ratio from the stored data.
// System R runs this periodically rather than on every INSERT/DELETE/UPDATE,
// to avoid serializing writers on the catalogs; we reproduce that contract —
// the optimizer sees the statistics snapshot, not live counts.
#include <mutex>
#include <set>

#include "catalog/catalog.h"

namespace systemr {

Status Catalog::UpdateStatistics(const std::string& table_name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  RETURN_IF_ERROR(UpdateStatisticsLocked(table_name));
  // Logical WAL record: recovery re-runs the command against the recovered
  // data rather than replaying statistics bytes.
  WalRecord rec;
  rec.type = WalRecordType::kUpdateStats;
  rec.payload = table_name;
  rss_->wal().Append(rec);
  rss_->wal().Sync();
  // New statistics invalidate every cached plan compiled against the old
  // ones (§2's "dependency" invalidation).
  BumpVersion();
  return Status::OK();
}

Status Catalog::UpdateStatisticsLocked(const std::string& table_name) {
  TableInfo* table = FindTableLocked(table_name);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + table_name);
  }

  // --- Relation statistics: NCARD, TCARD, P + per-column histograms ---
  const Segment* segment = rss_->heap(table->id)->segment();
  BufferPool& pool = rss_->pool();
  uint64_t ncard = 0;
  std::set<PageId> pages_with_t;
  uint64_t non_empty_pages = 0;
  const size_t ncols = table->schema.num_columns();
  std::vector<std::vector<Value>> column_values(ncols);
  for (PageId pid : segment->pages()) {
    ASSIGN_OR_RETURN(Page * page, pool.Fetch(pid));
    SlottedPage sp(page);
    if (!sp.ValidateHeader()) {
      return Status::DataLoss("corrupt slotted page " + std::to_string(pid));
    }
    bool page_non_empty = false;
    for (uint16_t slot = 0; slot < sp.slot_count(); ++slot) {
      std::string_view record;
      switch (sp.ReadSlot(slot, &record)) {
        case SlotState::kEmpty:
          continue;
        case SlotState::kCorrupt:
          return Status::DataLoss("corrupt slot directory on page " +
                                  std::to_string(pid));
        case SlotState::kLive:
          break;
      }
      page_non_empty = true;
      RelId rel;
      if (!DecodeRelId(record, &rel)) {
        return Status::DataLoss("undecodable record on page " +
                                std::to_string(pid));
      }
      if (rel == table->id) {
        ++ncard;
        pages_with_t.insert(pid);
        Row row;
        if (!DecodeTuple(record, &rel, &row) || row.size() != ncols) {
          return Status::DataLoss("undecodable tuple on page " +
                                  std::to_string(pid));
        }
        for (size_t c = 0; c < ncols; ++c) {
          column_values[c].push_back(std::move(row[c]));
        }
      }
    }
    if (page_non_empty) ++non_empty_pages;
  }
  table->ncard = ncard;
  table->tcard = pages_with_t.size();
  table->p = non_empty_pages == 0
                 ? 1.0
                 : static_cast<double>(table->tcard) / non_empty_pages;
  table->has_stats = true;
  table->column_stats.clear();
  table->column_stats.reserve(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    table->column_stats.push_back(BuildColumnStats(std::move(column_values[c])));
  }
  table->stats_stale = false;
  table->mutations_since_stats = 0;

  // --- Index statistics: ICARD, NINDX, key range, clustering ---
  for (IndexId iid : table->indexes) {
    IndexInfo* info = indexes_[iid].get();
    const BTree* btree = rss_->index(iid);
    info->nindx = btree->num_pages();

    uint64_t icard = 0;
    uint64_t icard_leading = 0;
    std::string prev_full;
    std::string prev_leading;
    bool first = true;
    Value low, high;
    uint64_t adjacent = 0;
    uint64_t total_steps = 0;
    PageId prev_page = kInvalidPage;

    BTree::Cursor cursor = btree->NewCursor();
    RETURN_IF_ERROR(cursor.SeekToFirst());
    while (cursor.Valid()) {
      std::string_view key = cursor.user_key();
      // Leading key column: decode to find its encoding boundary and value.
      size_t pos = 0;
      Value leading;
      if (!Value::DecodeKey(key, &pos, &leading)) {
        return Status::Internal("corrupt index key in " + info->name);
      }
      std::string leading_prefix(key.substr(0, pos));

      if (first || key != prev_full) ++icard;
      if (first || leading_prefix != prev_leading) ++icard_leading;
      if (first) {
        low = leading;
      }
      high = leading;  // Keys ascend, so the last leading value is the max.

      // Clustering: how often does walking the index stay on the same or the
      // next data page? A freshly sorted relation scores ~1.0.
      PageId page = cursor.tid().page;
      if (!first) {
        ++total_steps;
        if (page == prev_page || page == prev_page + 1) ++adjacent;
      }
      prev_page = page;
      prev_full = key;
      prev_leading = std::move(leading_prefix);
      first = false;
      RETURN_IF_ERROR(cursor.Next());
    }

    info->icard = icard;
    info->icard_leading = icard_leading;
    info->low_key = low;
    info->high_key = high;
    info->cluster_ratio =
        total_steps == 0 ? 1.0
                         : static_cast<double>(adjacent) / total_steps;
    info->clustered = info->cluster_ratio >= 0.8;
  }
  return Status::OK();
}

}  // namespace systemr
