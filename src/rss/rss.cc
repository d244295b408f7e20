#include "rss/rss.h"

#include <mutex>

namespace systemr {

SegmentId Rss::CreateSegment() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  SegmentId id = static_cast<SegmentId>(segments_.size());
  segments_.push_back(std::make_unique<Segment>(id));
  return id;
}

HeapFile* Rss::CreateHeap(SegmentId segment, RelId relid) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto heap = std::make_unique<HeapFile>(segments_[segment].get(), &pool_,
                                         relid, &wal_);
  HeapFile* ptr = heap.get();
  heaps_[relid] = std::move(heap);
  return ptr;
}

BTree* Rss::CreateIndex(bool unique) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  IndexId id = static_cast<IndexId>(indexes_.size());
  indexes_.push_back(std::make_unique<BTree>(&pool_, id, unique));
  return indexes_.back().get();
}

std::unique_ptr<RsiScan> Rss::OpenSegmentScan(RelId relid, SargList sargs,
                                              RowSlice slice) {
  const HeapFile* h = heap(relid);
  return std::make_unique<SegmentScan>(&pool_, h->segment(), relid,
                                       std::move(sargs), &counters_, slice);
}

std::unique_ptr<RsiScan> Rss::OpenIndexScan(RelId relid, IndexId index_id,
                                            KeyRange range, SargList sargs,
                                            RowSlice slice) {
  return std::make_unique<IndexScan>(index(index_id), heap(relid),
                                     std::move(range), std::move(sargs),
                                     &counters_, slice);
}

}  // namespace systemr
