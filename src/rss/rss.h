// Rss: the Research Storage System facade (§3). Owns the page store, buffer
// pool, segments, relation heaps, and B+-tree indexes, and opens RSI scans.
#ifndef SYSTEMR_RSS_RSS_H_
#define SYSTEMR_RSS_RSS_H_

#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "rss/btree.h"
#include "rss/buffer_pool.h"
#include "rss/heap_file.h"
#include "rss/scan.h"
#include "rss/segment.h"
#include "rss/wal.h"

namespace systemr {

class Rss {
 public:
  /// `buffer_pages`: frames in the per-user buffer pool (§4's "effective
  /// buffer pool per user").
  explicit Rss(size_t buffer_pages = 128)
      : pool_(&store_, buffer_pages) {}
  Rss(const Rss&) = delete;
  Rss& operator=(const Rss&) = delete;

  SegmentId CreateSegment();
  Segment* segment(SegmentId id) {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return segments_[id].get();
  }
  const Segment* segment(SegmentId id) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return segments_[id].get();
  }

  size_t num_segments() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return segments_.size();
  }

  /// Creates the heap for relation `relid` inside `segment`.
  HeapFile* CreateHeap(SegmentId segment, RelId relid);
  HeapFile* heap(RelId relid) {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return heaps_.at(relid).get();
  }
  const HeapFile* heap(RelId relid) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return heaps_.at(relid).get();
  }

  /// Creates a B+-tree index; the caller records which relation/columns it
  /// covers in the catalog.
  BTree* CreateIndex(bool unique);
  BTree* index(IndexId id) {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return indexes_[id].get();
  }
  const BTree* index(IndexId id) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return indexes_[id].get();
  }

  /// Opens an RSI scan of relation `relid` that delivers each tuple into
  /// `slice` of its row.
  std::unique_ptr<RsiScan> OpenSegmentScan(RelId relid, SargList sargs,
                                           RowSlice slice = {});
  std::unique_ptr<RsiScan> OpenIndexScan(RelId relid, IndexId index,
                                         KeyRange range, SargList sargs,
                                         RowSlice slice = {});

  BufferPool& pool() { return pool_; }
  const BufferPool& pool() const { return pool_; }
  PageStore& store() { return store_; }
  RssCounters& counters() { return counters_; }
  WalManager& wal() { return wal_; }
  const WalManager& wal() const { return wal_; }

 private:
  // Guards the object registries (segments/heaps/indexes) so concurrent
  // sessions can open scans while DDL registers new objects. The objects
  // themselves live behind unique_ptr (stable addresses); their *contents*
  // follow the read-only-while-concurrent contract of DESIGN.md §5.
  mutable std::shared_mutex mu_;
  PageStore store_;
  BufferPool pool_;
  RssCounters counters_;
  WalManager wal_;
  std::vector<std::unique_ptr<Segment>> segments_;
  std::unordered_map<RelId, std::unique_ptr<HeapFile>> heaps_;
  std::vector<std::unique_ptr<BTree>> indexes_;
};

}  // namespace systemr

#endif  // SYSTEMR_RSS_RSS_H_
