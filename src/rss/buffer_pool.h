// BufferPool: the System R buffer manager stand-in. Pages live permanently
// in the PageStore (memory is the "disk"); the pool tracks a bounded resident
// set with LRU replacement and meters simulated I/O:
//   - a Fetch of a non-resident page counts one page fetch (the paper's
//     PAGE FETCHES cost term),
//   - a newly created page (heap append, sort run, index split) counts one
//     page write.
// This reproduces the buffer-dependent behaviour Table 2 distinguishes: a
// clustered-index scan faults each data page once, a non-clustered scan of a
// relation larger than the pool faults roughly once per tuple.
//
// The pool is also the integrity and fault boundary: every miss is a
// simulated disk read, so this is where checksums are sealed/verified and
// where an attached FaultInjector may fail the read (kIoError after bounded
// retries) or corrupt the delivered bytes (kDataLoss, or a corrupt shadow
// page that callers' structural validation must reject). Buffer hits never
// fault: resident frames are trusted memory.
//
// The pool is shared by every concurrent session: counters are atomics,
// residency is a page -> frame-slot map plus a packed array of frames, each
// stamped with its last-use tick, under a shared_mutex (hits refresh a tick
// under the shared lock; misses and eviction serialize on the unique lock),
// and per-statement accounting goes to the calling thread's ExecStats
// (rss/meter.h) so sessions never race on statement-level stats.
#ifndef SYSTEMR_RSS_BUFFER_POOL_H_
#define SYSTEMR_RSS_BUFFER_POOL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "rss/fault_injector.h"
#include "rss/page.h"

namespace systemr {

struct BufferStats {
  uint64_t fetches = 0;        // Misses: simulated reads from disk.
  uint64_t writes = 0;         // Newly materialized pages (heap/sort/index).
  uint64_t logical_gets = 0;   // All page requests, hit or miss.

  BufferStats operator-(const BufferStats& o) const {
    return {fetches - o.fetches, writes - o.writes,
            logical_gets - o.logical_gets};
  }
};

class BufferPool {
 public:
  /// `capacity` is the number of 4 KiB frames ("effective buffer pool per
  /// user", §4).
  BufferPool(PageStore* store, size_t capacity)
      : store_(store), capacity_(capacity) {}
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A structural check of a page's bytes, run when the pool reads the page
  /// from the store; a non-OK result rejects the read.
  using PageCheck = Status (*)(const PageStore& store, PageId id,
                               const Page& page);

  /// Metered read access. Counts a fetch if the page is not resident. On a
  /// miss the page's checksum is verified (sealing it first if this is the
  /// first read since it was written), then `check`, if given, runs on the
  /// delivered bytes; failures surface as:
  ///   kInternal  - invalid/freed page id,
  ///   kIoError   - injected device read failure that outlived the retries,
  ///   kDataLoss  - checksum mismatch (real or injected bit flips),
  ///   or the error `check` returned; the page then stays non-resident, so
  ///   the next Fetch reads and checks it again.
  /// An injected header corruption instead delivers a corrupt shadow copy —
  /// structural validation (`check`, or SlottedPage's for heap pages) turns
  /// it into kDataLoss without touching the stored bytes. A hit runs no
  /// check: resident frames are trusted memory.
  StatusOr<Page*> Fetch(PageId id, PageCheck check = nullptr);

  /// Metered write access: like Fetch, but marks the page's checksum stale
  /// because the caller is about to mutate it in place. Never delivers
  /// corrupted bytes (a torn read of a page being rewritten is meaningless);
  /// injected I/O errors still apply on misses.
  StatusOr<Page*> FetchMut(PageId id);

  /// Allocates a page that is immediately resident and counts one write.
  PageId NewPage();

  /// Drops a page from the resident set (temp cleanup) and frees its memory.
  void Discard(PageId id);

  /// Empties the resident set (e.g. between benchmark measurements).
  void FlushAll();

  size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }
  void set_capacity(size_t c);
  size_t resident() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return frames_.size();
  }
  /// Whether `id` is in the resident set. Unmetered, and it refreshes no
  /// tick: an observer for tests.
  bool is_resident(PageId id) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return slot_of_.count(id) != 0;
  }
  /// Pool-wide counters, by value (they are shared atomics; per-statement
  /// accounting uses the thread's ExecStats instead — see rss/meter.h).
  BufferStats stats() const {
    return BufferStats{fetches_.load(std::memory_order_relaxed),
                       writes_.load(std::memory_order_relaxed),
                       logical_gets_.load(std::memory_order_relaxed)};
  }
  void ResetStats() {
    fetches_.store(0, std::memory_order_relaxed);
    writes_.store(0, std::memory_order_relaxed);
    logical_gets_.store(0, std::memory_order_relaxed);
  }

  /// Attaches (or detaches, with nullptr) the storage fault injector. Not
  /// owned. Only armed injectors affect reads.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() { return injector_; }

  /// Simulated device read time per buffer miss, for I/O-bound concurrency
  /// experiments (the paper's cost model is page-fetch-dominated, but the
  /// in-memory store makes a "fetch" free — this knob restores the wait).
  /// The sleep happens with the pool latch released, the way a real buffer
  /// manager performs I/O, so concurrent sessions overlap their waits.
  /// Default 0: no sleep anywhere on the fetch path.
  void set_sim_fetch_latency_us(uint32_t us) {
    sim_fetch_latency_us_.store(us, std::memory_order_relaxed);
  }

  PageStore* store() { return store_; }

 private:
  static constexpr int kMaxIoRetries = 3;

  StatusOr<Page*> FetchImpl(PageId id, bool write_intent, PageCheck check);
  /// Copies `src` into the next shadow frame and returns it. Shadow frames
  /// are short-lived by contract: callers validate a delivered page before
  /// issuing further fetches, so a small ring suffices. Requires mu_ held
  /// exclusively.
  Page* ShadowFor(const Page& src);
  /// If `id` is resident, stamps its frame with a fresh tick and returns
  /// true. Requires mu_ held (either mode).
  bool TouchIfResidentLocked(PageId id);
  /// A buffer hit's page (kInternal if the store lost it), marked dirty
  /// under write intent.
  StatusOr<Page*> ResidentPage(PageId id, bool write_intent);
  /// Inserts `id` into the resident set at the current tick and evicts down
  /// to capacity. Requires mu_ held exclusively.
  void TouchLocked(PageId id);
  void ShrinkLocked();
  /// Removes frame `slot`: the last frame moves into its place. Requires
  /// mu_ held exclusively.
  void RemoveFrameLocked(uint32_t slot);
  uint64_t NextTick() {
    return tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  PageStore* store_;
  std::atomic<size_t> capacity_;
  std::atomic<uint64_t> fetches_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> logical_gets_{0};
  std::atomic<uint32_t> sim_fetch_latency_us_{0};
  FaultInjector* injector_ = nullptr;
  std::array<Page, 4> shadow_ring_{};
  size_t shadow_idx_ = 0;

  // One resident page: its id and last-use tick. A hit stores a fresh tick
  // under the shared lock; frames are copied only under the exclusive lock
  // (the vector growing, or a swap-remove), so the copies read and write the
  // tick relaxed.
  struct Frame {
    Frame(PageId p, uint64_t t) : page(p), tick(t) {}
    Frame(const Frame& o)
        : page(o.page), tick(o.tick.load(std::memory_order_relaxed)) {}
    Frame& operator=(const Frame& o) {
      page = o.page;
      tick.store(o.tick.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
      return *this;
    }
    PageId page;
    std::atomic<uint64_t> tick;
  };

  // Residency is a page-id -> frame-slot map plus a contiguous frame array
  // rather than an intrusive LRU list, so a buffer hit only stores a fresh
  // tick (shared lock + the frame's atomic); misses and eviction take the
  // exclusive lock. Ticks come from one atomic counter, so "evict the
  // minimum tick" — one pass over the packed frames — is exact LRU:
  // single-threaded behaviour is identical to a list implementation.
  mutable std::shared_mutex mu_;
  std::atomic<uint64_t> tick_{0};
  std::unordered_map<PageId, uint32_t> slot_of_;
  std::vector<Frame> frames_;
};

}  // namespace systemr

#endif  // SYSTEMR_RSS_BUFFER_POOL_H_
