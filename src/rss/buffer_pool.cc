#include "rss/buffer_pool.h"

#include <chrono>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>

#include "rss/meter.h"

namespace systemr {

StatusOr<Page*> BufferPool::Fetch(PageId id) {
  return FetchImpl(id, /*write_intent=*/false);
}

StatusOr<Page*> BufferPool::FetchMut(PageId id) {
  return FetchImpl(id, /*write_intent=*/true);
}

StatusOr<Page*> BufferPool::FetchImpl(PageId id, bool write_intent) {
  logical_gets_.fetch_add(1, std::memory_order_relaxed);
  if (ExecStats* m = CurrentMeter()) ++m->buffer_gets;
  if (id == kInvalidPage) {
    return Status::Internal("buffer fetch of kInvalidPage");
  }
  {
    // Hit path: trusted memory, no disk read, no faults. Only the page's
    // last-use tick is refreshed, so a shared lock suffices.
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = resident_.find(id);
    if (it != resident_.end()) {
      it->second.store(NextTick(), std::memory_order_relaxed);
      Page* page = store_->Get(id);
      if (page == nullptr) {
        return Status::Internal("resident page " + std::to_string(id) +
                                " missing from store");
      }
      if (write_intent) store_->MarkDirty(id);
      return page;
    }
  }

  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = resident_.find(id);
  if (it != resident_.end()) {
    // Another session faulted the page in between our two lookups; that
    // session paid the fetch, this one scores a hit.
    it->second.store(NextTick(), std::memory_order_relaxed);
    Page* page = store_->Get(id);
    if (page == nullptr) {
      return Status::Internal("resident page " + std::to_string(id) +
                              " missing from store");
    }
    if (write_intent) store_->MarkDirty(id);
    return page;
  }

  uint32_t latency = sim_fetch_latency_us_.load(std::memory_order_relaxed);
  if (latency > 0) {
    // Simulated device read: wait with the latch released so other
    // sessions' hits — and their own device waits — proceed in parallel.
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::microseconds(latency));
    lock.lock();
    auto again = resident_.find(id);
    if (again != resident_.end()) {
      // Someone else read the same page while we "waited on the device".
      again->second.store(NextTick(), std::memory_order_relaxed);
      Page* page = store_->Get(id);
      if (page == nullptr) {
        return Status::Internal("resident page " + std::to_string(id) +
                                " missing from store");
      }
      if (write_intent) store_->MarkDirty(id);
      return page;
    }
  }

  // Miss: simulated disk read.
  fetches_.fetch_add(1, std::memory_order_relaxed);
  if (ExecStats* m = CurrentMeter()) ++m->page_fetches;
  Page* page = store_->Get(id);
  if (page == nullptr) {
    return Status::Internal("buffer fetch of invalid page id " +
                            std::to_string(id));
  }

  FaultKind fault =
      injector_ ? injector_->NextReadFault(id) : FaultKind::kNone;
  if (fault == FaultKind::kIoPersistent) {
    return Status::IoError("device read failed for page " +
                           std::to_string(id));
  }
  if (fault == FaultKind::kIoTransient) {
    bool recovered = false;
    for (int attempt = 0; attempt < kMaxIoRetries; ++attempt) {
      if (!injector_->RetryFails()) {
        recovered = true;
        break;
      }
    }
    if (!recovered) {
      return Status::IoError("transient read error persisted after " +
                             std::to_string(kMaxIoRetries) +
                             " retries for page " + std::to_string(id));
    }
    fault = FaultKind::kNone;
  }

  // The first read of content written since the last seal records its
  // canonical checksum — the simulated flush-time checksum write.
  if (!store_->sealed(id)) store_->Seal(id);

  Page* delivered = page;
  bool verify = true;
  if (!write_intent &&
      (fault == FaultKind::kCorruptBits || fault == FaultKind::kCorruptHeader)) {
    delivered = ShadowFor(*page);
    injector_->Corrupt(fault, delivered);
    // A header clobber models corruption that evades the checksum (e.g. a
    // stale-metadata read): it is delivered and must be caught by the
    // callers' structural validation, exercising the second defense line.
    verify = fault != FaultKind::kCorruptHeader;
  }
  if (verify && PageChecksum(*delivered) != store_->checksum(id)) {
    return Status::DataLoss("checksum mismatch reading page " +
                            std::to_string(id));
  }

  if (delivered != page) {
    // Corrupt delivery: do not cache. The next access re-reads the device
    // and may succeed — corruption here is transient by construction.
    return delivered;
  }
  TouchLocked(id);
  if (write_intent) store_->MarkDirty(id);
  return page;
}

Page* BufferPool::ShadowFor(const Page& src) {
  Page* s = &shadow_ring_[shadow_idx_];
  shadow_idx_ = (shadow_idx_ + 1) % shadow_ring_.size();
  *s = src;
  return s;
}

PageId BufferPool::NewPage() {
  PageId id = store_->Allocate();
  writes_.fetch_add(1, std::memory_order_relaxed);
  if (ExecStats* m = CurrentMeter()) ++m->page_writes;
  std::unique_lock<std::shared_mutex> lock(mu_);
  TouchLocked(id);
  return id;
}

void BufferPool::Discard(PageId id) {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    resident_.erase(id);
  }
  store_->Free(id);
}

void BufferPool::FlushAll() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  resident_.clear();
}

void BufferPool::set_capacity(size_t c) {
  capacity_.store(c, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> lock(mu_);
  ShrinkLocked();
}

void BufferPool::TouchLocked(PageId id) {
  resident_[id].store(NextTick(), std::memory_order_relaxed);
  ShrinkLocked();
}

void BufferPool::ShrinkLocked() {
  size_t cap = capacity_.load(std::memory_order_relaxed);
  while (resident_.size() > cap) {
    // Exact LRU: evict the minimum last-use tick. Linear in the resident
    // set, which is bounded by the (small) frame budget of §4.
    auto victim = resident_.begin();
    uint64_t victim_tick = victim->second.load(std::memory_order_relaxed);
    for (auto it = std::next(resident_.begin()); it != resident_.end(); ++it) {
      uint64_t t = it->second.load(std::memory_order_relaxed);
      if (t < victim_tick) {
        victim = it;
        victim_tick = t;
      }
    }
    resident_.erase(victim);
  }
}

}  // namespace systemr
