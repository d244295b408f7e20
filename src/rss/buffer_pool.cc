#include "rss/buffer_pool.h"

#include <chrono>
#include <mutex>
#include <string>
#include <thread>

#include "rss/meter.h"

namespace systemr {

StatusOr<Page*> BufferPool::Fetch(PageId id, PageCheck check) {
  return FetchImpl(id, /*write_intent=*/false, check);
}

StatusOr<Page*> BufferPool::FetchMut(PageId id) {
  return FetchImpl(id, /*write_intent=*/true, /*check=*/nullptr);
}

StatusOr<Page*> BufferPool::FetchImpl(PageId id, bool write_intent,
                                      PageCheck check) {
  logical_gets_.fetch_add(1, std::memory_order_relaxed);
  if (ExecStats* m = CurrentMeter()) ++m->buffer_gets;
  if (id == kInvalidPage) {
    return Status::Internal("buffer fetch of kInvalidPage");
  }
  {
    // Hit path: trusted memory, no disk read, no faults. Only the page's
    // last-use tick is refreshed, so a shared lock suffices.
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (TouchIfResidentLocked(id)) return ResidentPage(id, write_intent);
  }

  std::unique_lock<std::shared_mutex> lock(mu_);
  // Another session may have faulted the page in between our two lookups;
  // that session paid the fetch, this one scores a hit.
  if (TouchIfResidentLocked(id)) return ResidentPage(id, write_intent);

  uint32_t latency = sim_fetch_latency_us_.load(std::memory_order_relaxed);
  if (latency > 0) {
    // Simulated device read: wait with the latch released so other
    // sessions' hits — and their own device waits — proceed in parallel.
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::microseconds(latency));
    lock.lock();
    // Someone else may have read the same page while we "waited on the
    // device".
    if (TouchIfResidentLocked(id)) return ResidentPage(id, write_intent);
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
  // A page that fails its check is not cached: the next access re-reads it.
  if (check != nullptr) RETURN_IF_ERROR(check(*store_, id, *delivered));

  if (delivered != page) {
    // Corrupt delivery: do not cache. The next access re-reads the device
    // and may succeed — corruption here is transient by construction.
    return delivered;
  }
  TouchLocked(id);
  if (write_intent) store_->MarkDirty(id);
  return page;
}

bool BufferPool::TouchIfResidentLocked(PageId id) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return false;
  frames_[it->second].tick.store(NextTick(), std::memory_order_relaxed);
  return true;
}

StatusOr<Page*> BufferPool::ResidentPage(PageId id, bool write_intent) {
  Page* page = store_->Get(id);
  if (page == nullptr) {
    return Status::Internal("resident page " + std::to_string(id) +
                            " missing from store");
  }
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
    auto it = slot_of_.find(id);
    if (it != slot_of_.end()) RemoveFrameLocked(it->second);
  }
  store_->Free(id);
}

void BufferPool::FlushAll() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  slot_of_.clear();
  frames_.clear();
}

void BufferPool::set_capacity(size_t c) {
  capacity_.store(c, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> lock(mu_);
  ShrinkLocked();
}

void BufferPool::TouchLocked(PageId id) {
  uint64_t tick = NextTick();
  auto [it, inserted] =
      slot_of_.try_emplace(id, static_cast<uint32_t>(frames_.size()));
  if (inserted) {
    frames_.emplace_back(id, tick);
  } else {
    frames_[it->second].tick.store(tick, std::memory_order_relaxed);
  }
  ShrinkLocked();
}

void BufferPool::ShrinkLocked() {
  size_t cap = capacity_.load(std::memory_order_relaxed);
  while (frames_.size() > cap) {
    // Exact LRU: evict the minimum last-use tick (ticks are unique). One
    // pass over the packed frames, which the (small) frame budget of §4
    // bounds.
    uint32_t victim = 0;
    uint64_t victim_tick = frames_[0].tick.load(std::memory_order_relaxed);
    for (uint32_t i = 1; i < frames_.size(); ++i) {
      uint64_t t = frames_[i].tick.load(std::memory_order_relaxed);
      if (t < victim_tick) {
        victim = i;
        victim_tick = t;
      }
    }
    RemoveFrameLocked(victim);
  }
}

void BufferPool::RemoveFrameLocked(uint32_t slot) {
  slot_of_.erase(frames_[slot].page);
  if (slot + 1 < frames_.size()) {
    frames_[slot] = frames_.back();
    slot_of_[frames_[slot].page] = slot;
  }
  frames_.pop_back();
}

}  // namespace systemr
