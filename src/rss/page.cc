#include "rss/page.h"

#include <algorithm>
#include <mutex>

namespace systemr {

uint32_t PageChecksum(const Page& page) {
  // Four FNV-1a lanes over interleaved 64-bit words (lane j takes words j,
  // j+4, j+8, ...), folded into one value and then to 32 bits. Word-wise
  // because this runs on every simulated disk read, and four lanes so the
  // CPU overlaps four multiply chains instead of waiting on one. Each step
  // h' = (h ^ w) * prime is bijective in w for fixed h, and so is each step
  // of the fold in its lane, so any change to a single word — hence any bit
  // flip — changes the 64-bit result.
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h[4] = {14695981039346656037ull, 14695981039346656037ull,
                   14695981039346656037ull, 14695981039346656037ull};
  const char* p = page.bytes.data();
  for (size_t i = 0; i < kPageSize; i += 32) {
    for (size_t lane = 0; lane < 4; ++lane) {
      uint64_t w;
      std::memcpy(&w, p + i + 8 * lane, 8);
      h[lane] = (h[lane] ^ w) * kPrime;
    }
  }
  uint64_t folded = h[0];
  for (size_t lane = 1; lane < 4; ++lane) {
    folded = (folded ^ h[lane]) * kPrime;
  }
  return static_cast<uint32_t>(folded ^ (folded >> 32));
}

PageStore::~PageStore() {
  size_t n = size_.load(std::memory_order_acquire);
  for (size_t c = 0; c * kChunkSize < n && c < kMaxChunks; ++c) {
    Chunk* chunk = chunks_[c].load(std::memory_order_acquire);
    if (chunk == nullptr) continue;
    for (Slot& s : chunk->slots) {
      delete s.page.load(std::memory_order_relaxed);
    }
    delete chunk;
  }
}

PageId PageStore::Allocate() {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  size_t id = size_.load(std::memory_order_relaxed);
  size_t chunk_idx = id >> kChunkBits;
  if (chunk_idx >= kMaxChunks) return kInvalidPage;  // 64 GiB disk is full.
  Chunk* chunk = chunks_[chunk_idx].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk();
    chunks_[chunk_idx].store(chunk, std::memory_order_release);
  }
  // Publish the page before raising size_: a reader that observes the new
  // size is guaranteed to see both the chunk and the page pointer.
  chunk->slots[id & (kChunkSize - 1)].page.store(new Page(),
                                                 std::memory_order_release);
  size_.store(id + 1, std::memory_order_release);
  return static_cast<PageId>(id);
}

void PageStore::Free(PageId id) {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  Slot* s = SlotFor(id);
  if (s == nullptr) return;
  // Temp pages are private to one statement, so no reader can hold this
  // pointer across its Free (DESIGN.md §5); deleting here is safe.
  delete s->page.exchange(nullptr, std::memory_order_acq_rel);
  s->checksum.store(0, std::memory_order_relaxed);
  s->sealed.store(false, std::memory_order_relaxed);
}

void PageStore::Seal(PageId id) {
  Slot* s = SlotFor(id);
  if (s == nullptr) return;
  Page* page = s->page.load(std::memory_order_acquire);
  if (page == nullptr) return;
  s->checksum.store(PageChecksum(*page), std::memory_order_release);
  s->sealed.store(true, std::memory_order_release);
}

namespace {
constexpr size_t kHeaderSize = 4;   // slot_count + free_end.
constexpr size_t kSlotSize = 4;     // off + len.
}  // namespace

void SlottedPage::Init() {
  WriteU16(0, 0);                                  // slot_count
  WriteU16(2, static_cast<uint16_t>(kPageSize));   // free_end
}

bool SlottedPage::ValidateHeader() const {
  uint16_t count = ReadU16(0);
  uint16_t free_end = ReadU16(2);
  size_t dir_end = kHeaderSize + static_cast<size_t>(count) * kSlotSize;
  // The slot directory must fit in the page, and the record area (which
  // begins at free_end) must start at or after the directory's end.
  if (dir_end > kPageSize) return false;
  if (free_end > kPageSize) return false;
  if (count > 0 && free_end < dir_end) return false;
  return true;
}

size_t SlottedPage::FreeSpace() const {
  uint16_t count = ReadU16(0);
  uint16_t free_end = ReadU16(2);
  size_t dir_end = kHeaderSize + count * kSlotSize;
  if (free_end <= dir_end) return 0;
  size_t gap = free_end - dir_end;
  return gap > kSlotSize ? gap - kSlotSize : 0;
}

int SlottedPage::Insert(std::string_view record) {
  if (record.size() > FreeSpace()) return -1;
  uint16_t count = ReadU16(0);
  uint16_t free_end = ReadU16(2);
  uint16_t off = static_cast<uint16_t>(free_end - record.size());
  std::memcpy(page_->bytes.data() + off, record.data(), record.size());
  size_t slot_off = kHeaderSize + count * kSlotSize;
  WriteU16(slot_off, off);
  WriteU16(slot_off + 2, static_cast<uint16_t>(record.size()));
  WriteU16(0, count + 1);
  WriteU16(2, off);
  return count;
}

bool SlottedPage::RedoInsertAt(uint16_t slot, uint16_t off,
                               std::string_view record) {
  uint16_t new_count =
      std::max<uint16_t>(ReadU16(0), static_cast<uint16_t>(slot + 1));
  size_t dir_end = kHeaderSize + static_cast<size_t>(new_count) * kSlotSize;
  size_t end = static_cast<size_t>(off) + record.size();
  if (off < dir_end || end > kPageSize || record.empty()) return false;
  uint16_t free_end = ReadU16(2);
  // A fresh page starts all-zero (free_end == 0) when recovery replays the
  // first insert before any Init; treat that as "whole page free".
  if (free_end == 0) free_end = static_cast<uint16_t>(kPageSize);
  std::memcpy(page_->bytes.data() + off, record.data(), record.size());
  size_t slot_off = kHeaderSize + slot * kSlotSize;
  WriteU16(slot_off, off);
  WriteU16(slot_off + 2, static_cast<uint16_t>(record.size()));
  WriteU16(0, new_count);
  WriteU16(2, std::min<uint16_t>(free_end, off));
  return true;
}

bool SlottedPage::Delete(uint16_t slot) {
  uint16_t count = ReadU16(0);
  if (slot >= count) return false;
  size_t slot_off = kHeaderSize + slot * kSlotSize;
  if (ReadU16(slot_off) == 0 && ReadU16(slot_off + 2) == 0) return false;
  WriteU16(slot_off, 0);
  WriteU16(slot_off + 2, 0);
  return true;
}

SlotState SlottedPage::ReadSlot(uint16_t slot, std::string_view* out) const {
  if (!ValidateHeader()) return SlotState::kCorrupt;
  uint16_t count = ReadU16(0);
  if (slot >= count) return SlotState::kEmpty;
  size_t slot_off = kHeaderSize + slot * kSlotSize;
  uint16_t off = ReadU16(slot_off);
  uint16_t len = ReadU16(slot_off + 2);
  if (off == 0 && len == 0) return SlotState::kEmpty;  // Tombstone.
  // A live record must lie entirely within the record area: at or after the
  // directory end, ending within the page.
  size_t dir_end = kHeaderSize + static_cast<size_t>(count) * kSlotSize;
  size_t end = static_cast<size_t>(off) + len;
  if (off < dir_end || end > kPageSize) return SlotState::kCorrupt;
  *out = std::string_view(page_->bytes.data() + off, len);
  return SlotState::kLive;
}

}  // namespace systemr
