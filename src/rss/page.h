// 4 KiB pages, the unit of storage and of I/O accounting, exactly as in the
// paper's Research Storage System: "tuples are stored on 4K byte pages; no
// tuple spans a page" (§3).
//
// A Page is a raw byte buffer. Data pages use the slotted layout implemented
// by SlottedPage; B+-tree pages use their own node layout (see btree.h).
// PageStore is the "disk": it owns every page ever allocated, plus per-page
// integrity metadata — a checksum (PageChecksum: four-lane FNV-1a) sealed
// when a page's content is first read back after mutation and verified on
// every later simulated disk read. All metered access goes through the
// BufferPool.
#ifndef SYSTEMR_RSS_PAGE_H_
#define SYSTEMR_RSS_PAGE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <string_view>

namespace systemr {

inline constexpr size_t kPageSize = 4096;

using PageId = uint32_t;
inline constexpr PageId kInvalidPage = 0xffffffffu;

struct Page {
  std::array<char, kPageSize> bytes{};
};

/// Content checksum of a whole page: four interleaved FNV-1a lanes over its
/// 512 64-bit words, folded to 32 bits. A change to any one word changes
/// the value before its final 32-bit fold.
/// Checksums live only in memory (PageStore seals and verifies them within
/// one process), so the function can change without a migration.
uint32_t PageChecksum(const Page& page);

/// Tuple identifier: (page, slot), packed to 8 bytes for index leaf entries.
struct Tid {
  PageId page = kInvalidPage;
  uint16_t slot = 0;

  uint64_t Pack() const {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static Tid Unpack(uint64_t v) {
    Tid t;
    t.page = static_cast<PageId>(v >> 16);
    t.slot = static_cast<uint16_t>(v & 0xffff);
    return t;
  }
  bool operator==(const Tid& o) const {
    return page == o.page && slot == o.slot;
  }
};

/// The in-memory "disk": owns all pages. Never exposes metered access —
/// callers other than BufferPool must not touch page contents directly
/// (the reference executor is the deliberate exception: it reads the raw,
/// uninjected bytes to stay a trusted oracle).
///
/// Thread safety: the page table is a chunked array of atomic slots —
/// readers (Get / MarkDirty / Seal / checksum, i.e. the per-fetch hot path)
/// take no lock at all; only Allocate/Free serialize on a mutex. Chunks are
/// never moved or shrunk, so a published Page* stays valid for the page's
/// lifetime. Page *contents* are not guarded here — the concurrency
/// contract (see DESIGN.md §5) is that data pages are read-only while
/// sessions run in parallel, and temp pages are private to one statement.
class PageStore {
 public:
  PageStore() = default;
  ~PageStore();
  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  PageId Allocate();

  /// Bounds-checked access: returns null for out-of-range ids and for pages
  /// released by Free(). Callers (the BufferPool) turn null into kInternal.
  /// The returned pointer is stable for the page's lifetime.
  Page* Get(PageId id) {
    Slot* s = SlotFor(id);
    return s != nullptr ? s->page.load(std::memory_order_acquire) : nullptr;
  }
  const Page* Get(PageId id) const {
    const Slot* s = SlotFor(id);
    return s != nullptr ? s->page.load(std::memory_order_acquire) : nullptr;
  }
  size_t num_pages() const { return size_.load(std::memory_order_acquire); }

  /// Releases a page's memory (temp-segment cleanup). The id is not reused.
  void Free(PageId id);

  // --- Integrity metadata ---
  /// Marks a page's checksum stale (about to be mutated in place).
  void MarkDirty(PageId id) {
    if (Slot* s = SlotFor(id)) {
      s->sealed.store(false, std::memory_order_release);
    }
  }
  /// Records the page's current content checksum as canonical.
  void Seal(PageId id);
  bool sealed(PageId id) const {
    const Slot* s = SlotFor(id);
    return s != nullptr && s->sealed.load(std::memory_order_acquire);
  }
  uint32_t checksum(PageId id) const {
    const Slot* s = SlotFor(id);
    return s != nullptr ? s->checksum.load(std::memory_order_acquire) : 0;
  }

 private:
  struct Slot {
    std::atomic<Page*> page{nullptr};
    std::atomic<uint32_t> checksum{0};
    std::atomic<bool> sealed{false};
  };
  static constexpr size_t kChunkBits = 12;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;  // 4096 pages
  // 16 Mi pages = 64 GiB of simulated disk; Allocate fails past that.
  static constexpr size_t kMaxChunks = size_t{1} << 12;

  struct Chunk {
    std::array<Slot, kChunkSize> slots{};
  };

  Slot* SlotFor(PageId id) {
    size_t chunk_idx = id >> kChunkBits;
    // The chunk_idx test is implied by the size_ one (Allocate caps growth
    // at kMaxChunks), but stating it lets the compiler prove the array
    // subscript is in bounds.
    if (chunk_idx >= kMaxChunks) return nullptr;
    if (id >= size_.load(std::memory_order_acquire)) return nullptr;
    Chunk* c = chunks_[chunk_idx].load(std::memory_order_acquire);
    return c != nullptr ? &c->slots[id & (kChunkSize - 1)] : nullptr;
  }
  const Slot* SlotFor(PageId id) const {
    return const_cast<PageStore*>(this)->SlotFor(id);
  }

  std::mutex alloc_mu_;  // Allocate/Free only; the read path is lock-free.
  std::atomic<size_t> size_{0};
  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
};

/// Result of reading one slot of a slotted page.
enum class SlotState {
  kLive,     // *out holds the record bytes.
  kEmpty,    // Tombstoned or beyond the slot directory.
  kCorrupt,  // Slot directory or record bounds are inconsistent.
};

/// View over a data page with the classic slotted layout:
///   [u16 slot_count][u16 free_end][slots: u16 off,u16 len ...]  ... records]
/// Records grow down from the end; the slot directory grows up.
class SlottedPage {
 public:
  explicit SlottedPage(Page* page) : page_(page) {}

  /// Zeroes the header of a fresh page.
  void Init();

  uint16_t slot_count() const { return ReadU16(0); }

  /// Start of the record area — also the on-page offset of the most recently
  /// inserted record (records grow down). Logged by the WAL so recovery can
  /// replay inserts at their exact placement.
  uint16_t free_end() const { return ReadU16(2); }

  /// True if the header is internally consistent: the slot directory and the
  /// record area fit inside the page and do not overlap.
  bool ValidateHeader() const;

  /// Bytes still available for one more record (including its slot entry).
  size_t FreeSpace() const;

  /// Appends a record; returns its slot number or -1 if it does not fit.
  int Insert(std::string_view record);

  /// Recovery-only: places `record` at exactly (`slot`, `off`), extending the
  /// slot directory as needed. Skipped slots (loser transactions whose
  /// inserts are not replayed) read back as tombstones. Returns false if the
  /// placement is structurally impossible.
  bool RedoInsertAt(uint16_t slot, uint16_t off, std::string_view record);

  /// Reads the record in `slot` with structural bounds validation, so a
  /// corrupted directory surfaces as kCorrupt instead of an out-of-bounds
  /// read. kLive fills in *out.
  SlotState ReadSlot(uint16_t slot, std::string_view* out) const;

  /// Legacy convenience: true iff the slot holds a live, well-formed record.
  bool Read(uint16_t slot, std::string_view* out) const {
    return ReadSlot(slot, out) == SlotState::kLive;
  }

  /// Tombstones the record in `slot` (space is not reclaimed until the
  /// relation is reorganized, as in System R's RSS). Returns false if the
  /// slot was already empty/invalid.
  bool Delete(uint16_t slot);

 private:
  uint16_t ReadU16(size_t off) const {
    uint16_t v;
    std::memcpy(&v, page_->bytes.data() + off, 2);
    return v;
  }
  void WriteU16(size_t off, uint16_t v) {
    std::memcpy(page_->bytes.data() + off, &v, 2);
  }

  Page* page_;
};

}  // namespace systemr

#endif  // SYSTEMR_RSS_PAGE_H_
