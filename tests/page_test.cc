#include "rss/page.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace systemr {
namespace {

TEST(SlottedPageTest, InsertAndRead) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  EXPECT_EQ(sp.slot_count(), 0);

  int s0 = sp.Insert("hello");
  int s1 = sp.Insert("world!");
  ASSERT_EQ(s0, 0);
  ASSERT_EQ(s1, 1);
  EXPECT_EQ(sp.slot_count(), 2);

  std::string_view rec;
  ASSERT_TRUE(sp.Read(0, &rec));
  EXPECT_EQ(rec, "hello");
  ASSERT_TRUE(sp.Read(1, &rec));
  EXPECT_EQ(rec, "world!");
  EXPECT_FALSE(sp.Read(2, &rec));
}

TEST(SlottedPageTest, FillsUpAndRejects) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  std::string record(100, 'x');
  int inserted = 0;
  while (sp.Insert(record) >= 0) ++inserted;
  // 4096 bytes / (100 record + 4 slot) ≈ 39 records.
  EXPECT_GE(inserted, 35);
  EXPECT_LE(inserted, 40);
  // Small records may still fit.
  EXPECT_LT(sp.FreeSpace(), 104u);
}

TEST(SlottedPageTest, RecordsSurviveManyInserts) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  std::vector<std::string> records;
  for (int i = 0; i < 30; ++i) {
    records.push_back("record-" + std::to_string(i * 17));
    ASSERT_GE(sp.Insert(records.back()), 0);
  }
  for (int i = 0; i < 30; ++i) {
    std::string_view rec;
    ASSERT_TRUE(sp.Read(static_cast<uint16_t>(i), &rec));
    EXPECT_EQ(rec, records[i]);
  }
}

TEST(SlottedPageTest, ValidateHeaderRejectsImpossibleDirectories) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  ASSERT_GE(sp.Insert("abc"), 0);
  EXPECT_TRUE(sp.ValidateHeader());

  // Slot count so large the directory would overrun the page (the pattern a
  // 0xFF header clobber produces).
  std::memset(page.bytes.data(), 0xff, 2);
  EXPECT_FALSE(sp.ValidateHeader());
  std::string_view rec;
  EXPECT_EQ(sp.ReadSlot(0, &rec), SlotState::kCorrupt);
}

TEST(SlottedPageTest, ReadSlotRejectsOutOfBoundsRecords) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  ASSERT_EQ(sp.Insert("hello"), 0);

  // Clobber slot 0's offset so the record would extend past the page end.
  uint16_t bad_off = kPageSize - 2;
  std::memcpy(page.bytes.data() + 4, &bad_off, 2);
  std::string_view rec;
  EXPECT_EQ(sp.ReadSlot(0, &rec), SlotState::kCorrupt);

  // An offset inside the slot directory is equally inconsistent.
  uint16_t dir_off = 1;
  std::memcpy(page.bytes.data() + 4, &dir_off, 2);
  EXPECT_EQ(sp.ReadSlot(0, &rec), SlotState::kCorrupt);
}

TEST(SlottedPageTest, ReadSlotDistinguishesEmptyFromCorrupt) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  ASSERT_EQ(sp.Insert("hello"), 0);
  ASSERT_TRUE(sp.Delete(0));
  std::string_view rec;
  EXPECT_EQ(sp.ReadSlot(0, &rec), SlotState::kEmpty);  // Tombstone.
  EXPECT_EQ(sp.ReadSlot(5, &rec), SlotState::kEmpty);  // Past the directory.
}

TEST(PageChecksumTest, SensitiveToEveryByte) {
  Page page;
  uint32_t base = PageChecksum(page);
  page.bytes[0] ^= 1;
  EXPECT_NE(PageChecksum(page), base);
  page.bytes[0] ^= 1;
  page.bytes[kPageSize - 1] ^= 1;
  EXPECT_NE(PageChecksum(page), base);
  page.bytes[kPageSize - 1] ^= 1;
  EXPECT_EQ(PageChecksum(page), base);
}

// Every single-bit flip of a page changes its checksum, whichever of the
// four lanes the flipped word feeds.
TEST(PageChecksumTest, EverySingleBitFlipChangesIt) {
  Page page;
  Rng rng(4096);
  for (char& c : page.bytes) c = static_cast<char>(rng.Uniform(0, 255));
  const uint32_t base = PageChecksum(page);
  for (size_t bit = 0; bit < kPageSize * 8; ++bit) {
    page.bytes[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    ASSERT_NE(PageChecksum(page), base) << "bit " << bit;
    page.bytes[bit / 8] ^= static_cast<char>(1 << (bit % 8));
  }
  EXPECT_EQ(PageChecksum(page), base);
}

TEST(PageStoreTest, SealAndDirtyTrackChecksums) {
  PageStore store;
  PageId id = store.Allocate();
  EXPECT_FALSE(store.sealed(id));
  std::memset(store.Get(id)->bytes.data(), 0x11, 16);
  store.Seal(id);
  EXPECT_TRUE(store.sealed(id));
  EXPECT_EQ(store.checksum(id), PageChecksum(*store.Get(id)));
  store.MarkDirty(id);
  EXPECT_FALSE(store.sealed(id));
}

TEST(PageStoreTest, GetIsBoundsChecked) {
  PageStore store;
  EXPECT_EQ(store.Get(0), nullptr);
  EXPECT_EQ(store.Get(kInvalidPage), nullptr);
  PageId a = store.Allocate();
  EXPECT_NE(store.Get(a), nullptr);
  EXPECT_EQ(store.Get(a + 1), nullptr);
}

TEST(PageStoreTest, AllocateAndFree) {
  PageStore store;
  PageId a = store.Allocate();
  PageId b = store.Allocate();
  EXPECT_NE(a, b);
  EXPECT_NE(store.Get(a), nullptr);
  store.Free(a);
  EXPECT_EQ(store.Get(a), nullptr);
  EXPECT_NE(store.Get(b), nullptr);
}

TEST(TidTest, PackUnpackRoundTrip) {
  Tid t{123456, 789};
  Tid u = Tid::Unpack(t.Pack());
  EXPECT_EQ(t, u);
}

}  // namespace
}  // namespace systemr
