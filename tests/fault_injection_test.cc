// Storage fault injection and graceful degradation tests:
//   - the injector's fault schedule is a pure function of (seed, config);
//   - the buffer pool turns invalid page ids into kInternal, injected I/O
//     errors into kIoError (after bounded retries), and corruption into
//     kDataLoss — never a crash, and never corrupted durable state;
//   - B-tree structural validation rejects corrupted nodes (flipped key
//     bytes, out-of-range child ids, cyclic child links) as kDataLoss;
//   - a B-tree write that fails leaves the tree, its pages and NINDX as
//     they were;
//   - per-statement limits (page budget, row limit, cancel flag, deadline)
//     abort cleanly and leave the same Database instance fully usable;
//   - the fault-injection fuzz protocol itself is deterministic per seed.
#include "rss/fault_injector.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/database.h"
#include "harness/fuzz_session.h"
#include "rss/btree.h"
#include "rss/buffer_pool.h"
#include "rss/page.h"

namespace systemr {
namespace {

// --- Injector determinism ---

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultConfig config;
  config.io_error_rate = 0.2;
  config.corruption_rate = 0.2;
  FaultInjector a(77, config);
  FaultInjector b(77, config);
  a.Arm();
  b.Arm();
  std::vector<FaultKind> schedule_a, schedule_b;
  for (PageId id = 0; id < 500; ++id) {
    schedule_a.push_back(a.NextReadFault(id));
    schedule_b.push_back(b.NextReadFault(id));
  }
  EXPECT_EQ(schedule_a, schedule_b);
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_GT(a.faults_injected(), 0u) << "rates high enough to fire in 500";

  FaultInjector c(78, config);  // Different seed: different schedule.
  c.Arm();
  std::vector<FaultKind> schedule_c;
  for (PageId id = 0; id < 500; ++id) schedule_c.push_back(c.NextReadFault(id));
  EXPECT_NE(schedule_a, schedule_c);
}

TEST(FaultInjectorTest, DisarmedIsPassThrough) {
  FaultConfig config;
  config.io_error_rate = 1.0;  // Every armed read would fault.
  FaultInjector injector(1, config);
  for (PageId id = 0; id < 100; ++id) {
    EXPECT_EQ(injector.NextReadFault(id), FaultKind::kNone);
  }
  EXPECT_EQ(injector.reads_seen(), 0u) << "disarmed reads don't advance";
  EXPECT_EQ(injector.faults_injected(), 0u);
}

TEST(FaultInjectorTest, WarmupReadsAreNeverFaulted) {
  FaultConfig config;
  config.io_error_rate = 1.0;
  config.warmup_reads = 10;
  FaultInjector injector(1, config);
  injector.Arm();
  for (PageId id = 0; id < 10; ++id) {
    EXPECT_EQ(injector.NextReadFault(id), FaultKind::kNone);
  }
  EXPECT_NE(injector.NextReadFault(10), FaultKind::kNone);
}

// --- Buffer-pool boundary ---

TEST(BufferPoolFaultTest, InvalidPageIdsAreInternalNotUb) {
  PageStore store;
  BufferPool pool(&store, 4);
  auto bad = pool.Fetch(kInvalidPage);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInternal);

  auto out_of_range = pool.Fetch(12345);  // Never allocated.
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInternal);
  EXPECT_EQ(store.Get(12345), nullptr) << "store access is bounds-checked";
}

TEST(BufferPoolFaultTest, ChecksumMismatchIsDataLoss) {
  PageStore store;
  BufferPool pool(&store, 4);
  PageId id = pool.NewPage();
  std::memset(store.Get(id)->bytes.data(), 0x5a, 64);
  pool.FlushAll();
  ASSERT_TRUE(pool.Fetch(id).ok()) << "first read seals the checksum";

  // Silent out-of-band mutation (no MarkDirty): the next simulated disk
  // read must detect the divergence from the sealed checksum.
  store.Get(id)->bytes[10] ^= 0x01;
  pool.FlushAll();
  auto fetch = pool.Fetch(id);
  ASSERT_FALSE(fetch.ok());
  EXPECT_EQ(fetch.status().code(), StatusCode::kDataLoss);

  // Restoring the byte heals the page: the stored checksum was never
  // clobbered by the failed read.
  store.Get(id)->bytes[10] ^= 0x01;
  pool.FlushAll();
  EXPECT_TRUE(pool.Fetch(id).ok());
}

TEST(BufferPoolFaultTest, PersistentIoErrorSurfacesAfterRetries) {
  PageStore store;
  BufferPool pool(&store, 4);
  PageId id = pool.NewPage();
  FaultConfig config;
  config.io_error_rate = 1.0;
  config.persistent_fraction = 1.0;
  FaultInjector injector(9, config);
  pool.set_fault_injector(&injector);
  pool.FlushAll();

  injector.Arm();
  auto fetch = pool.Fetch(id);
  ASSERT_FALSE(fetch.ok());
  EXPECT_EQ(fetch.status().code(), StatusCode::kIoError);

  // Hits never fault: a resident page is trusted memory.
  injector.Disarm();
  ASSERT_TRUE(pool.Fetch(id).ok());
  injector.Arm();
  EXPECT_TRUE(pool.Fetch(id).ok()) << "resident, so no simulated disk read";
}

TEST(BufferPoolFaultTest, TransientIoErrorsEitherRecoverOrFailCleanly) {
  PageStore store;
  BufferPool pool(&store, 1);
  PageId a = pool.NewPage();
  PageId b = pool.NewPage();  // Two pages + capacity 1: every fetch misses.
  FaultConfig config;
  config.io_error_rate = 1.0;
  config.persistent_fraction = 0.0;  // All errors transient.
  FaultInjector injector(5, config);
  pool.set_fault_injector(&injector);
  pool.FlushAll();

  injector.Arm();
  int ok = 0, io_error = 0;
  for (int i = 0; i < 200; ++i) {
    auto fetch = pool.Fetch(i % 2 == 0 ? a : b);
    if (fetch.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(fetch.status().code(), StatusCode::kIoError);
      ++io_error;
    }
    pool.FlushAll();
  }
  // Retries recover most transient errors (each retry fails with p=0.3, and
  // up to three are attempted), but not necessarily all.
  EXPECT_GT(ok, 150) << "bounded retries should recover most reads";
  EXPECT_EQ(ok + io_error, 200);
}

TEST(BufferPoolFaultTest, CorruptionNeverTouchesStoredBytes) {
  PageStore store;
  BufferPool pool(&store, 4);
  PageId id = pool.NewPage();
  std::memset(store.Get(id)->bytes.data(), 0x77, kPageSize);
  pool.FlushAll();
  ASSERT_TRUE(pool.Fetch(id).ok());  // Seal.
  Page pristine = *store.Get(id);

  FaultConfig config;
  config.corruption_rate = 1.0;
  config.header_fraction = 0.0;  // Bit flips: caught by the checksum.
  FaultInjector injector(3, config);
  pool.set_fault_injector(&injector);

  injector.Arm();
  for (int i = 0; i < 20; ++i) {
    pool.FlushAll();
    auto fetch = pool.Fetch(id);
    ASSERT_FALSE(fetch.ok());
    EXPECT_EQ(fetch.status().code(), StatusCode::kDataLoss);
  }
  injector.Disarm();
  EXPECT_EQ(std::memcmp(pristine.bytes.data(), store.Get(id)->bytes.data(),
                        kPageSize),
            0)
      << "corruption must land on the shadow copy, not the store";
  pool.FlushAll();
  EXPECT_TRUE(pool.Fetch(id).ok()) << "fault-free reread sees pristine bytes";
}

TEST(BufferPoolFaultTest, HeaderCorruptionDeliversStructurallyInvalidPage) {
  PageStore store;
  BufferPool pool(&store, 4);
  PageId id = pool.NewPage();
  SlottedPage sp(store.Get(id));
  sp.Init();
  ASSERT_GE(sp.Insert("hello"), 0);
  pool.FlushAll();
  ASSERT_TRUE(pool.Fetch(id).ok());  // Seal.

  FaultConfig config;
  config.corruption_rate = 1.0;
  config.header_fraction = 1.0;  // Header clobber: evades the checksum.
  FaultInjector injector(11, config);
  pool.set_fault_injector(&injector);
  pool.FlushAll();

  // The read "succeeds" — header corruption models damage the checksum can't
  // see — so callers' structural validation is the last line of defense.
  injector.Arm();
  auto fetch = pool.Fetch(id);
  ASSERT_TRUE(fetch.ok());
  EXPECT_FALSE(SlottedPage(*fetch).ValidateHeader());
  std::string_view record;
  EXPECT_EQ(SlottedPage(*fetch).ReadSlot(0, &record), SlotState::kCorrupt);

  // The store still holds the good page.
  injector.Disarm();
  pool.FlushAll();
  auto clean = pool.Fetch(id);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(SlottedPage(*clean).ValidateHeader());
  EXPECT_EQ(SlottedPage(*clean).ReadSlot(0, &record), SlotState::kLive);
  EXPECT_EQ(record, "hello");
}

// --- B-tree corruption ---

std::string IntKey(int64_t v) {
  std::string k;
  Value::Int(v).EncodeKey(&k);
  return k;
}

TEST(BTreeCorruptionTest, FlippedKeyByteIsDataLossNotCrash) {
  PageStore store;
  BufferPool pool(&store, 256);
  BTree tree(&pool, 0, /*unique=*/false);
  for (int64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(tree.Insert(IntKey(k), Tid{static_cast<PageId>(k), 0}).ok());
  }
  // Seal every index page by reading it once — from "disk": pages still
  // resident after the inserts would be trusted hits and stay unsealed.
  pool.FlushAll();
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.SeekToFirst().ok());
  while (cursor.Valid()) ASSERT_TRUE(cursor.Next().ok());

  // Flip one byte in the middle of the root page without resealing: the
  // checksum catches it on the next simulated disk read.
  store.Get(tree.root())->bytes[100] ^= 0x40;
  pool.FlushAll();
  Status st = cursor.Seek(IntKey(500));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(cursor.Valid());

  // Heal the byte: the same tree works again (no durable damage).
  store.Get(tree.root())->bytes[100] ^= 0x40;
  pool.FlushAll();
  ASSERT_TRUE(cursor.Seek(IntKey(500)).ok());
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.user_key(), IntKey(500));
}

TEST(BTreeCorruptionTest, OutOfRangeChildIdIsDataLossNotCrash) {
  PageStore store;
  BufferPool pool(&store, 256);
  BTree tree(&pool, 0, /*unique=*/false);
  for (int64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(tree.Insert(IntKey(k), Tid{static_cast<PageId>(k), 0}).ok());
  }
  ASSERT_GT(tree.height(), 1) << "need an internal root for this test";

  // Overwrite the root's leftmost child id (node layout: is_leaf u8, count
  // u16, next u32, then the leftmost child u32) with an id far past the
  // store, and RESEAL so the checksum is consistent: only the structural
  // node check on the read can catch this one.
  PageId bogus = 0x7fffffff;
  std::memcpy(store.Get(tree.root())->bytes.data() + 7, &bogus, 4);
  store.Seal(tree.root());
  pool.FlushAll();

  auto cursor = tree.NewCursor();
  Status st = cursor.SeekToFirst();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(cursor.Valid());
}

TEST(BTreeCorruptionTest, BadHeaderFlagIsDataLossNotCrash) {
  PageStore store;
  BufferPool pool(&store, 256);
  BTree tree(&pool, 0, /*unique=*/false);
  ASSERT_TRUE(tree.Insert(IntKey(1), Tid{1, 0}).ok());
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.SeekToFirst().ok());  // Seal the root.

  store.Get(tree.root())->bytes[0] = static_cast<char>(0xff);
  store.Seal(tree.root());  // Checksum-consistent, structurally invalid.
  pool.FlushAll();
  Status st = cursor.SeekToFirst();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
}

TEST(BTreeCorruptionTest, CyclicChildLinkIsDataLossOnWrite) {
  PageStore store;
  BufferPool pool(&store, 256);
  BTree tree(&pool, 0, /*unique=*/false);
  for (int64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(tree.Insert(IntKey(k), Tid{static_cast<PageId>(k), 0}).ok());
  }
  ASSERT_GT(tree.height(), 1) << "need an internal root for this test";

  // Point the root's leftmost child at the root itself and RESEAL: the id is
  // in range and the checksum consistent, so only the descent's height bound
  // can catch the cycle. Keys below the first separator route into it.
  PageId root = tree.root();
  std::memcpy(store.Get(root)->bytes.data() + 7, &root, 4);
  store.Seal(root);
  pool.FlushAll();

  Status insert = tree.Insert(IntKey(-1), Tid{1000, 0});
  EXPECT_EQ(insert.code(), StatusCode::kDataLoss) << insert.ToString();
  Status remove = tree.Delete(IntKey(0), Tid{0, 0});
  EXPECT_EQ(remove.code(), StatusCode::kDataLoss) << remove.ToString();
  EXPECT_EQ(tree.num_entries(), 1000u);
  auto cursor = tree.NewCursor();
  EXPECT_EQ(cursor.SeekToFirst().code(), StatusCode::kDataLoss);
}

// Two keys swapped in place, with every offset still in bounds, pass the
// per-access bounds checks: only the node check the pool runs on a read from
// the store finds them out of order.
TEST(BTreeCorruptionTest, UnorderedKeysAreDataLossOnRead) {
  PageStore store;
  BufferPool pool(&store, 256);
  BTree tree(&pool, 0, /*unique=*/false);
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree.Insert(IntKey(k), Tid{static_cast<PageId>(k), 0}).ok());
  }
  ASSERT_EQ(tree.num_pages(), 1u);
  // One leaf: a 7-byte header, 100 u16 end offsets, then 100 entries of a
  // 17-byte stored key and an 8-byte TID. Swap entries 10 and 11, reseal.
  char* area = store.Get(tree.root())->bytes.data() + 7 + 2 * 100;
  std::swap_ranges(area + 10 * 25, area + 11 * 25, area + 11 * 25);
  store.Seal(tree.root());
  pool.FlushAll();
  auto cursor = tree.NewCursor();
  Status st = cursor.SeekToFirst();
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  EXPECT_NE(st.message().find("not strictly ascending"), std::string::npos);
}

// A buffer hit runs no node check (resident frames are trusted memory), so
// bytes changed under a resident node reach the B-tree unchecked. Every
// access bounds-checks the offsets and ids it uses: a wild entry count, child
// id or end offset is kDataLoss for a seek, an insert and a delete alike,
// never an out-of-bounds read.
TEST(BTreeCorruptionTest, ResidentNodeBytesAreBoundsChecked) {
  enum Field { kCount, kChild, kLeafOffsets };
  for (Field field : {kCount, kChild, kLeafOffsets}) {
    SCOPED_TRACE("field " + std::to_string(field));
    PageStore store;
    BufferPool pool(&store, 256);
    BTree tree(&pool, 0, /*unique=*/false);
    for (int64_t k = 0; k < 1000; ++k) {
      ASSERT_TRUE(tree.Insert(IntKey(k), Tid{static_cast<PageId>(k), 0}).ok());
    }
    ASSERT_EQ(tree.height(), 2);
    // Internal root: is_leaf u8, count u16, next u32, leftmost child u32.
    char* root = store.Get(tree.root())->bytes.data();
    PageId first_leaf;
    std::memcpy(&first_leaf, root + 7, 4);
    ASSERT_TRUE(pool.is_resident(tree.root()));
    ASSERT_TRUE(pool.is_resident(first_leaf));
    if (field == kCount) {
      uint16_t count = 0xffff;
      std::memcpy(root + 1, &count, 2);
    } else if (field == kChild) {
      PageId bogus = 0x7fffffff;
      std::memcpy(root + 7, &bogus, 4);
    } else {
      // Leaf: the u16 end offsets follow the 7-byte header.
      char* leaf = store.Get(first_leaf)->bytes.data();
      uint16_t count;
      std::memcpy(&count, leaf + 1, 2);
      uint16_t wild = 0xfff0;
      for (uint16_t i = 0; i < count; ++i) {
        std::memcpy(leaf + 7 + 2 * i, &wild, 2);
      }
    }
    auto cursor = tree.NewCursor();
    EXPECT_EQ(cursor.Seek(IntKey(0)).code(), StatusCode::kDataLoss);
    EXPECT_FALSE(cursor.Valid());
    EXPECT_EQ(tree.Insert(IntKey(-1), Tid{1000, 0}).code(),
              StatusCode::kDataLoss);
    EXPECT_EQ(tree.Delete(IntKey(1), Tid{1, 0}).code(), StatusCode::kDataLoss);
    EXPECT_EQ(tree.num_entries(), 1000u);
  }
}

// --- Failed B-tree writes ---

using Entry = std::pair<std::string, PageId>;  // (user key, TID page).

// Scans `tree` through its cursor and checks that it yields exactly
// `expect`, in order: OK, the storage error that stopped the scan, or
// kInternal naming the first difference.
template <typename Entries>
Status ScanEquals(const BTree& tree, const Entries& expect) {
  auto cursor = tree.NewCursor();
  RETURN_IF_ERROR(cursor.SeekToFirst());
  size_t i = 0;
  for (const Entry& e : expect) {
    if (!cursor.Valid()) {
      return Status::Internal("scan ended after " + std::to_string(i) +
                              " of " + std::to_string(expect.size()) +
                              " entries");
    }
    if (cursor.user_key() != e.first || cursor.tid().page != e.second) {
      return Status::Internal("entry " + std::to_string(i) + " differs");
    }
    RETURN_IF_ERROR(cursor.Next());
    ++i;
  }
  if (cursor.Valid()) {
    return Status::Internal("scan has more than " + std::to_string(i) +
                            " entries");
  }
  return Status::OK();
}

TEST(BTreeFailedWriteTest, FailedRootSplitLeavesTheTreeAsItWas) {
  PageStore store;
  BufferPool pool(&store, 1);
  BTree tree(&pool, 0, /*unique=*/false);
  std::vector<Entry> expect;
  for (int64_t k = 0; k < 151; ++k) {
    ASSERT_TRUE(tree.Insert(IntKey(k), Tid{static_cast<PageId>(k), 0}).ok());
    expect.emplace_back(IntKey(k), static_cast<PageId>(k));
  }
  ASSERT_EQ(tree.num_pages(), 1u) << "151 INT keys fill the root leaf";

  // The 152nd key splits the root leaf. NewPage for the right sibling evicts
  // the root from the one frame, so the root's FetchMut misses and fails.
  FaultConfig config;
  config.io_error_rate = 1.0;
  config.persistent_fraction = 1.0;
  FaultInjector injector(1, config);
  pool.set_fault_injector(&injector);
  injector.Arm();
  Status st = tree.Insert(IntKey(151), Tid{151, 0});
  injector.Disarm();
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  EXPECT_EQ(tree.num_pages(), 1u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_EQ(tree.num_entries(), 151u);

  Status decoded = ScanEquals(tree, expect);
  EXPECT_TRUE(decoded.ok()) << "decoded nodes: " << decoded.ToString();
  pool.FlushAll();
  Status from_pages = ScanEquals(tree, expect);
  EXPECT_TRUE(from_pages.ok()) << "page bytes: " << from_pages.ToString();

  // Without the fault the same insert splits the root as usual.
  ASSERT_TRUE(tree.Insert(IntKey(151), Tid{151, 0}).ok());
  expect.emplace_back(IntKey(151), 151);
  EXPECT_EQ(tree.num_pages(), 3u);
  EXPECT_EQ(tree.height(), 2);
  Status grown = ScanEquals(tree, expect);
  EXPECT_TRUE(grown.ok()) << grown.ToString();
}

// Random inserts and deletes on a pool of GetParam() frames, so writes miss
// and FetchMut fails on I/O errors (30% of misses). After every operation
// the index must hold exactly the reference's entries, whether the
// operation succeeded or failed, and a failed one must allocate no page.
// Keys are an INT key padded to 209 bytes, so 18 entries fill a node and
// the tree reaches height 3: failed writes hit internal splits too.
class BTreeFailedWriteFuzzTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BTreeFailedWriteFuzzTest, FailedWritesLeaveTheTreeAsItWas) {
  int max_height = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    PageStore store;
    BufferPool pool(&store, GetParam());
    BTree tree(&pool, 0, /*unique=*/false);
    FaultConfig config;
    config.io_error_rate = 0.3;
    FaultInjector injector(seed, config);
    pool.set_fault_injector(&injector);
    Rng rng(seed);
    std::multiset<Entry> reference;
    PageId next_id = 0;
    int failures = 0;
    for (int op = 0; op < 3000; ++op) {
      const size_t pages_before = tree.num_pages();
      const bool insert = reference.empty() || rng.Bernoulli(0.6);
      Entry entry;
      if (insert) {
        entry = {IntKey(rng.Uniform(0, 200)) + std::string(200, 'Z'),
                 next_id++};
      } else {
        auto it = reference.begin();
        std::advance(it, rng.Uniform(0, reference.size() - 1));
        entry = *it;
      }
      injector.Arm();
      Status st = insert ? tree.Insert(entry.first, Tid{entry.second, 0})
                         : tree.Delete(entry.first, Tid{entry.second, 0});
      injector.Disarm();
      if (st.ok()) {
        if (insert) {
          reference.insert(entry);
        } else {
          reference.erase(reference.find(entry));
        }
      } else {
        ++failures;
        ASSERT_EQ(st.code(), StatusCode::kIoError) << "op " << op;
        ASSERT_EQ(tree.num_pages(), pages_before) << "op " << op;
      }
      Status scan = ScanEquals(tree, reference);
      ASSERT_TRUE(scan.ok()) << "op " << op << (st.ok() ? "" : " (failed)")
                             << ": " << scan.ToString();
      ASSERT_EQ(tree.num_entries(), reference.size()) << "op " << op;
    }
    EXPECT_GT(failures, 0) << "faults must fire";
    max_height = std::max(max_height, tree.height());
      pool.FlushAll();
    Status from_pages = ScanEquals(tree, reference);
    EXPECT_TRUE(from_pages.ok()) << "page bytes: " << from_pages.ToString();
  }
  EXPECT_EQ(max_height, 3) << "internal nodes must split under faults too";
}

INSTANTIATE_TEST_SUITE_P(Frames, BTreeFailedWriteFuzzTest,
                         ::testing::Values(1, 2, 3));

// --- Per-statement limits through the Database facade ---

class ExecLimitsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(64);
    ASSERT_TRUE(
        db_->Execute("CREATE TABLE T (A INT, B INT)").ok());
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(db_->Execute("INSERT INTO T VALUES (" + std::to_string(i) +
                               ", " + std::to_string(i % 7) + ")")
                      .ok());
    }
    ASSERT_TRUE(db_->Execute("UPDATE STATISTICS T").ok());
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ExecLimitsTest, PageBudgetAbortsAndEngineStaysUsable) {
  db_->rss().pool().FlushAll();
  ExecLimits limits;
  limits.max_buffer_gets = 1;  // Far too small for a 300-row scan.
  db_->set_exec_limits(limits);
  auto starved = db_->Query("SELECT A FROM T");
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);

  // Same instance, limits lifted: fully usable, complete answer.
  db_->set_exec_limits(ExecLimits{});
  auto full = db_->Query("SELECT A FROM T");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->rows.size(), 300u);
}

TEST_F(ExecLimitsTest, RowLimitAborts) {
  ExecLimits limits;
  limits.max_rows = 10;
  db_->set_exec_limits(limits);
  auto r = db_->Query("SELECT A FROM T");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  db_->set_exec_limits(ExecLimits{});
  EXPECT_TRUE(db_->Query("SELECT A FROM T").ok());
}

TEST_F(ExecLimitsTest, CancelFlagAborts) {
  std::atomic<bool> cancel{true};  // Pre-cancelled: aborts at the first row.
  ExecLimits limits;
  limits.cancel = &cancel;
  db_->set_exec_limits(limits);
  auto r = db_->Query("SELECT A FROM T");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);

  cancel = false;
  auto ok = db_->Query("SELECT A FROM T");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->rows.size(), 300u);
}

TEST_F(ExecLimitsTest, ExpiredDeadlineAborts) {
  ExecLimits limits;
  limits.has_deadline = true;
  limits.deadline = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1);  // Already past.
  db_->set_exec_limits(limits);
  auto r = db_->Query("SELECT A FROM T");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  db_->set_exec_limits(ExecLimits{});
  EXPECT_TRUE(db_->Query("SELECT A FROM T").ok());
}

// --- Fuzz-protocol determinism ---

TEST(FaultFuzzTest, SameSeedSameOutcome) {
  FuzzOptions options;
  options.inject_faults = true;
  options.queries_per_seed = 4;

  FuzzReport report_a, report_b;
  SeedResult a = RunFuzzSeed(42, options, &report_a);
  SeedResult b = RunFuzzSeed(42, options, &report_b);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(report_a.fault_queries, report_b.fault_queries);
  EXPECT_EQ(report_a.fault_clean_results, report_b.fault_clean_results);
  EXPECT_EQ(report_a.fault_clean_errors, report_b.fault_clean_errors);
  EXPECT_EQ(report_a.fault_budget_aborts, report_b.fault_budget_aborts);
  EXPECT_EQ(report_a.faults_injected, report_b.faults_injected);
}

TEST(FaultFuzzTest, SmokeSeedsHoldTheOracle) {
  FuzzOptions options;
  options.inject_faults = true;
  options.queries_per_seed = 4;
  FuzzReport report;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SeedResult r = RunFuzzSeed(seed, options, &report);
    EXPECT_TRUE(r.violations.empty())
        << "seed " << seed << ": " << r.violations.front();
  }
  EXPECT_GT(report.faults_injected, 0u) << "injection must actually fire";
  EXPECT_GT(report.fault_clean_errors, 0u)
      << "some queries must surface clean storage errors";
}

}  // namespace
}  // namespace systemr
