#include "rss/buffer_pool.h"

#include <algorithm>
#include <list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace systemr {
namespace {

TEST(BufferPoolTest, HitsAndMisses) {
  PageStore store;
  BufferPool pool(&store, 2);
  PageId a = pool.NewPage();
  PageId b = pool.NewPage();
  EXPECT_EQ(pool.stats().writes, 2u);
  EXPECT_EQ(pool.stats().fetches, 0u);

  pool.Fetch(a);  // Hit: resident since creation.
  pool.Fetch(b);  // Hit.
  EXPECT_EQ(pool.stats().fetches, 0u);

  PageId c = pool.NewPage();  // Evicts LRU (a).
  pool.Fetch(c);              // Hit.
  EXPECT_EQ(pool.stats().fetches, 0u);
  pool.Fetch(a);  // Miss.
  EXPECT_EQ(pool.stats().fetches, 1u);
}

TEST(BufferPoolTest, LruEvictionOrder) {
  PageStore store;
  BufferPool pool(&store, 2);
  PageId a = pool.NewPage();
  PageId b = pool.NewPage();
  pool.Fetch(a);              // Order now: a (MRU), b (LRU).
  PageId c = pool.NewPage();  // Evicts b.
  (void)c;
  pool.ResetStats();
  pool.Fetch(a);
  EXPECT_EQ(pool.stats().fetches, 0u) << "a should have stayed resident";
  pool.Fetch(b);
  EXPECT_EQ(pool.stats().fetches, 1u) << "b should have been evicted";
}

TEST(BufferPoolTest, SequentialScanLargerThanPoolFaultsEveryPage) {
  PageStore store;
  BufferPool pool(&store, 4);
  std::vector<PageId> pages;
  for (int i = 0; i < 16; ++i) pages.push_back(pool.NewPage());
  pool.FlushAll();
  pool.ResetStats();
  // Two sequential passes: with LRU and a pool smaller than the scan, every
  // access in both passes is a miss.
  for (int pass = 0; pass < 2; ++pass) {
    for (PageId p : pages) pool.Fetch(p);
  }
  EXPECT_EQ(pool.stats().fetches, 32u);
}

TEST(BufferPoolTest, RepeatedAccessWithinPoolIsFree) {
  PageStore store;
  BufferPool pool(&store, 8);
  std::vector<PageId> pages;
  for (int i = 0; i < 8; ++i) pages.push_back(pool.NewPage());
  pool.FlushAll();
  pool.ResetStats();
  for (int pass = 0; pass < 10; ++pass) {
    for (PageId p : pages) pool.Fetch(p);
  }
  EXPECT_EQ(pool.stats().fetches, 8u) << "only the first pass faults";
  EXPECT_EQ(pool.stats().logical_gets, 80u);
}

TEST(BufferPoolTest, DiscardRemovesResidency) {
  PageStore store;
  BufferPool pool(&store, 4);
  PageId a = pool.NewPage();
  pool.Discard(a);
  EXPECT_EQ(pool.resident(), 0u);
  EXPECT_EQ(store.Get(a), nullptr);
}

int check_calls = 0;

Status FirstByteIsZero(const PageStore&, PageId id, const Page& page) {
  ++check_calls;
  if (page.bytes[0] == 0) return Status::OK();
  return Status::DataLoss("page " + std::to_string(id) + " fails the check");
}

// A check passed to Fetch runs on each read from the store and never on a
// hit; a page that fails it stays non-resident, so the next Fetch reads and
// checks it again.
TEST(BufferPoolTest, FetchCheckRunsOncePerReadFromTheStore) {
  PageStore store;
  BufferPool pool(&store, 4);
  PageId good = pool.NewPage();
  PageId bad = pool.NewPage();
  store.Get(bad)->bytes[0] = 1;
  pool.FlushAll();
  pool.ResetStats();

  ASSERT_TRUE(pool.Fetch(good, &FirstByteIsZero).ok());  // Miss: checked.
  ASSERT_TRUE(pool.Fetch(good, &FirstByteIsZero).ok());  // Hit: trusted.
  EXPECT_EQ(check_calls, 1);
  EXPECT_TRUE(pool.is_resident(good));
  for (int i = 0; i < 2; ++i) {
    StatusOr<Page*> page = pool.Fetch(bad, &FirstByteIsZero);
    EXPECT_EQ(page.status().code(), StatusCode::kDataLoss);
    EXPECT_FALSE(pool.is_resident(bad));
  }
  EXPECT_EQ(check_calls, 3);
  EXPECT_EQ(pool.stats().fetches, 3u);
  // Unchecked, the same bytes read as usual.
  EXPECT_TRUE(pool.Fetch(bad).ok());
  EXPECT_TRUE(pool.is_resident(bad));
}

TEST(BufferPoolTest, CapacityShrinkEvicts) {
  PageStore store;
  BufferPool pool(&store, 8);
  for (int i = 0; i < 8; ++i) pool.NewPage();
  EXPECT_EQ(pool.resident(), 8u);
  pool.set_capacity(3);
  EXPECT_EQ(pool.resident(), 3u);
}

// The pool against a list-based reference LRU (most recent use first) over
// a seeded mix of every call that changes residency. After each call the
// resident set, its size and the fetch count must equal the model's: the
// pool is exact LRU, so it evicts the same victims.
TEST(BufferPoolTest, MatchesAReferenceLruOverRandomCalls) {
  PageStore store;
  size_t capacity = 6;
  BufferPool pool(&store, capacity);
  std::list<PageId> lru;
  std::vector<PageId> live;
  uint64_t fetches = 0;
  auto trim = [&] {
    while (lru.size() > capacity) lru.pop_back();
  };
  auto use = [&](PageId id) {
    auto it = std::find(lru.begin(), lru.end(), id);
    if (it == lru.end()) {
      ++fetches;
    } else {
      lru.erase(it);
    }
    lru.push_front(id);
    trim();
  };

  Rng rng(2026);
  // Half the picks come from the 16 newest pages, so hits are common too.
  auto pick = [&]() -> size_t {
    int64_t n = static_cast<int64_t>(live.size());
    if (rng.Bernoulli(0.5)) {
      return n - 1 - rng.Uniform(0, std::min<int64_t>(15, n - 1));
    }
    return rng.Uniform(0, n - 1);
  };
  for (int call = 0; call < 10000; ++call) {
    int64_t op = live.empty() ? 0 : rng.Uniform(0, 99);
    if (op < 15) {
      PageId id = pool.NewPage();
      live.push_back(id);
      lru.push_front(id);
      trim();
    } else if (op < 65) {
      PageId id = live[pick()];
      ASSERT_TRUE(pool.Fetch(id).ok());
      use(id);
    } else if (op < 80) {
      PageId id = live[pick()];
      ASSERT_TRUE(pool.FetchMut(id).ok());
      use(id);
    } else if (op < 90) {
      size_t i = pick();
      pool.Discard(live[i]);
      lru.remove(live[i]);
      live.erase(live.begin() + i);
    } else {
      capacity = static_cast<size_t>(rng.Uniform(0, 12));
      pool.set_capacity(capacity);
      trim();
    }
    ASSERT_EQ(pool.resident(), lru.size()) << "call " << call;
    ASSERT_EQ(pool.stats().fetches, fetches) << "call " << call;
    for (PageId id : live) {
      bool want = std::find(lru.begin(), lru.end(), id) != lru.end();
      ASSERT_EQ(pool.is_resident(id), want) << "page " << id << ", call "
                                            << call;
    }
  }
}

}  // namespace
}  // namespace systemr
