#include "rss/btree.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/value.h"
#include "rss/buffer_pool.h"

namespace systemr {
namespace {

std::string IntKey(int64_t v) {
  std::string k;
  Value::Int(v).EncodeKey(&k);
  return k;
}

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : pool_(&store_, 1024) {}
  PageStore store_;
  BufferPool pool_;
};

TEST_F(BTreeTest, EmptyTree) {
  BTree tree(&pool_, 0, /*unique=*/false);
  auto cursor = tree.NewCursor();
  cursor.SeekToFirst();
  EXPECT_FALSE(cursor.Valid());
  EXPECT_EQ(tree.num_pages(), 1u);
  EXPECT_EQ(tree.height(), 1);
}

TEST_F(BTreeTest, InsertAndScanInOrder) {
  BTree tree(&pool_, 0, /*unique=*/false);
  // Insert in scrambled order.
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 1000; ++i) keys.push_back(i);
  Rng rng(3);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Uniform(0, i - 1)]);
  }
  for (int64_t k : keys) {
    ASSERT_TRUE(tree.Insert(IntKey(k), Tid{static_cast<PageId>(k), 0}).ok());
  }
  EXPECT_EQ(tree.num_entries(), 1000u);
  EXPECT_GT(tree.height(), 1);

  auto cursor = tree.NewCursor();
  int64_t expected = 0;
  for (cursor.SeekToFirst(); cursor.Valid(); cursor.Next()) {
    EXPECT_EQ(cursor.user_key(), IntKey(expected));
    EXPECT_EQ(cursor.tid().page, static_cast<PageId>(expected));
    ++expected;
  }
  EXPECT_EQ(expected, 1000);
}

TEST_F(BTreeTest, SeekFindsLowerBound) {
  BTree tree(&pool_, 0, false);
  for (int64_t k = 0; k < 500; k += 5) {
    ASSERT_TRUE(tree.Insert(IntKey(k), Tid{0, 0}).ok());
  }
  auto cursor = tree.NewCursor();
  cursor.Seek(IntKey(12));  // Next key present is 15.
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.user_key(), IntKey(15));
  cursor.Seek(IntKey(15));  // Exact.
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.user_key(), IntKey(15));
  cursor.Seek(IntKey(496));  // Past the end.
  EXPECT_FALSE(cursor.Valid());
}

TEST_F(BTreeTest, DuplicateKeysAllRetained) {
  BTree tree(&pool_, 0, /*unique=*/false);
  for (int rep = 0; rep < 300; ++rep) {
    for (int64_t k = 0; k < 10; ++k) {
      ASSERT_TRUE(
          tree.Insert(IntKey(k), Tid{static_cast<PageId>(rep), 0}).ok());
    }
  }
  auto cursor = tree.NewCursor();
  cursor.Seek(IntKey(7));
  std::set<PageId> seen;
  int count = 0;
  while (cursor.Valid() && cursor.user_key() == IntKey(7)) {
    seen.insert(cursor.tid().page);
    ++count;
    cursor.Next();
  }
  EXPECT_EQ(count, 300);
  EXPECT_EQ(seen.size(), 300u);
}

TEST_F(BTreeTest, UniqueIndexRejectsDuplicates) {
  BTree tree(&pool_, 0, /*unique=*/true);
  ASSERT_TRUE(tree.Insert(IntKey(1), Tid{1, 0}).ok());
  Status st = tree.Insert(IntKey(1), Tid{2, 0});
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(tree.Insert(IntKey(2), Tid{3, 0}).ok());
}

TEST_F(BTreeTest, LeafChainCoversAllEntries) {
  BTree tree(&pool_, 0, false);
  const int kN = 5000;
  for (int64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(tree.Insert(IntKey(k * 2), Tid{0, 0}).ok());
  }
  // A full scan must see every key despite many splits.
  auto cursor = tree.NewCursor();
  int count = 0;
  for (cursor.SeekToFirst(); cursor.Valid(); cursor.Next()) ++count;
  EXPECT_EQ(count, kN);
  EXPECT_GE(tree.num_leaf_pages(), 2u);
  EXPECT_GT(tree.num_pages(), tree.num_leaf_pages());
}

TEST_F(BTreeTest, StringKeys) {
  BTree tree(&pool_, 0, false);
  std::vector<std::string> names = {"SMITH", "JONES", "ADAMS", "ZHANG",
                                    "MILLER"};
  for (size_t i = 0; i < names.size(); ++i) {
    std::string k;
    Value::Str(names[i]).EncodeKey(&k);
    ASSERT_TRUE(tree.Insert(k, Tid{static_cast<PageId>(i), 0}).ok());
  }
  std::sort(names.begin(), names.end());
  auto cursor = tree.NewCursor();
  size_t i = 0;
  for (cursor.SeekToFirst(); cursor.Valid(); cursor.Next(), ++i) {
    std::string expect;
    Value::Str(names[i]).EncodeKey(&expect);
    EXPECT_EQ(cursor.user_key(), expect);
  }
  EXPECT_EQ(i, names.size());
}

// Property test: random inserts == sorted reference, across several sizes.
class BTreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreePropertyTest, MatchesSortedReference) {
  PageStore store;
  BufferPool pool(&store, 4096);
  BTree tree(&pool, 0, false);
  Rng rng(GetParam());
  int n = GetParam() * 700 + 50;
  std::vector<int64_t> reference;
  for (int i = 0; i < n; ++i) {
    int64_t k = rng.Uniform(0, n / 2);  // Plenty of duplicates.
    reference.push_back(k);
    ASSERT_TRUE(tree.Insert(IntKey(k), Tid{static_cast<PageId>(i), 0}).ok());
  }
  std::sort(reference.begin(), reference.end());
  auto cursor = tree.NewCursor();
  size_t i = 0;
  for (cursor.SeekToFirst(); cursor.Valid(); cursor.Next(), ++i) {
    ASSERT_LT(i, reference.size());
    EXPECT_EQ(cursor.user_key(), IntKey(reference[i]));
  }
  EXPECT_EQ(i, reference.size());

  // Range check: count keys in [n/8, n/4] both ways.
  int64_t lo = n / 8, hi = n / 4;
  size_t expect = 0;
  for (int64_t k : reference) {
    if (k >= lo && k <= hi) ++expect;
  }
  cursor.Seek(IntKey(lo));
  size_t got = 0;
  while (cursor.Valid() && cursor.user_key() <= IntKey(hi)) {
    ++got;
    cursor.Next();
  }
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BTreePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// --- Deletion ---

TEST_F(BTreeTest, DeleteRemovesExactEntry) {
  BTree tree(&pool_, 0, false);
  // Duplicate user keys with distinct TIDs: delete must hit the exact pair.
  for (PageId p = 0; p < 5; ++p) {
    ASSERT_TRUE(tree.Insert(IntKey(7), Tid{p, 0}).ok());
  }
  ASSERT_TRUE(tree.Delete(IntKey(7), Tid{2, 0}).ok());
  auto cursor = tree.NewCursor();
  cursor.Seek(IntKey(7));
  std::set<PageId> left;
  while (cursor.Valid() && cursor.user_key() == IntKey(7)) {
    left.insert(cursor.tid().page);
    cursor.Next();
  }
  EXPECT_EQ(left, (std::set<PageId>{0, 1, 3, 4}));
  EXPECT_EQ(tree.Delete(IntKey(7), Tid{2, 0}).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree.Delete(IntKey(8), Tid{0, 0}).code(), StatusCode::kNotFound);
}

// Fuzz insert/delete against a std::multiset reference.
class BTreeDeleteFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreeDeleteFuzzTest, MatchesMultisetReference) {
  PageStore store;
  BufferPool pool(&store, 4096);
  BTree tree(&pool, 0, false);
  Rng rng(GetParam() * 97 + 13);
  // Reference: multiset of (key, tid-as-id).
  std::multiset<std::pair<int64_t, uint32_t>> reference;
  uint32_t next_id = 0;
  for (int op = 0; op < 4000; ++op) {
    if (reference.empty() || rng.Bernoulli(0.6)) {
      int64_t k = rng.Uniform(0, 200);
      uint32_t id = next_id++;
      ASSERT_TRUE(tree.Insert(IntKey(k), Tid{id, 0}).ok());
      reference.emplace(k, id);
    } else {
      // Delete a pseudo-random existing entry.
      auto it = reference.begin();
      std::advance(it, rng.Uniform(0, reference.size() - 1));
      ASSERT_TRUE(tree.Delete(IntKey(it->first), Tid{it->second, 0}).ok());
      reference.erase(it);
    }
  }
  // Full scan must match the reference in (key) order and count.
  EXPECT_EQ(tree.num_entries(), reference.size());
  auto cursor = tree.NewCursor();
  std::multiset<std::pair<int64_t, uint32_t>> seen;
  for (cursor.SeekToFirst(); cursor.Valid(); cursor.Next()) {
    size_t pos = 0;
    Value v;
    ASSERT_TRUE(Value::DecodeKey(cursor.user_key(), &pos, &v));
    seen.emplace(v.AsInt(), cursor.tid().page);
  }
  EXPECT_EQ(seen, reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeDeleteFuzzTest,
                         ::testing::Values(1, 2, 3, 4));

// --- Variable-length keys ---

using Entry = std::pair<std::string, PageId>;  // (user key, TID page).

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

// One fuzz case: a seed, a key shape, and the shapes its two trees (the
// non-unique one and the unique one) must end with.
struct VarKeyCase {
  uint64_t seed;
  bool composite;  // (INT, STRING) keys; otherwise one STRING column.
  size_t pages, leaf_pages;
  int height;
  size_t unique_pages, unique_leaf_pages;
  int unique_height;
};

// Seeded inserts and deletes of variable-length keys, checked against a
// std::multiset: STRING keys of 0-200 bytes (their encoding escapes NUL, so
// the alphabet has one), or (INT, STRING) composite keys, drawn from a pool
// so that keys repeat. Every key length on a page comes from the node's end
// offsets, so every check reads them.
class BTreeVarKeyFuzzTest : public ::testing::TestWithParam<VarKeyCase> {
 protected:
  // A STRING of 0-200 bytes over {a, b, NUL}; the one in four of at most
  // 3 bytes are prefixes of many others.
  static std::string RandomString(Rng* rng) {
    static constexpr char kAlphabet[] = {'a', 'b', '\0'};
    size_t len = rng->Uniform(0, rng->Bernoulli(0.25) ? 3 : 200);
    std::string s;
    for (size_t i = 0; i < len; ++i) s.push_back(kAlphabet[rng->Uniform(0, 2)]);
    return s;
  }
  // The leading column's encoding (the prefix an exclusive start skips)
  // and the whole key's.
  std::pair<std::string, std::string> RandomKey(Rng* rng) const {
    std::string leading, key;
    if (GetParam().composite) {
      Value::Int(rng->Uniform(0, 30)).EncodeKey(&leading);
      key = leading;
      Value::Str(RandomString(rng)).EncodeKey(&key);
    } else {
      Value::Str(RandomString(rng)).EncodeKey(&leading);
      key = leading;
    }
    return {leading, key};
  }
};

// Scans the whole tree through its cursor.
std::vector<Entry> ScanEntries(const BTree& tree) {
  std::vector<Entry> out;
  auto cursor = tree.NewCursor();
  EXPECT_TRUE(cursor.SeekToFirst().ok());
  while (cursor.Valid()) {
    out.emplace_back(std::string(cursor.user_key()), cursor.tid().page);
    EXPECT_TRUE(cursor.Next().ok());
  }
  return out;
}

TEST_P(BTreeVarKeyFuzzTest, MatchesMultisetReference) {
  const VarKeyCase& c = GetParam();
  PageStore store;
  BufferPool pool(&store, 4096);
  BTree tree(&pool, 0, /*unique=*/false);
  BTree unique_tree(&pool, 1, /*unique=*/true);
  Rng rng(c.seed);
  std::vector<std::pair<std::string, std::string>> key_pool;
  for (int i = 0; i < 600; ++i) key_pool.push_back(RandomKey(&rng));
  std::multiset<Entry> reference;
  std::map<std::string, PageId> unique_reference;
  PageId next_id = 0;

  auto check = [&](const std::string& when) {
    SCOPED_TRACE(when);
    std::vector<Entry> want(reference.begin(), reference.end());
    ASSERT_EQ(ScanEntries(tree), want);
    ASSERT_EQ(tree.num_entries(), reference.size());
    std::vector<Entry> unique_want(unique_reference.begin(),
                                   unique_reference.end());
    ASSERT_EQ(ScanEntries(unique_tree), unique_want);
    for (int probe = 0; probe < 100; ++probe) {
      auto [leading, key] = rng.Bernoulli(0.5)
                                ? key_pool[rng.Uniform(0, key_pool.size() - 1)]
                                : RandomKey(&rng);
      // Seek: the first entry whose user key is >= the probe.
      auto cursor = tree.NewCursor();
      ASSERT_TRUE(cursor.Seek(key).ok());
      auto it = reference.lower_bound(Entry{key, 0});
      ASSERT_EQ(cursor.Valid(), it != reference.end()) << "probe " << probe;
      if (cursor.Valid()) {
        ASSERT_EQ(Entry(std::string(cursor.user_key()), cursor.tid().page),
                  *it);
      }
      // An exclusive start, as IndexScan::Open applies it: seek to the
      // leading column, then skip the entries it prefixes.
      ASSERT_TRUE(cursor.Seek(leading).ok());
      while (cursor.Valid() &&
             HasPrefix(std::string(cursor.user_key()), leading)) {
        ASSERT_TRUE(cursor.Next().ok());
      }
      it = reference.lower_bound(Entry{leading, 0});
      while (it != reference.end() && HasPrefix(it->first, leading)) ++it;
      ASSERT_EQ(cursor.Valid(), it != reference.end()) << "probe " << probe;
      if (cursor.Valid()) {
        ASSERT_EQ(Entry(std::string(cursor.user_key()), cursor.tid().page),
                  *it);
      }
    }
  };

  for (int op = 1; op <= 4000; ++op) {
    if (reference.empty() || rng.Bernoulli(0.65)) {
      const std::string& key =
          key_pool[rng.Uniform(0, key_pool.size() - 1)].second;
      const PageId id = next_id++;
      ASSERT_TRUE(tree.Insert(key, Tid{id, 0}).ok());
      reference.emplace(key, id);
      Status st = unique_tree.Insert(key, Tid{id, 0});
      if (unique_reference.count(key) != 0) {
        ASSERT_EQ(st.code(), StatusCode::kAlreadyExists) << "op " << op;
      } else {
        ASSERT_TRUE(st.ok()) << "op " << op << ": " << st.ToString();
        unique_reference.emplace(key, id);
      }
    } else {
      auto it = reference.begin();
      std::advance(it, rng.Uniform(0, reference.size() - 1));
      ASSERT_TRUE(tree.Delete(it->first, Tid{it->second, 0}).ok());
      auto u = unique_reference.find(it->first);
      if (u != unique_reference.end() && rng.Bernoulli(0.5)) {
        ASSERT_TRUE(unique_tree.Delete(u->first, Tid{u->second, 0}).ok());
        unique_reference.erase(u);
      }
      reference.erase(it);
    }
    if (op % 1000 == 0) check("after op " + std::to_string(op));
  }
  EXPECT_EQ(tree.num_pages(), c.pages);
  EXPECT_EQ(tree.num_leaf_pages(), c.leaf_pages);
  EXPECT_EQ(tree.height(), c.height);
  EXPECT_EQ(unique_tree.num_pages(), c.unique_pages);
  EXPECT_EQ(unique_tree.num_leaf_pages(), c.unique_leaf_pages);
  EXPECT_EQ(unique_tree.height(), c.unique_height);
}

// Shapes measured when each node was searched in a decoded copy: the
// in-page layout keeps every node's byte count, so the same operations build
// the same trees.
INSTANTIATE_TEST_SUITE_P(
    Seeds, BTreeVarKeyFuzzTest,
    ::testing::Values(VarKeyCase{1, false, 60, 56, 3, 22, 21, 2},
                      VarKeyCase{2, false, 56, 53, 3, 21, 20, 2},
                      VarKeyCase{3, false, 57, 54, 3, 21, 20, 2},
                      VarKeyCase{1, true, 57, 53, 3, 24, 23, 2},
                      VarKeyCase{2, true, 64, 60, 3, 23, 22, 2},
                      VarKeyCase{3, true, 62, 58, 3, 27, 24, 3}),
    [](const ::testing::TestParamInfo<VarKeyCase>& info) {
      return std::string(info.param.composite ? "Composite" : "String") +
             std::to_string(info.param.seed);
    });

// --- Concurrent readers ---

// Four threads run cursor scans and point seeks on one tree through a pool
// far smaller than the tree, so their reads miss and check nodes at the
// same time. Each thread must see exactly what one thread alone sees.
TEST(BTreeConcurrencyTest, ConcurrentReadersMatchASerialRun) {
  PageStore store;
  BufferPool pool(&store, 1024);
  BTree tree(&pool, 0, /*unique=*/false);
  Rng rng(7);
  for (PageId i = 0; i < 20000; ++i) {
    ASSERT_TRUE(tree.Insert(IntKey(rng.Uniform(0, 5000)), Tid{i, 0}).ok());
  }
  pool.set_capacity(16);
  ASSERT_GT(tree.num_pages(), 16u * 4);

  // One run: a full scan, then a seek to every 7th key with the entry found.
  auto run = [&tree]() {
    std::vector<Entry> seen = ScanEntries(tree);
    auto cursor = tree.NewCursor();
    for (int64_t k = 0; k <= 5000; k += 7) {
      Status st = cursor.Seek(IntKey(k));
      if (!st.ok() || !cursor.Valid()) {
        seen.emplace_back(st.ToString(), kInvalidPage);
        continue;
      }
      seen.emplace_back(std::string(cursor.user_key()), cursor.tid().page);
    }
    return seen;
  };
  const std::vector<Entry> serial = run();
  ASSERT_EQ(serial.size(), 20000u + 715u);

  constexpr int kThreads = 4;
  std::vector<std::vector<Entry>> results(kThreads * 3);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&results, &run, t]() {
      for (int rep = 0; rep < 3; ++rep) results[t * 3 + rep] = run();
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i] == serial) << "run " << i;
  }
}

}  // namespace
}  // namespace systemr
