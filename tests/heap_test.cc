// HeapFile + SegmentScan tests, including the §3 guarantees: a segment scan
// touches every non-empty segment page exactly once, and tuples of several
// relations can share a segment (and a page).
#include "rss/heap_file.h"

#include <gtest/gtest.h>

#include "rss/rss.h"

namespace systemr {
namespace {

Row MakeRow(int64_t id, const std::string& name) {
  return {Value::Int(id), Value::Str(name)};
}

// Opens `scan` and reads it to the end through NextBatch, expecting no
// storage error. Batches of 7 end mid-page, so the scan must resume there.
std::vector<Row> ReadAll(RsiScan* scan) {
  std::vector<Row> all;
  std::vector<Row> rows;
  std::vector<Tid> tids;
  size_t n = 0;
  Status st = scan->Open();
  while (st.ok()) {
    st = scan->NextBatch(&rows, &tids, 7, &n);
    if (!st.ok() || n == 0) break;
    all.insert(all.end(), rows.begin(), rows.begin() + n);
  }
  EXPECT_TRUE(st.ok()) << st.ToString();
  return all;
}

TEST(HeapFileTest, InsertAndReadBack) {
  Rss rss(16);
  SegmentId seg = rss.CreateSegment();
  HeapFile* heap = rss.CreateHeap(seg, 0);

  auto tid = heap->Insert(MakeRow(1, "alice"));
  ASSERT_TRUE(tid.ok());
  Row row;
  ASSERT_TRUE(heap->ReadTuple(*tid, &row).ok());
  EXPECT_EQ(row[0].AsInt(), 1);
  EXPECT_EQ(row[1].AsStr(), "alice");
}

TEST(HeapFileTest, SpillsAcrossPages) {
  Rss rss(16);
  SegmentId seg = rss.CreateSegment();
  HeapFile* heap = rss.CreateHeap(seg, 0);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(heap->Insert(MakeRow(i, "row-" + std::to_string(i))).ok());
  }
  EXPECT_GT(heap->segment()->num_pages(), 1u);
  uint64_t tuples = 0;
  EXPECT_TRUE(ScanAll(rss.OpenSegmentScan(0, {}).get(), [&](Row&, Tid) {
                ++tuples;
                return Status::OK();
              }).ok());
  EXPECT_EQ(tuples, 2000u);
}

TEST(HeapFileTest, OversizeTupleRejected) {
  Rss rss(16);
  SegmentId seg = rss.CreateSegment();
  HeapFile* heap = rss.CreateHeap(seg, 0);
  Row row = {Value::Str(std::string(5000, 'x'))};
  EXPECT_FALSE(heap->Insert(row).ok());
}

TEST(SegmentScanTest, ReturnsAllTuplesOfRelation) {
  Rss rss(16);
  SegmentId seg = rss.CreateSegment();
  HeapFile* heap = rss.CreateHeap(seg, 0);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(heap->Insert(MakeRow(i, "v")).ok());
  }
  auto scan = rss.OpenSegmentScan(0, {});
  int count = 0;
  int64_t sum = 0;
  for (const Row& row : ReadAll(scan.get())) {
    ++count;
    sum += row[0].AsInt();
  }
  EXPECT_EQ(count, 500);
  EXPECT_EQ(sum, 499 * 500 / 2);
  EXPECT_EQ(rss.counters().rsi_calls, 500u);
}

TEST(SegmentScanTest, TwoRelationsSharingASegment) {
  Rss rss(16);
  SegmentId seg = rss.CreateSegment();
  HeapFile* h0 = rss.CreateHeap(seg, 0);
  HeapFile* h1 = rss.CreateHeap(seg, 1);
  // Interleave inserts so both relations occupy the same pages.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(h0->Insert(MakeRow(i, "zero")).ok());
    ASSERT_TRUE(h1->Insert(MakeRow(i, "one")).ok());
  }
  for (RelId rel : {RelId{0}, RelId{1}}) {
    auto scan = rss.OpenSegmentScan(rel, {});
    int count = 0;
    for (const Row& row : ReadAll(scan.get())) {
      ++count;
      EXPECT_EQ(row[1].AsStr(), rel == 0 ? "zero" : "one");
    }
    EXPECT_EQ(count, 100);
  }
}

TEST(SegmentScanTest, TouchesEachPageExactlyOnce) {
  Rss rss(/*buffer_pages=*/4);
  SegmentId seg = rss.CreateSegment();
  HeapFile* heap = rss.CreateHeap(seg, 0);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(heap->Insert(MakeRow(i, std::string(40, 'p'))).ok());
  }
  size_t pages = heap->segment()->num_pages();
  ASSERT_GT(pages, 8u) << "need more pages than buffer frames";

  rss.pool().FlushAll();
  rss.pool().ResetStats();
  auto scan = rss.OpenSegmentScan(0, {});
  EXPECT_EQ(ReadAll(scan.get()).size(), 3000u);
  // §3: "each page is touched only once" — page fetches == segment pages.
  EXPECT_EQ(rss.pool().stats().fetches, pages);
}

TEST(SegmentScanTest, SargsFilterBelowRsi) {
  Rss rss(16);
  SegmentId seg = rss.CreateSegment();
  HeapFile* heap = rss.CreateHeap(seg, 0);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(heap->Insert(MakeRow(i % 10, "x")).ok());
  }
  Sarg sarg;
  sarg.AddConjunct({SargTerm{0, CompareOp::kEq, Value::Int(3)}});
  auto scan = rss.OpenSegmentScan(0, {sarg});
  EXPECT_EQ(ReadAll(scan.get()).size(), 20u);
  // Rejected tuples cost no RSI calls (§3).
  EXPECT_EQ(rss.counters().rsi_calls, 20u);
}

}  // namespace
}  // namespace systemr
