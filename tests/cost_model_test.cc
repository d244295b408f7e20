// TABLE 2 cost formulas and the §5 join/sort cost model.
#include "optimizer/cost_model.h"

#include <gtest/gtest.h>

namespace systemr {
namespace {

TableInfo MakeTable(uint64_t ncard, uint64_t tcard, double p) {
  TableInfo t;
  t.has_stats = true;
  t.ncard = ncard;
  t.tcard = tcard;
  t.p = p;
  return t;
}

IndexInfo MakeIndex(uint64_t nindx, bool clustered, bool unique = false) {
  IndexInfo i;
  i.nindx = nindx;
  i.clustered = clustered;
  i.unique = unique;
  return i;
}

TEST(CostModelTest, SegmentScanFormula) {
  CostModel cm({/*w=*/0.1, /*buffer_pages=*/100});
  TableInfo t = MakeTable(10000, 200, 0.5);
  PathCost c = cm.SegmentScan(t, 1000);
  // TCARD/P + W*RSICARD = 200/0.5 + 0.1*1000.
  EXPECT_DOUBLE_EQ(c.pages, 400.0);
  EXPECT_DOUBLE_EQ(c.rsi, 1000.0);
  EXPECT_DOUBLE_EQ(c.cost, 400.0 + 100.0);
  EXPECT_EQ(c.situation, AccessSituation::kSegmentScan);
}

TEST(CostModelTest, UniqueIndexEqual) {
  CostModel cm({0.1, 100});
  TableInfo t = MakeTable(10000, 200, 1.0);
  IndexInfo i = MakeIndex(50, false, true);
  PathCost c = cm.IndexScan(t, i, true, 0.0001, 1, /*unique_equal=*/true);
  // 1 + 1 + W.
  EXPECT_DOUBLE_EQ(c.cost, 2.0 + 0.1);
  EXPECT_EQ(c.situation, AccessSituation::kUniqueIndexEqual);
}

TEST(CostModelTest, ClusteredMatching) {
  CostModel cm({0.1, 100});
  TableInfo t = MakeTable(10000, 200, 1.0);
  IndexInfo i = MakeIndex(50, /*clustered=*/true);
  PathCost c = cm.IndexScan(t, i, true, 0.01, 100, false);
  // F(preds)*(NINDX + TCARD) + W*RSICARD = 0.01*(50+200) + 0.1*100.
  EXPECT_DOUBLE_EQ(c.pages, 2.5);
  EXPECT_DOUBLE_EQ(c.cost, 2.5 + 10.0);
  EXPECT_EQ(c.situation, AccessSituation::kClusteredIndexMatching);
}

TEST(CostModelTest, NonClusteredMatchingLargeRelation) {
  CostModel cm({0.1, /*buffer_pages=*/10});
  TableInfo t = MakeTable(10000, 200, 1.0);
  IndexInfo i = MakeIndex(50, /*clustered=*/false);
  PathCost c = cm.IndexScan(t, i, true, 0.5, 5000, false);
  // F*(NINDX+TCARD) = 125 > buffer → F*(NINDX + NCARD) = 0.5 * 10050.
  EXPECT_DOUBLE_EQ(c.pages, 5025.0);
  EXPECT_EQ(c.situation, AccessSituation::kNonClusteredIndexMatching);
}

TEST(CostModelTest, NonClusteredMatchingFitsInBuffer) {
  CostModel cm({0.1, /*buffer_pages=*/1000});
  TableInfo t = MakeTable(10000, 200, 1.0);
  IndexInfo i = MakeIndex(50, false);
  PathCost c = cm.IndexScan(t, i, true, 0.5, 5000, false);
  // 0.5*(50+200) = 125 <= 1000 → the cheaper TCARD variant applies.
  EXPECT_DOUBLE_EQ(c.pages, 125.0);
}

TEST(CostModelTest, NonMatchingVariants) {
  CostModel cm({0.1, /*buffer_pages=*/10});
  TableInfo t = MakeTable(10000, 200, 1.0);
  PathCost clustered =
      cm.IndexScan(t, MakeIndex(50, true), false, 1.0, 10000, false);
  EXPECT_DOUBLE_EQ(clustered.pages, 250.0);  // NINDX + TCARD.
  EXPECT_EQ(clustered.situation, AccessSituation::kClusteredIndexNonMatching);
  PathCost noncl =
      cm.IndexScan(t, MakeIndex(50, false), false, 1.0, 10000, false);
  EXPECT_DOUBLE_EQ(noncl.pages, 10050.0);  // NINDX + NCARD (no buffer fit).
  EXPECT_EQ(noncl.situation, AccessSituation::kNonClusteredIndexNonMatching);
}

// A PathCost of `pages` and `rsi` under `cm`'s W.
PathCost Parts(const CostModel& cm, double pages, double rsi) {
  return PathCost{pages, rsi, cm.Combine(pages, rsi)};
}

// Every composite formula keeps COST = PAGES + W * RSI.
void ExpectSplit(const CostModel& cm, const PathCost& c) {
  EXPECT_NEAR(c.cost, cm.Combine(c.pages, c.rsi), 1e-9 * c.cost);
}

TEST(CostModelTest, JoinCostFormula) {
  CostModel cm({0.1, 100});
  // C-outer + N * C-inner, part by part.
  PathCost c = cm.JoinCost(Parts(cm, 90.0, 100.0), 50.0, Parts(cm, 2.0, 10.0));
  EXPECT_DOUBLE_EQ(c.cost, 250.0);
  EXPECT_DOUBLE_EQ(c.pages, 190.0);
  EXPECT_DOUBLE_EQ(c.rsi, 600.0);
}

TEST(CostModelTest, SortedInnerPerProbe) {
  CostModel cm({0.1, 100});
  // TEMPPAGES/N + W*RSICARD.
  PathCost c = cm.SortedInnerPerProbe(200.0, 50.0, 4.0);
  EXPECT_DOUBLE_EQ(c.cost, 4.0 + 0.4);
  EXPECT_DOUBLE_EQ(c.pages, 4.0);
  EXPECT_DOUBLE_EQ(c.rsi, 4.0);
}

TEST(CostModelTest, CompositeFormulasSplitPagesAndRsi) {
  CostModel cm({0.1, /*buffer_pages=*/10});
  PathCost in = Parts(cm, 30.0, 500.0);
  // Sort: temp-page I/O is pages, one tuple move per row is an RSI call.
  PathCost sort = cm.SortCost(in, 1000, 100.0);
  EXPECT_DOUBLE_EQ(sort.rsi, 1500.0);
  EXPECT_GT(sort.pages, 30.0);
  ExpectSplit(cm, sort);
  // Hash join: W per build row, probe and match; a build larger than the
  // buffer spills its temp pages once out and once back.
  PathCost fits = cm.HashJoinCost(in, Parts(cm, 5.0, 20.0), 100, 20, 40, 10);
  EXPECT_DOUBLE_EQ(fits.pages, 35.0);
  EXPECT_DOUBLE_EQ(fits.rsi, 680.0);
  ExpectSplit(cm, fits);
  PathCost spills = cm.HashJoinCost(in, Parts(cm, 5.0, 20.0), 100, 20, 40, 11);
  EXPECT_DOUBLE_EQ(spills.pages, 57.0);
  ExpectSplit(cm, spills);
  // Aggregation and projection are RSI work only.
  PathCost hagg = cm.HashAggregateCost(in, 1000, 7);
  EXPECT_DOUBLE_EQ(hagg.pages, 30.0);
  EXPECT_DOUBLE_EQ(hagg.rsi, 1507.0);
  ExpectSplit(cm, hagg);
  PathCost project = cm.PerRowCost(in, 1000);
  EXPECT_DOUBLE_EQ(project.rsi, 1500.0);
  ExpectSplit(cm, project);
  // An exchange divides the cost but not the work its workers do.
  PathCost par = cm.ParallelFragmentCost(in, 10, 4);
  EXPECT_DOUBLE_EQ(par.cost, 80.0 / 4 + 0.1 * 10 + kExchangeStartupCost * 4);
  EXPECT_DOUBLE_EQ(par.pages, 30.0);
  EXPECT_DOUBLE_EQ(par.rsi, 500.0);
}

TEST(CostModelTest, TempPages) {
  CostModel cm({0.1, 100});
  // 100-byte rows → 40 per 4K page.
  EXPECT_DOUBLE_EQ(cm.TempPages(4000, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(cm.TempPages(1, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(cm.TempPages(0, 100.0), 1.0);
}

TEST(CostModelTest, SortPassesGrowWithSize) {
  CostModel cm({0.1, /*buffer_pages=*/10});
  EXPECT_EQ(cm.SortPasses(5), 0) << "one run";
  EXPECT_EQ(cm.SortPasses(50), 1) << "5 runs merged once";
  EXPECT_GE(cm.SortPasses(10000), 2);
}

TEST(CostModelTest, SortCostMonotoneInRows) {
  CostModel cm({0.1, 100});
  double small = cm.SortCost(Parts(cm, 10, 0), 1000, 50).cost;
  double large = cm.SortCost(Parts(cm, 10, 0), 100000, 50).cost;
  EXPECT_LT(small, large);
  // Includes the input cost.
  EXPECT_GT(cm.SortCost(Parts(cm, 500, 0), 1000, 50).cost,
            cm.SortCost(Parts(cm, 10, 0), 1000, 50).cost);
}

TEST(CostModelTest, TupleBytesFromStats) {
  TableInfo t = MakeTable(1000, 25, 1.0);
  // 25 pages * 4096 / 1000 tuples = 102.4 bytes.
  EXPECT_NEAR(CostModel::TupleBytes(t), 102.4, 0.01);
  TableInfo nostats;
  EXPECT_GT(CostModel::TupleBytes(nostats), 0);
}

TEST(CostModelTest, WeightingFactorShiftsChoice) {
  TableInfo t = MakeTable(10000, 500, 1.0);
  IndexInfo idx = MakeIndex(100, /*clustered=*/false);
  // Matching scan touching 10% of a non-clustered index vs segment scan.
  // With W=0: pages dominate. With large W: RSI calls dominate and the two
  // paths converge since RSICARD is equal; ordering must stay consistent.
  for (double w : {0.0, 0.05, 0.5, 5.0}) {
    CostModel cm({w, 50});
    PathCost seg = cm.SegmentScan(t, 1000);
    PathCost ind = cm.IndexScan(t, idx, true, 0.1, 1000, false);
    EXPECT_DOUBLE_EQ(seg.cost - ind.cost, seg.pages - ind.pages)
        << "equal RSICARD means W cancels in the comparison";
  }
}

}  // namespace
}  // namespace systemr
