// Deterministic executor counter gate: for every plan shape whose pull loop
// the executor implements, one statement's result rows and every counter of
// its ExecStats block are pinned exactly. All of them are machine- and
// protocol-independent: an RSI call is one tuple delivered (the paper's W
// term, §4), and with a buffer pool that holds every page and starts empty,
// page fetches count the distinct pages a plan touches; buffer gets, batches,
// hash rows, subquery evaluations and morsels follow from the plan and the
// data alone. A change here is a plan, metering or executor change, never
// noise. COUNT(*)'s buffer gets are bounded by one get per page visit plus
// one per batch.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "db/database.h"
#include "optimizer/explain.h"
#include "workload/querygen.h"

namespace systemr {
namespace {

// Large enough that no statement below evicts a page.
constexpr size_t kPoolPages = 4096;

std::unique_ptr<Database> BuildDb() {
  auto db = std::make_unique<Database>(kPoolPages);
  ChainSchemaSpec spec;  // R0 2000 rows, R1 1000, R2 500.
  EXPECT_TRUE(BuildChainSchema(db.get(), spec, 1979).ok());
  // Learned selectivities would let one shape's run change a later plan.
  db->set_feedback_enabled(false);
  return db;
}

bool Contains(const PlanNode* n, PlanKind kind) {
  if (n == nullptr) return false;
  return n->kind == kind || Contains(n->left.get(), kind) ||
         Contains(n->right.get(), kind);
}

const PlanNode* Find(const PlanNode* n, PlanKind kind) {
  if (n == nullptr || n->kind == kind) return n;
  const PlanNode* l = Find(n->left.get(), kind);
  return l != nullptr ? l : Find(n->right.get(), kind);
}

// Join options with only the given methods enabled.
JoinEnumerator::Options Methods(bool nested_loop, bool merge, bool hash) {
  JoinEnumerator::Options join;
  join.enable_nested_loop = nested_loop;
  join.enable_merge_join = merge;
  join.enable_hash_join = hash;
  return join;
}

const JoinEnumerator::Options kAllJoins = Methods(true, true, true);
const JoinEnumerator::Options kNestedLoopOnly = Methods(true, false, false);
const JoinEnumerator::Options kMergeOnly = Methods(false, true, false);
const JoinEnumerator::Options kHashOnly = Methods(false, false, true);

struct Shape {
  const char* name;
  const char* sql;
  JoinEnumerator::Options join;
  int forced_dop;      // > 0: plan with every eligible fragment parallel.
  PlanKind exercised;  // The operator whose pull loop this shape covers.
  uint64_t rows;
  ExecStats stats;  // Every counter; fields left out are pinned at zero.
};

void PrintTo(const Shape& s, std::ostream* os) { *os << s.name; }

constexpr std::pair<const char*, uint64_t ExecStats::*> kCounters[] = {
    {"page_fetches", &ExecStats::page_fetches},
    {"page_writes", &ExecStats::page_writes},
    {"rsi_calls", &ExecStats::rsi_calls},
    {"subquery_evals", &ExecStats::subquery_evals},
    {"subquery_cache_hits", &ExecStats::subquery_cache_hits},
    {"buffer_gets", &ExecStats::buffer_gets},
    {"buffer_hits", &ExecStats::buffer_hits},
    {"batches", &ExecStats::batches},
    {"batch_rows_in", &ExecStats::batch_rows_in},
    {"batch_rows_out", &ExecStats::batch_rows_out},
    {"hash_build_rows", &ExecStats::hash_build_rows},
    {"hash_probe_rows", &ExecStats::hash_probe_rows},
    {"parallel_workers", &ExecStats::parallel_workers},
    {"parallel_morsels", &ExecStats::parallel_morsels},
};

class ExecCountersTest : public ::testing::TestWithParam<Shape> {
 protected:
  static void SetUpTestSuite() { db_ = BuildDb().release(); }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* ExecCountersTest::db_ = nullptr;

TEST_P(ExecCountersTest, CountersArePinned) {
  const Shape& s = GetParam();
  const OptimizerOptions defaults = db_->options();
  db_->options().join = s.join;
  if (s.forced_dop > 0) {
    db_->options().max_dop = s.forced_dop;
    db_->options().force_parallel = true;
  }
  auto q = db_->Prepare(s.sql);
  db_->options() = defaults;
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(Contains(q->root.get(), s.exercised))
      << ExplainPlan(q->root, *q->block);
  db_->rss().pool().FlushAll();
  auto r = db_->Run(*q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), s.rows);
  for (const auto& [counter, field] : kCounters) {
    EXPECT_EQ(r->stats.*field, s.stats.*field) << counter;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExecCountersTest,
    ::testing::Values(
        Shape{"count", "SELECT COUNT(*) FROM R0", kAllJoins, 0,
              PlanKind::kAggregate, 1,
              ExecStats{.page_fetches = 23, .rsi_calls = 2000,
                        .buffer_gets = 24, .buffer_hits = 1, .batches = 2,
                        .batch_rows_in = 2000, .batch_rows_out = 2000}},
        Shape{"sort", "SELECT R1.PK, R1.B FROM R1 ORDER BY R1.B",
              kAllJoins, 0, PlanKind::kSort, 1000,
              ExecStats{.page_fetches = 12, .page_writes = 12,
                        .rsi_calls = 1000, .buffer_gets = 2035,
                        .buffer_hits = 2023, .batches = 1,
                        .batch_rows_in = 1000, .batch_rows_out = 1000}},
        Shape{"subquery",
              "SELECT X.PK FROM R1 X WHERE X.A BETWEEN 10 AND 14 AND "
              "X.B <= (SELECT MAX(Y.B) FROM R2 Y WHERE Y.A = X.A)",
              kAllJoins, 0, PlanKind::kFilter, 94,
              ExecStats{.page_fetches = 22, .rsi_calls = 2603,
                        .subquery_evals = 5, .subquery_cache_hits = 98,
                        .buffer_gets = 138, .buffer_hits = 116, .batches = 6,
                        .batch_rows_in = 2603, .batch_rows_out = 139}},
        Shape{"nlj",
              "SELECT R0.PK, R1.A FROM R0, R1 WHERE R0.FK = R1.PK AND "
              "R0.B < 10",
              kNestedLoopOnly, 0, PlanKind::kNestedLoopJoin, 391,
              ExecStats{.page_fetches = 62, .rsi_calls = 1391,
                        .buffer_gets = 6040, .buffer_hits = 5978,
                        .batches = 1327, .batch_rows_in = 1391,
                        .batch_rows_out = 1391}},
        Shape{"merge",
              "SELECT R0.PK, R1.A FROM R0, R1 WHERE R0.FK = R1.PK AND "
              "R0.B < 10",
              kMergeOnly, 0, PlanKind::kMergeJoin, 391,
              ExecStats{.page_fetches = 71, .rsi_calls = 1385,
                        .buffer_gets = 3032, .buffer_hits = 2961,
                        .batches = 1385, .batch_rows_in = 1385,
                        .batch_rows_out = 1385}},
        // Neither input is ordered on B: both are sorted into temporary
        // lists, the inner one as C-inner(sorted list) (§5).
        Shape{"merge_sorted",
              "SELECT R1.PK, R2.PK FROM R1, R2 WHERE R1.B = R2.B AND "
              "R1.A BETWEEN 10 AND 19",
              kMergeOnly, 0, PlanKind::kMergeJoin, 2232,
              ExecStats{.page_fetches = 22, .page_writes = 10,
                        .rsi_calls = 722, .buffer_gets = 1695,
                        .buffer_hits = 1673, .batches = 2,
                        .batch_rows_in = 722, .batch_rows_out = 722}},
        Shape{"hash",
              "SELECT R1.PK, R2.PK FROM R1, R2 WHERE R1.B = R2.B AND "
              "R1.A BETWEEN 10 AND 19",
              kHashOnly, 0, PlanKind::kHashJoin, 2232,
              ExecStats{.page_fetches = 22, .rsi_calls = 722,
                        .buffer_gets = 233, .buffer_hits = 211, .batches = 6,
                        .batch_rows_in = 2954, .batch_rows_out = 2954,
                        .hash_build_rows = 500, .hash_probe_rows = 222}},
        Shape{"hash_group", "SELECT R0.B, COUNT(*) FROM R0 GROUP BY R0.B",
              kHashOnly, 0, PlanKind::kHashAggregate, 50,
              ExecStats{.page_fetches = 23, .rsi_calls = 2000,
                        .buffer_gets = 24, .buffer_hits = 1, .batches = 2,
                        .batch_rows_in = 2000, .batch_rows_out = 2000}},
        // Two workers share R0's three 8-page morsels; their blocks are
        // added to the statement's at the exchange barrier.
        Shape{"parallel_group", "SELECT R0.B, COUNT(*) FROM R0 GROUP BY R0.B",
              kAllJoins, 2, PlanKind::kExchange, 50,
              ExecStats{.page_fetches = 23, .rsi_calls = 2000,
                        .buffer_gets = 23, .batches = 3,
                        .batch_rows_in = 2000, .batch_rows_out = 2000,
                        .parallel_workers = 2, .parallel_morsels = 3}}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return std::string(info.param.name);
    });

// olap_mix's seven statement classes (perfbench/src/olap.cc, MakeClasses)
// with fixed windows, on that workload's chain schema and 128-frame pool.
// The pool holds under half of the 399 data pages, so page fetches and
// buffer hits here depend on the exact LRU victim order: this is the tier-1
// guard for the buffer pool's eviction path as well as for olap_mix's plans.
constexpr size_t kOlapPoolPages = 128;

struct OlapShape {
  const char* name;
  const char* sql;
  uint64_t rows;
  ExecStats stats;
};

void PrintTo(const OlapShape& s, std::ostream* os) { *os << s.name; }

class OlapShapesTest : public ::testing::TestWithParam<OlapShape> {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database(kOlapPoolPages);
    ChainSchemaSpec spec;
    spec.num_tables = 3;
    spec.base_rows = 20000;
    spec.shrink = 0.5;
    spec.a_domain = 100;
    spec.b_domain = 100;
    ASSERT_TRUE(BuildChainSchema(db_, spec, 1979).ok());
    db_->set_feedback_enabled(false);
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* OlapShapesTest::db_ = nullptr;

TEST_P(OlapShapesTest, CountersArePinned) {
  const OlapShape& s = GetParam();
  auto q = db_->Prepare(s.sql);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  db_->rss().pool().FlushAll();
  auto r = db_->Run(*q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), s.rows);
  for (const auto& [counter, field] : kCounters) {
    EXPECT_EQ(r->stats.*field, s.stats.*field) << counter;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OlapMix, OlapShapesTest,
    ::testing::Values(
        OlapShape{"scan",
                  "SELECT R0.PK, R0.A, R0.B FROM R0 WHERE R0.A + R0.B < 60 "
                  "OR R0.PK BETWEEN 0 AND 1999",
                  5384,
                  ExecStats{.page_fetches = 228, .rsi_calls = 20000,
                            .buffer_gets = 246, .buffer_hits = 18,
                            .batches = 20, .batch_rows_in = 20000,
                            .batch_rows_out = 5384}},
        OlapShape{"join3",
                  "SELECT R0.PK, R2.A FROM R0, R1, R2 WHERE R0.FK = R1.PK "
                  "AND R1.FK = R2.PK AND R0.B BETWEEN 0 AND 14 AND "
                  "R0.A + R2.B < 70",
                  763,
                  ExecStats{.page_fetches = 582, .rsi_calls = 18038,
                            .buffer_gets = 15412, .buffer_hits = 14830,
                            .batches = 15007, .batch_rows_in = 21076,
                            .batch_rows_out = 18801, .hash_build_rows = 3038,
                            .hash_probe_rows = 10000}},
        OlapShape{"hjoin",
                  "SELECT R1.PK, R2.PK FROM R1, R2 WHERE R1.B = R2.B AND "
                  "R1.A BETWEEN 0 AND 9",
                  50774,
                  ExecStats{.page_fetches = 182, .rsi_calls = 6014,
                            .buffer_gets = 1087, .buffer_hits = 905,
                            .batches = 57, .batch_rows_in = 56788,
                            .batch_rows_out = 56788, .hash_build_rows = 5000,
                            .hash_probe_rows = 1014}},
        OlapShape{"hagg",
                  "SELECT R0.B, COUNT(*), SUM(R0.A) FROM R0 GROUP BY R0.B",
                  100,
                  ExecStats{.page_fetches = 228, .rsi_calls = 20000,
                            .buffer_gets = 246, .buffer_hits = 18,
                            .batches = 20, .batch_rows_in = 20000,
                            .batch_rows_out = 20000}},
        OlapShape{"count", "SELECT COUNT(*) FROM R0", 1,
                  ExecStats{.page_fetches = 228, .rsi_calls = 20000,
                            .buffer_gets = 246, .buffer_hits = 18,
                            .batches = 20, .batch_rows_in = 20000,
                            .batch_rows_out = 20000}},
        OlapShape{"sort", "SELECT R1.PK, R1.B FROM R1 ORDER BY R1.B", 10000,
                  ExecStats{.page_fetches = 169, .page_writes = 115,
                            .rsi_calls = 10000, .buffer_gets = 20350,
                            .buffer_hits = 20181, .batches = 10,
                            .batch_rows_in = 10000, .batch_rows_out = 10000}},
        OlapShape{"subq",
                  "SELECT X.PK FROM R1 X WHERE X.A BETWEEN 0 AND 4 AND "
                  "X.B <= (SELECT MAX(Y.B) FROM R2 Y WHERE Y.A = X.A)",
                  502,
                  ExecStats{.page_fetches = 176, .rsi_calls = 25504,
                            .subquery_evals = 5, .subquery_cache_hits = 499,
                            .buffer_gets = 816, .buffer_hits = 640,
                            .batches = 26, .batch_rows_in = 25504,
                            .batch_rows_out = 732}}),
    [](const ::testing::TestParamInfo<OlapShape>& info) {
      return std::string(info.param.name);
    });

TEST(ExecCountersGate, NestedLoopInnerIsAnIndexProbe) {
  std::unique_ptr<Database> db = BuildDb();
  db->options().join = kNestedLoopOnly;
  auto q = db->Prepare(
      "SELECT R0.PK, R1.A FROM R0, R1 WHERE R0.FK = R1.PK AND R0.B < 10");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const PlanNode* nlj = Find(q->root.get(), PlanKind::kNestedLoopJoin);
  ASSERT_NE(nlj, nullptr);
  EXPECT_EQ(nlj->right->kind, PlanKind::kIndexScan)
      << ExplainPlan(q->root, *q->block);
}

TEST(ExecCountersGate, SortedMergeSortsBothInputs) {
  std::unique_ptr<Database> db = BuildDb();
  db->options().join = kMergeOnly;
  auto q = db->Prepare(
      "SELECT R1.PK, R2.PK FROM R1, R2 WHERE R1.B = R2.B AND "
      "R1.A BETWEEN 10 AND 19");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const PlanNode* merge = Find(q->root.get(), PlanKind::kMergeJoin);
  ASSERT_NE(merge, nullptr);
  EXPECT_EQ(merge->left->kind, PlanKind::kSort)
      << ExplainPlan(q->root, *q->block);
  EXPECT_EQ(merge->right->kind, PlanKind::kSort)
      << ExplainPlan(q->root, *q->block);
}

TEST(ExecCountersGate, CountStarMakesOneGetPerPagePlusBatch) {
  std::unique_ptr<Database> db = BuildDb();
  const TableInfo* r0 = db->catalog().FindTable("R0");
  ASSERT_NE(r0, nullptr);
  const uint64_t pages = db->rss().segment(r0->segment)->num_pages();
  db->rss().pool().FlushAll();
  auto r = db->Query("SELECT COUNT(*) FROM R0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 2000);
  EXPECT_LE(r->stats.buffer_gets, pages + r->stats.batches)
      << "pages=" << pages << " batches=" << r->stats.batches;
}

// DML target collection runs its own scan loop (db/dml.cc); B is unindexed,
// so the WHERE is a segment scan. Measured through the RSS-wide counters.
TEST(ExecCountersGate, UpdateOverSegmentScanIsPinned) {
  std::unique_ptr<Database> db = BuildDb();
  db->rss().pool().FlushAll();
  const BufferStats before = db->rss().pool().stats();
  const uint64_t rsi_before = db->rss().counters().rsi_calls;
  auto n = db->Mutate("UPDATE R1 SET B = B + 100 WHERE B < 5");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  const BufferStats delta = db->rss().pool().stats() - before;
  EXPECT_EQ(*n, 99u);
  EXPECT_EQ(db->rss().counters().rsi_calls - rsi_before, 99u);
  EXPECT_EQ(delta.fetches, 45u);
}

}  // namespace
}  // namespace systemr
