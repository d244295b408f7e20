// Deterministic executor counter gate: for every plan shape whose pull loop
// the executor implements, one statement's result rows, RSI calls and
// cold-pool page fetches are pinned exactly. All three are machine- and
// protocol-independent: an RSI call is one tuple delivered (the paper's W
// term, §4), and with a buffer pool that holds every page and starts empty,
// page fetches count the distinct pages a plan touches. A change here is a
// plan, metering or executor change, never noise. COUNT(*)'s buffer gets are
// bounded by one get per page visit plus one per batch.
#include <gtest/gtest.h>

#include <memory>

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

struct Shape {
  const char* name;
  const char* sql;
  JoinMethodForce force;
  PlanKind exercised;  // The operator whose pull loop this shape covers.
  uint64_t rows;
  uint64_t rsi_calls;
  uint64_t page_fetches;
};

void PrintTo(const Shape& s, std::ostream* os) { *os << s.name; }

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
  db_->options().join.force = s.force;
  auto q = db_->Prepare(s.sql);
  db_->options().join.force = JoinMethodForce::kAuto;
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(Contains(q->root.get(), s.exercised))
      << ExplainPlan(q->root, *q->block);
  db_->rss().pool().FlushAll();
  auto r = db_->Run(*q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), s.rows);
  EXPECT_EQ(r->stats.rsi_calls, s.rsi_calls);
  EXPECT_EQ(r->stats.page_fetches, s.page_fetches);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExecCountersTest,
    ::testing::Values(
        Shape{"count", "SELECT COUNT(*) FROM R0", JoinMethodForce::kAuto,
              PlanKind::kAggregate, 1, 2000, 23},
        Shape{"sort", "SELECT R1.PK, R1.B FROM R1 ORDER BY R1.B",
              JoinMethodForce::kAuto, PlanKind::kSort, 1000, 1000, 12},
        Shape{"subquery",
              "SELECT X.PK FROM R1 X WHERE X.A BETWEEN 10 AND 14 AND "
              "X.B <= (SELECT MAX(Y.B) FROM R2 Y WHERE Y.A = X.A)",
              JoinMethodForce::kAuto, PlanKind::kFilter, 94, 2603, 22},
        Shape{"nlj",
              "SELECT R0.PK, R1.A FROM R0, R1 WHERE R0.FK = R1.PK AND "
              "R0.B < 10",
              JoinMethodForce::kNestedLoop, PlanKind::kNestedLoopJoin, 391,
              1391, 62},
        Shape{"merge",
              "SELECT R0.PK, R1.A FROM R0, R1 WHERE R0.FK = R1.PK AND "
              "R0.B < 10",
              JoinMethodForce::kMerge, PlanKind::kMergeJoin, 391, 1385, 71},
        Shape{"hash",
              "SELECT R1.PK, R2.PK FROM R1, R2 WHERE R1.B = R2.B AND "
              "R1.A BETWEEN 10 AND 19",
              JoinMethodForce::kHash, PlanKind::kHashJoin, 2232, 722, 22}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return std::string(info.param.name);
    });

TEST(ExecCountersGate, NestedLoopInnerIsAnIndexProbe) {
  std::unique_ptr<Database> db = BuildDb();
  db->options().join.force = JoinMethodForce::kNestedLoop;
  auto q = db->Prepare(
      "SELECT R0.PK, R1.A FROM R0, R1 WHERE R0.FK = R1.PK AND R0.B < 10");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const PlanNode* nlj = Find(q->root.get(), PlanKind::kNestedLoopJoin);
  ASSERT_NE(nlj, nullptr);
  EXPECT_EQ(nlj->right->kind, PlanKind::kIndexScan)
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
