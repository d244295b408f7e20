// E1 — TABLE 1 reproduction: for every selectivity-factor rule in the paper,
// print the paper's formula, our optimizer's estimate F, and the fraction of
// tuples actually satisfying the predicate on synthetic data.
#include <cstdio>

#include "bench_common.h"
#include "workload/datagen.h"

namespace systemr {
namespace bench {
namespace {

struct Case {
  const char* rule;      // Table 1 row.
  const char* formula;   // Paper formula.
  std::string predicate; // SQL predicate over T (and U for join rows).
  bool join = false;     // Needs U in the FROM list.
  double expected;       // The paper-formula value for this catalog.
};

double MeasuredFraction(Database* db, const Case& c) {
  std::string from = c.join ? "T, U" : "T";
  auto r = Unwrap(db->Query("SELECT COUNT(*) FROM " + from + " WHERE " +
                            c.predicate));
  double total = c.join ? 200000.0 * 400.0 : 200000.0;
  return static_cast<double>(r.rows[0][0].AsInt()) / total;
}

double EstimatedF(Database* db, const Case& c) {
  std::string from = c.join ? "T, U" : "T";
  auto h = Harness::Make(db, "SELECT COUNT(*) FROM " + from + " WHERE " +
                                 c.predicate,
                         {}, /*run=*/false);
  double f = 1.0;
  for (const BooleanFactor& factor : h->ctx->factors) {
    f *= factor.model_selectivity;
  }
  return f;
}

int Main() {
  Database db(512);
  DataGen gen(&db, 17);
  // T: 200000 rows; A uniform on [0,100) with an index; B uniform on [0,50)
  // without one; K a unique key.
  TableSpec t;
  t.name = "T";
  t.num_rows = 200000;
  t.columns = {{"K", ValueType::kInt64, 200000, 0, true},
               {"A", ValueType::kInt64, 100, 0, false},
               {"B", ValueType::kInt64, 50, 0, false},
               {"S", ValueType::kString, 20, 0, false}};
  t.indexes = {{"T_K", {"K"}, true, false}, {"T_A", {"A"}, false, false}};
  Die(gen.CreateAndLoad(t));
  // U: 400 rows; A on [0,25) indexed.
  TableSpec u;
  u.name = "U";
  u.num_rows = 400;
  u.columns = {{"K", ValueType::kInt64, 400, 0, true},
               {"A", ValueType::kInt64, 25, 0, false}};
  u.indexes = {{"U_A", {"A"}, false, false}};
  Die(gen.CreateAndLoad(u));

  std::vector<Case> cases = {
      {"col = value (index on col)", "1/ICARD = 1/100", "A = 7", false,
       1.0 / 100},
      {"col = value (no index)", "1/10", "B = 7", false, 0.1},
      {"col1 = col2 (both indexed)", "1/max(ICARD) = 1/100", "T.A = U.A",
       true, 1.0 / 100},
      {"col1 = col2 (one indexed)", "1/ICARD = 1/25", "T.B = U.A", true,
       1.0 / 25},
      {"col1 = col2 (neither indexed)", "1/10", "T.B = U.K", true, 0.1},
      {"col > value (interpolated)", "(high-val)/(high-low) = 74/99",
       "A > 25", false, 74.0 / 99},
      {"col < value (interpolated)", "(val-low)/(high-low) = 25/99",
       "A < 25", false, 25.0 / 99},
      {"col > value (no stats basis)", "1/3", "B > 24", false, 1.0 / 3},
      {"col BETWEEN v1 AND v2 (interp.)", "(v2-v1)/(high-low) = 20/99",
       "A BETWEEN 30 AND 50", false, 20.0 / 99},
      {"col BETWEEN v1 AND v2 (default)", "1/4", "B BETWEEN 10 AND 20",
       false, 0.25},
      {"col IN (list) (indexed)", "n * 1/ICARD = 3/100", "A IN (1, 2, 3)",
       false, 3.0 / 100},
      {"col IN (list) (capped)", "min(8 * 1/10, 1/2) = 1/2",
       "B IN (0,1,2,3,4,5,6,7)", false, 0.5},
      {"colA IN subquery", "QCARD(sub)/prod(NCARD) = 1/25",
       "A IN (SELECT A FROM U WHERE U.A = 3)", false, 1.0 / 25},
      {"(p1) OR (p2)", "F1+F2-F1*F2 = 0.19", "B = 1 OR B = 2", false, 0.19},
      {"(p1) AND (p2)", "F1*F2 = 1/1000", "A = 1 AND B = 2", false,
       1.0 / 1000},
      {"NOT p", "1-F = 0.9", "NOT B = 1", false, 0.9},
  };

  Header("TABLE 1 — selectivity factors: paper formula vs estimate vs data");
  std::printf("%-34s %-30s %10s %10s %10s\n", "predicate class",
              "paper formula", "paper F", "est. F", "measured");
  for (const Case& c : cases) {
    double est = EstimatedF(&db, c);
    double meas = MeasuredFraction(&db, c);
    std::printf("%-34s %-30s %10.5f %10.5f %10.5f\n", c.rule, c.formula,
                c.expected, est, meas);
  }
  std::printf(
      "\nNote: estimates must equal the paper column exactly (the formulas\n"
      "are deterministic); 'measured' shows how close the Table-1 model is\n"
      "to the true fraction on uniform synthetic data. Defaults (1/10, 1/3,\n"
      "1/4, 1/2) intentionally differ from the data — they are the paper's\n"
      "guesses for when statistics cannot help.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace systemr

int main() { return systemr::bench::Main(); }
