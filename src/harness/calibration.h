// Cost-calibration oracle: records the optimizer's own estimate of a plan's
// two cost components (PAGE FETCHES and RSI CALLS, carried by the plan root)
// next to the metered actuals, and serializes a JSON report so the q-error
// trajectory can be tracked from one change to the next.
#ifndef SYSTEMR_HARNESS_CALIBRATION_H_
#define SYSTEMR_HARNESS_CALIBRATION_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "rss/meter.h"

namespace systemr {

/// One fuzzed query's estimated-vs-actual record.
struct CalibrationRecord {
  uint64_t seed = 0;
  std::string sql;
  double est_cost = 0;
  double actual_cost = 0;
  double est_pages = 0;  // Actual: stats.page_io().
  double est_rsi = 0;    // Actual: stats.rsi_calls.
  double est_rows = 0;
  uint64_t actual_rows = 0;
  ExecStats stats;  // The DP plan's metered run.
};

struct FuzzReport {
  uint64_t seeds = 0;
  uint64_t queries = 0;
  std::vector<std::string> violations;
  std::vector<CalibrationRecord> records;

  // Fault-injection mode counters (all zero for clean runs).
  uint64_t fault_queries = 0;        // Queries run with injection armed.
  uint64_t fault_clean_results = 0;  // Correct rows despite armed injection.
  uint64_t fault_clean_errors = 0;   // Clean non-OK Status of an allowed code.
  uint64_t fault_budget_aborts = 0;  // kResourceExhausted from the page budget.
  uint64_t faults_injected = 0;      // Faults actually drawn by the injectors.
};

/// q-error of an estimate: max(est/actual, actual/est), with both sides
/// clamped to 1 below so zero/near-zero counts do not explode the ratio.
double QError(double est, double actual);

/// Writes the report as JSON: a summary block (violation count, median and
/// p90 q-error for cost / pages / rsi) plus one record per query.
Status WriteFuzzReport(const FuzzReport& report, const std::string& path);

}  // namespace systemr

#endif  // SYSTEMR_HARNESS_CALIBRATION_H_
