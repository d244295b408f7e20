// One fuzzing iteration: build a random schema family (chain / star /
// snowflake, plus an empty table and an all-duplicates column), generate
// random queries, and run every oracle against each:
//
//   differential — the reference executor, the DP plan, and every baseline
//     strategy must return the same row multiset;
//   metamorphic  — shuffling WHERE conjuncts, re-planning with W = 0 and a
//     large W, and planning against a twin database loaded with identical
//     data but no secondary indexes must never change the result;
//   ordering     — when the query has ORDER BY, the engine's projected
//     output must actually be sorted;
//   calibration  — estimated cost / page fetches / RSI calls are recorded
//     next to the metered actuals for the fuzz report;
//   DML parity    — with `dml_every` random INSERT/UPDATE/DELETE statements
//     are interleaved with the queries; engine and twin must agree on every
//     statement's outcome, and the query oracles then run on mutated data;
//   fault injection — with `inject_faults` the seeded FaultInjector is armed
//     around each engine run: every query must either return the
//     reference-correct rows or a clean storage/limit Status (kDataLoss,
//     kIoError, kResourceExhausted, kCancelled), and a fault-free rerun on
//     the same engine must still match the reference.
#ifndef SYSTEMR_HARNESS_FUZZ_SESSION_H_
#define SYSTEMR_HARNESS_FUZZ_SESSION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/calibration.h"
#include "optimizer/join_enumerator.h"
#include "rss/fault_injector.h"
#include "rss/segment.h"

namespace systemr {

class Database;

/// Each relation's heap pages, read from `db`'s catalog, so the reference
/// executor can scan raw pages without touching any engine scan code.
std::unordered_map<RelId, std::vector<PageId>> RelPageMap(Database* db);

struct FuzzOptions {
  int queries_per_seed = 6;
  bool check_baselines = true;   // Differential vs. every BaselineKind.
  bool metamorphic = true;       // Shuffle / W-variation / index-drop.
  bool record_calibration = true;

  /// Interleave one random INSERT / UPDATE / DELETE before every `dml_every`th
  /// query (0 = read-only fuzzing, the historical behaviour). Each statement
  /// runs against BOTH the engine and the index-less twin; the oracle demands
  /// status and affected-row parity (the generator only emits order-
  /// independent statements, see FuzzQueryGen::NextDml), and the reference
  /// executor's page map is refreshed so every later query oracle checks the
  /// mutated data. This turns every read-only oracle downstream into a check
  /// that DML left the heaps, indexes, and statistics machinery consistent.
  int dml_every = 0;

  /// Estimation-quality knobs: disabling both reproduces the paper's pure
  /// Table 1 estimator, which is how the calibration baseline in
  /// EXPERIMENTS.md was measured (fuzz_driver --table1).
  bool use_column_stats = true;  // Equi-depth histograms in the estimator.
  bool use_feedback = true;      // Execution-feedback selectivity learning.

  /// Join options applied to the engine (and the index-less twin) before
  /// planning: one enabled method is targeted differential coverage of that
  /// join operator (hash alone runs every multi-table query through the
  /// hash join wherever an equi predicate allows). The reference executor
  /// is unaffected.
  JoinEnumerator::Options join;

  /// Degree of parallelism for the engine (and the index-less twin): with
  /// max_dop > 1 every eligible query plans a morsel-parallel fragment —
  /// forced past the cost model, so even tiny fuzz tables exercise the
  /// exchange — and its multiset must still match the serial reference.
  /// Baselines always stay serial (an independent serial differential).
  int max_dop = 1;

  /// Fault mode: replaces the clean-run oracles with the crash-free error
  /// propagation oracle described above. Only deterministic limits (page
  /// budget) are exercised — never wall-clock deadlines — so a seed's
  /// outcome is identical on every run and platform.
  bool inject_faults = false;
  FaultConfig fault_config{/*io_error_rate=*/0.05,
                           /*corruption_rate=*/0.05,
                           /*persistent_fraction=*/0.25,
                           /*header_fraction=*/0.5,
                           /*warmup_reads=*/0};
};

struct SeedResult {
  uint64_t seed = 0;
  uint64_t queries = 0;
  std::vector<std::string> violations;  // Empty = all oracles passed.
};

/// Runs one fully deterministic fuzz iteration for `seed`, appending its
/// violations and calibration records to `report` (which may be null).
SeedResult RunFuzzSeed(uint64_t seed, const FuzzOptions& options,
                       FuzzReport* report);

/// Concurrent differential fuzzing: builds ONE Database for `seed`, then
/// runs `threads` sessions over it in parallel — each with its own query
/// generator and its own reference executor reading raw heap pages — and
/// checks every session's results against the reference. Query streams
/// differ per thread (deterministically derived from seed + thread index),
/// so this catches cross-statement races the single-threaded oracles
/// cannot: torn buffer-pool state, catalog lookups under contention, plan
/// sharing through the session plan cache.
SeedResult RunConcurrentFuzzSeed(uint64_t seed, int threads,
                                 int queries_per_thread,
                                 const JoinEnumerator::Options& join = {},
                                 int max_dop = 1);

}  // namespace systemr

#endif  // SYSTEMR_HARNESS_FUZZ_SESSION_H_
