// Per-statement metering. ExecStats is the engine's one per-statement
// counter block: each executing statement owns one (its ExecContext's) and
// installs it for its thread with a MeterScope; the storage layer publishes
// page and RSI counts to the installed block, and the executor's operators
// count batches, hash rows, subquery evaluations and parallel work into the
// same block. Counters are therefore written by exactly one thread —
// concurrent sessions each observe precisely their own work, with no shared
// mutable statement-level state. Parallel workers count into private blocks
// that the exchange barrier adds to the statement's with operator+=. (The
// pool-wide atomics in BufferStats and the RSI total in RssCounters remain
// for whole-process observability.)
#ifndef SYSTEMR_RSS_METER_H_
#define SYSTEMR_RSS_METER_H_

#include <cstdint>

namespace systemr {

struct ExecStats {
  uint64_t page_fetches = 0;         // Buffer misses: simulated disk reads.
  uint64_t page_writes = 0;          // Newly materialized pages.
  uint64_t rsi_calls = 0;            // Tuples the RSI delivered (the W term).
  uint64_t subquery_evals = 0;       // Nested blocks actually executed.
  uint64_t subquery_cache_hits = 0;  // §6 same-outer-value cache reuses.
  uint64_t buffer_gets = 0;          // All buffer-pool page requests.
  uint64_t buffer_hits = 0;          // Requests served from the pool.

  // --- Vectorized execution counters ---
  uint64_t batches = 0;          // Batches produced by batch-native operators.
  uint64_t batch_rows_in = 0;    // Rows materialized into those batches.
  uint64_t batch_rows_out = 0;   // Rows surviving each batch's selection.
  uint64_t hash_build_rows = 0;  // Rows inserted into hash-join build tables.
  uint64_t hash_probe_rows = 0;  // Outer rows probed against them.

  // --- Parallel-execution counters ---
  uint64_t parallel_workers = 0;  // Worker tasks run by exchange operators.
  uint64_t parallel_morsels = 0;  // Page-range morsels those workers pulled.

  ExecStats& operator+=(const ExecStats& o) {
    page_fetches += o.page_fetches;
    page_writes += o.page_writes;
    rsi_calls += o.rsi_calls;
    subquery_evals += o.subquery_evals;
    subquery_cache_hits += o.subquery_cache_hits;
    buffer_gets += o.buffer_gets;
    buffer_hits += o.buffer_hits;
    batches += o.batches;
    batch_rows_in += o.batch_rows_in;
    batch_rows_out += o.batch_rows_out;
    hash_build_rows += o.hash_build_rows;
    hash_probe_rows += o.hash_probe_rows;
    parallel_workers += o.parallel_workers;
    parallel_morsels += o.parallel_morsels;
    return *this;
  }

  uint64_t page_io() const { return page_fetches + page_writes; }
  /// Average selection-vector density of the produced batches (1.0 = every
  /// materialized row survived its predicates).
  double AvgSelectionDensity() const {
    return batch_rows_in == 0
               ? 1.0
               : static_cast<double>(batch_rows_out) /
                     static_cast<double>(batch_rows_in);
  }
  double BufferHitRatio() const {
    return buffer_gets == 0
               ? 0.0
               : static_cast<double>(buffer_hits) /
                     static_cast<double>(buffer_gets);
  }
  /// The paper's COST formula applied to measured counters.
  double ActualCost(double w) const {
    return static_cast<double>(page_io()) + w * static_cast<double>(rsi_calls);
  }
};

namespace meter_internal {
inline thread_local ExecStats* tls_meter = nullptr;
}  // namespace meter_internal

/// The block installed for this thread (null outside statement execution).
inline ExecStats* CurrentMeter() { return meter_internal::tls_meter; }

/// RAII installation with stack discipline: a nested scope diverts counts to
/// the inner block and restores the outer one on destruction.
class MeterScope {
 public:
  explicit MeterScope(ExecStats* m) : prev_(meter_internal::tls_meter) {
    meter_internal::tls_meter = m;
  }
  ~MeterScope() { meter_internal::tls_meter = prev_; }
  MeterScope(const MeterScope&) = delete;
  MeterScope& operator=(const MeterScope&) = delete;

 private:
  ExecStats* prev_;
};

}  // namespace systemr

#endif  // SYSTEMR_RSS_METER_H_
