// ExecContext: per-statement execution state — RSS access, metered cost
// accounting, the ancestor-row stack for correlation (§6), subquery plan
// lookup and result caching (the paper's "if the referenced value is the
// same as the one in the previous candidate tuple, the previous evaluation
// result can be used again"), and temp-page management for sorts.
#ifndef SYSTEMR_EXEC_EXEC_CONTEXT_H_
#define SYSTEMR_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "optimizer/optimizer.h"
#include "rss/meter.h"
#include "rss/rss.h"

namespace systemr {

class Operator;
class MorselDispenser;
class WorkerPool;
struct HashJoinTable;
struct SharedFragmentState;

/// Per-statement resource limits — graceful degradation instead of runaway
/// queries. Zero/absent fields mean unlimited. Budget and row limits are
/// deterministic (they count metered work, not time) so fault-injection runs
/// stay reproducible; the deadline and cancel flag are the cooperative
/// wall-clock controls.
struct ExecLimits {
  uint64_t max_buffer_gets = 0;  // Logical page accesses per statement.
  uint64_t max_rows = 0;         // Result rows per statement.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  const std::atomic<bool>* cancel = nullptr;  // Not owned; may be null.
};

/// Metered work for one statement (from the statement's own MeterCounters,
/// so concurrent statements never see each other's work).
struct ExecStats {
  uint64_t page_fetches = 0;
  uint64_t page_writes = 0;
  uint64_t rsi_calls = 0;
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

  // --- Parallel-execution counters (merged from worker contexts) ---
  uint64_t parallel_workers = 0;  // Worker tasks run by exchange operators.
  uint64_t parallel_morsels = 0;  // Page-range morsels those workers pulled.

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

class ExecContext {
 public:
  // Constructor and destructor are out-of-line: both would otherwise
  // instantiate the subquery_ops_ map's cleanup, which needs Operator to be
  // a complete type.
  ExecContext(Rss* rss, const Catalog* catalog, const SubplanMap* subplans,
              double w);
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;
  ~ExecContext();

  Rss* rss() { return rss_; }
  const Catalog* catalog() const { return catalog_; }
  const SubplanMap* subplans() const { return subplans_; }
  double w() const { return w_; }

  /// Shared worker pool for exchange operators (not owned; null = parallel
  /// fragments run their workers inline on the calling thread).
  void set_worker_pool(WorkerPool* pool) { worker_pool_ = pool; }
  WorkerPool* worker_pool() { return worker_pool_; }

  /// This statement's private work counters. ExecutePlan installs them as
  /// the thread's meter (rss/meter.h) for the duration of the run; limits
  /// accounting reads them race-free.
  MeterCounters& meter() { return meter_; }
  const MeterCounters& meter() const { return meter_; }

  /// Per-statement vectorized-execution counters, incremented by the
  /// batch-native operators and copied into ExecStats after the run.
  struct BatchCounters {
    uint64_t batches = 0;
    uint64_t batch_rows_in = 0;
    uint64_t batch_rows_out = 0;
    uint64_t hash_build_rows = 0;
    uint64_t hash_probe_rows = 0;
    uint64_t parallel_workers = 0;
    uint64_t parallel_morsels = 0;
  };
  BatchCounters& batch_counters() { return batch_counters_; }
  const BatchCounters& batch_counters() const { return batch_counters_; }

  /// Total rows each scan node produced over the statement, flushed by
  /// ScanOp::Close. `exhausted` records whether the scan ran to end of
  /// stream — only then is the row count a complete selectivity observation
  /// (a merge join may abandon its inner scan early).
  struct ScanObservation {
    uint64_t rows = 0;
    bool exhausted = false;
  };
  std::map<const PlanNode*, ScanObservation>& scan_observations() {
    return scan_observations_;
  }
  const std::map<const PlanNode*, ScanObservation>& scan_observations() const {
    return scan_observations_;
  }

  // --- Host variables (§2) ---
  /// Execute-time values for the statement's ? parameters (not owned; must
  /// outlive execution). Null when the statement has no parameters.
  void set_params(const std::vector<Value>* params) { params_ = params; }
  const std::vector<Value>* params() const { return params_; }
  /// The value bound to parameter `idx`, or an error if unbound.
  Status ParamValue(int idx, Value* out) const {
    if (params_ == nullptr || idx < 0 ||
        static_cast<size_t>(idx) >= params_->size()) {
      return Status::InvalidArgument("parameter ?" + std::to_string(idx + 1) +
                                     " is not bound");
    }
    *out = (*params_)[idx];
    return Status::OK();
  }

  /// Plan for a nested query block, or null.
  const PlanRef* SubplanFor(const BoundQueryBlock* block) const;

  /// Rows of enclosing query blocks, outermost first. back() is the current
  /// candidate tuple of the immediately enclosing block.
  std::vector<const Row*>& ancestors() { return ancestors_; }

  /// Resolves a correlated column reference `levels` blocks up.
  const Value& OuterValue(int levels, size_t offset) const {
    return (*ancestors_[ancestors_.size() - levels])[offset];
  }

  // --- Subquery machinery (§6) ---
  struct SubqueryCache {
    bool valid = false;
    std::vector<Value> key;       // Referenced outer values at evaluation.
    Value scalar;                 // Scalar result.
    std::vector<Value> list;      // IN-subquery temporary list (sorted).
    uint64_t evaluations = 0;     // Times the subquery was actually run.
    uint64_t hits = 0;            // Times the cached result was reused.
  };
  SubqueryCache& CacheFor(const BoundQueryBlock* block) {
    return caches_[block];
  }
  /// Read-only view of all subquery caches, for post-run metering.
  const std::map<const BoundQueryBlock*, SubqueryCache>& subquery_caches()
      const {
    return caches_;
  }

  /// (levels-up, offset) pairs of the outer values `block` references; used
  /// as the re-evaluation cache key. Computed once per block.
  const std::vector<std::pair<int, size_t>>& OuterRefsFor(
      const BoundQueryBlock* block);

  /// Cached operator tree for a nested block: built on the first evaluation
  /// and re-opened via Rebind() thereafter, so correlated subqueries don't
  /// rebuild their plan per outer row. Returns the owning slot (null until
  /// the first evaluation fills it). Out-of-line: the map insertion needs
  /// Operator to be a complete type.
  std::unique_ptr<Operator>& SubqueryOpFor(const BoundQueryBlock* block);

  // --- Per-statement limits (graceful degradation) ---
  void set_limits(const ExecLimits& limits) {
    limits_ = limits;
    interruptible_ = limits.cancel != nullptr || limits.max_buffer_gets > 0 ||
                     limits.has_deadline;
  }
  const ExecLimits& limits() const { return limits_; }
  /// Snapshots this context's buffer-get baseline; the budget counts work
  /// from here.
  void ArmLimits();
  /// Cancellation/budget point (the scans call it once per batch):
  /// kCancelled on cancel flag or expired deadline, kResourceExhausted once
  /// the statement's buffer-get budget is spent. Inline fast path: an
  /// unlimited statement pays one predictable branch per batch.
  Status CheckInterrupts() {
    if (!interruptible_) return Status::OK();
    return CheckInterruptsSlow();
  }
  /// kResourceExhausted once the statement has produced > max_rows rows.
  Status CheckRowLimit(uint64_t rows_produced) const;
  /// This statement's limits with the buffer-get budget rebased to what is
  /// left right now — the budget handed to parallel-fragment workers, whose
  /// shared gets counter starts from zero.
  ExecLimits LimitsForWorker() const {
    ExecLimits l = limits_;
    if (l.max_buffer_gets > 0) {
      uint64_t used = meter_.logical_gets - limits_baseline_gets_;
      l.max_buffer_gets =
          used >= l.max_buffer_gets ? 1 : l.max_buffer_gets - used;
    }
    return l;
  }

  // --- Parallel-fragment plumbing (see exec/parallel/) ---
  /// Marks this context as a parallel-fragment worker: morsel-driven scans
  /// pull page ranges from `morsels` for the plan node `morsel_node`, hash
  /// joins probe the pre-built `shared_builds` tables, and interrupt checks
  /// publish buffer gets to / observe the abort flag of `shared`. `limits`
  /// carries the parent statement's limits with the buffer-get budget
  /// rebased to what the statement had left when the fragment started.
  void ConfigureParallelWorker(
      SharedFragmentState* shared, MorselDispenser* morsels,
      const PlanNode* morsel_node,
      const std::map<const PlanNode*, HashJoinTable>* shared_builds,
      const ExecLimits& limits);
  MorselDispenser* morsel_source() { return morsel_source_; }
  const PlanNode* morsel_node() const { return morsel_node_; }
  /// The shared build table for a hash-join node, or null when this context
  /// is not a worker (or the node's build was not pre-built).
  const HashJoinTable* SharedBuildFor(const PlanNode* node) const;

  // --- Temp storage for sorts (metered through the buffer pool) ---
  /// Allocates a page owned by this statement's temp space.
  PageId NewTempPage();
  /// Frees all temp pages (also called on destruction).
  void ReleaseTempPages();
  size_t temp_pages_allocated() const { return temp_pages_.size(); }

 private:
  Rss* rss_;
  const Catalog* catalog_;
  const SubplanMap* subplans_;
  double w_;
  WorkerPool* worker_pool_ = nullptr;
  const std::vector<Value>* params_ = nullptr;
  std::vector<const Row*> ancestors_;
  std::map<const BoundQueryBlock*, SubqueryCache> caches_;
  // Node-based map: references returned by SubqueryOpFor stay valid while
  // nested evaluations insert entries for deeper blocks.
  std::map<const BoundQueryBlock*, std::unique_ptr<Operator>> subquery_ops_;
  std::map<const BoundQueryBlock*, std::vector<std::pair<int, size_t>>>
      outer_refs_;
  Status CheckInterruptsSlow();

  std::vector<PageId> temp_pages_;
  MeterCounters meter_;
  BatchCounters batch_counters_;
  std::map<const PlanNode*, ScanObservation> scan_observations_;
  ExecLimits limits_;
  bool interruptible_ = false;
  uint64_t limits_baseline_gets_ = 0;

  // Parallel-worker state (null/zero on statement-level contexts).
  SharedFragmentState* shared_fragment_ = nullptr;
  MorselDispenser* morsel_source_ = nullptr;
  const PlanNode* morsel_node_ = nullptr;
  const std::map<const PlanNode*, HashJoinTable>* shared_builds_ = nullptr;
  uint64_t shared_published_gets_ = 0;
};

}  // namespace systemr

#endif  // SYSTEMR_EXEC_EXEC_CONTEXT_H_
