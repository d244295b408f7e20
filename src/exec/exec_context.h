// ExecContext: per-statement execution state — RSS access, the statement's
// one counter block (ExecStats, rss/meter.h) and its limits, the
// ancestor-row stack for correlation (§6), subquery plan lookup and result
// caching (the paper's "if the referenced value is the same as the one in
// the previous candidate tuple, the previous evaluation result can be used
// again"), and temp-page management for sorts. One statement, one context:
// a SELECT's ExecutePlan and a DML statement's target scan and mutation
// loop each run on exactly one (parallel workers get private contexts whose
// blocks the exchange barrier adds to it).
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

class ExecContext {
 public:
  // Constructor and destructor are out-of-line: both would otherwise
  // instantiate the subqueries_ map's cleanup, which needs Operator to be a
  // complete type.
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

  /// This statement's counter block (rss/meter.h). ExecutePlan and the DML
  /// executors install it as the thread's meter for the run, the operators
  /// count into it directly, and limits accounting reads its buffer gets
  /// race-free.
  ExecStats& stats() { return stats_; }
  const ExecStats& stats() const { return stats_; }

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
  /// The value bound to parameter `idx` (0-based), or an error if unbound.
  Status ParamValue(size_t idx, const Value** out) const {
    if (params_ == nullptr || idx >= params_->size()) {
      return Status::InvalidArgument("parameter ?" + std::to_string(idx + 1) +
                                     " is not bound");
    }
    *out = &(*params_)[idx];
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
  /// Everything one nested block keeps across its evaluations.
  struct SubqueryState {
    /// (levels-up, offset) pairs of the outer values the block references:
    /// the re-evaluation cache key.
    std::vector<std::pair<int, size_t>> outer_refs;
    /// The block's operator tree: built on the first evaluation and
    /// re-opened via Rebind() thereafter, so correlated subqueries don't
    /// rebuild their plan per outer row.
    std::unique_ptr<Operator> op;
    bool valid = false;
    std::vector<Value> key;   // Referenced outer values at evaluation.
    Value scalar;             // Scalar result.
    std::vector<Value> list;  // IN-subquery temporary list (sorted).
  };
  /// The state of `block`, created (with its outer references) on first
  /// use. References stay valid while nested evaluations add deeper
  /// blocks. Out-of-line: the insertion needs Operator to be a complete
  /// type.
  SubqueryState& SubqueryStateFor(const BoundQueryBlock* block);

  // --- Per-statement limits (graceful degradation) ---
  void set_limits(const ExecLimits& limits) {
    limits_ = limits;
    interruptible_ = limits.cancel != nullptr || limits.max_buffer_gets > 0 ||
                     limits.has_deadline;
  }
  const ExecLimits& limits() const { return limits_; }
  /// Cancellation/budget point (the scans call it once per batch):
  /// kCancelled on cancel flag or expired deadline, kResourceExhausted once
  /// the statement's buffer-get budget is spent — the budget counts the
  /// block's buffer gets, which start at zero in the statement's fresh
  /// context. Inline fast path: an unlimited statement pays one predictable
  /// branch per batch.
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
      uint64_t used = stats_.buffer_gets;
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
  // Node-based map: references returned by SubqueryStateFor stay valid
  // while nested evaluations insert entries for deeper blocks.
  std::map<const BoundQueryBlock*, SubqueryState> subqueries_;
  Status CheckInterruptsSlow();

  std::vector<PageId> temp_pages_;
  ExecStats stats_;
  std::map<const PlanNode*, ScanObservation> scan_observations_;
  ExecLimits limits_;
  bool interruptible_ = false;

  // Parallel-worker state (null/zero on statement-level contexts).
  SharedFragmentState* shared_fragment_ = nullptr;
  MorselDispenser* morsel_source_ = nullptr;
  const PlanNode* morsel_node_ = nullptr;
  const std::map<const PlanNode*, HashJoinTable>* shared_builds_ = nullptr;
  uint64_t shared_published_gets_ = 0;
};

}  // namespace systemr

#endif  // SYSTEMR_EXEC_EXEC_CONTEXT_H_
