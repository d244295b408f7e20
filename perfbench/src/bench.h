// Shared pieces of the end-to-end benchmark: options, the report every
// workload fills, latency statistics, the span tracer, and host probes.
//
// The benchmark drives the engine only through its public API (Database,
// Session, PreparedStatement, net::Client/net::Server, and the stats structs
// they expose). Spans are recorded by this code around those calls; nothing
// inside the engine is instrumented.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/schema.h"
#include "db/database.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string trace_out;  // Span dump path (trace mode); empty = no dump.
};

struct Metric {
  std::string name;
  double value = 0;
};

/// What one invocation reports. `attempted`/`failed` count statements of
/// the timed phase(s); `errors` collects failed correctness checks.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // Human-readable context lines.

  void Fail(const std::string& what) { errors.push_back(what); }
  void Add(const std::string& name, double value) {
    metrics.push_back({name, value});
  }
  bool correct() const { return errors.empty(); }
};

// --- Statistics ---

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// Latencies of one timed phase. A failed statement is recorded as +inf, so
/// it counts as slower than every percentile limit.
struct Timing {
  std::vector<double> latency_us;  // Per statement, in issue order.
  std::vector<int64_t> end_ns;     // Completion time of each statement.
  int64_t start_ns = 0;
  uint64_t failed = 0;

  /// Marks the start of the timed phase, expecting `n` statements.
  void Start(size_t n) {
    latency_us.reserve(n);
    end_ns.reserve(n);
    start_ns = NowNs();
  }
  void Record(int64_t t0, int64_t t1, bool ok) {
    latency_us.push_back(ok ? static_cast<double>(t1 - t0) / 1e3
                            : std::numeric_limits<double>::infinity());
    end_ns.push_back(t1);
    if (!ok) ++failed;
  }
  /// Completion rate of each consecutive block of `block` statements.
  std::vector<double> BlockRates(size_t block) const;
};

/// Statements per second of concurrent clients: the rates of each client's
/// i-th block are summed, and the median over i is reported. The median over
/// blocks keeps a transient host stall (steal time on a shared machine) from
/// setting the whole run's figure.
double MedianBlockRate(const std::vector<const Timing*>& clients,
                       size_t block);

// --- Tracing ---

enum class SpanName : uint16_t {
  kStmt,            // One statement as the benchmark issues it.
  kClientCall,      // net::Client::Execute / Query round trip.
  kSessionExecute,  // PreparedStatement::Execute.
  kSessionMutate,   // Session::Mutate.
  kSessionPlan,     // NormalizeSql + PlanCache lookup/insert.
  kParse,           // sql::Parse.
  kBind,            // Binder::Bind.
  kOptimize,        // Optimizer::Optimize.
  kRun,             // Database::Run.
  kReplan,          // Feedback-triggered re-optimization.
  kSegmentScan,     // Raw SegmentScan Open + NextBatch loop over a table.
  kCount,
};
const char* SpanNameStr(SpanName n);

struct Span {
  uint32_t stmt = 0;  // Spans of one statement share this id.
  SpanName name = SpanName::kStmt;
  uint16_t thread = 0;
  int32_t parent = -1;  // Index into the owning buffer; -1 = root.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's spans, kept in memory until the run ends. A null buffer (or
/// a disabled one) records nothing, so untraced phases pay one branch.
class TraceBuffer {
 public:
  TraceBuffer(bool enabled, uint16_t thread) : enabled_(enabled), thread_(thread) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }
  void set_stmt(uint32_t stmt) { stmt_ = stmt; }
  int32_t Begin(SpanName name);
  void End(int32_t idx);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint16_t thread_;
  uint32_t stmt_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class SpanScope {
 public:
  SpanScope(TraceBuffer* tb, SpanName name)
      : tb_(tb != nullptr && tb->enabled() ? tb : nullptr),
        idx_(tb_ != nullptr ? tb_->Begin(name) : -1) {}
  ~SpanScope() {
    if (tb_ != nullptr) tb_->End(idx_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  TraceBuffer* tb_;
  int32_t idx_;
};

/// Writes every span (TSV: thread, stmt, name, parent, start_ns, end_ns) and
/// a per-name summary of total and self time (self = span minus the time
/// its children cover) to `path`. Returns false if the file cannot be
/// written.
bool WriteTrace(const std::string& path,
                const std::vector<const TraceBuffer*>& buffers);

// --- Host context (never gated) ---

/// Wall time of a fixed single-thread spin loop, in ns.
double SpinNs();
/// Two-thread spin throughput divided by one-thread throughput.
double EffectiveCores();
/// Peak resident set of this process, in MB.
double PeakRssMb();

// --- Engine helpers ---

/// Relation -> heap page list, for the reference executor's raw reads.
std::unordered_map<systemr::RelId, std::vector<systemr::PageId>> RelPageMap(
    systemr::Database* db);

/// Runs `sql` on the reference executor (unmetered raw page reads).
systemr::StatusOr<std::vector<systemr::Row>> ReferenceRows(
    systemr::Database* db, const std::string& sql);

/// Adds every counter of `s` into `*total`.
void AddExecStats(systemr::ExecStats* total, const systemr::ExecStats& s);

/// Records a correctness failure unless `actual` and `expected` hold the same
/// multiset of rows.
void CheckSameRows(Report* report, const std::string& what,
                   const std::vector<systemr::Row>& expected,
                   const std::vector<systemr::Row>& actual);

/// Aborts the process with a message when a set-up step fails: the benchmark
/// cannot measure anything meaningful past that point.
void Die(const systemr::Status& s, const std::string& what);

/// Runs `count` complete set-ups in turn, each destroyed before the next so
/// memory holds one at a time, and returns the last. `*median_s` receives
/// the median set-up time.
template <typename Build>
auto RepeatSetup(int count, Build build, double* median_s) {
  std::vector<double> seconds;
  decltype(build()) env;
  for (int i = 0; i < count; ++i) {
    env.reset();
    int64_t t0 = NowNs();
    env = build();
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  *median_s = Median(std::move(seconds));
  return env;
}

// Workload entry points.
void RunOltpWire(const Options& opt, Report* report);
void RunOlap(const Options& opt, Report* report);
void RunAdhocPlan(const Options& opt, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
