#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "harness/differ.h"
#include "harness/ref_executor.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace perfbench {

using systemr::Database;
using systemr::Row;
using systemr::Status;
using systemr::StatusOr;

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

std::vector<double> Timing::BlockRates(size_t block) const {
  std::vector<double> rates;
  int64_t prev = start_ns;
  for (size_t i = block; i <= end_ns.size(); i += block) {
    int64_t end = end_ns[i - 1];
    rates.push_back(static_cast<double>(block) * 1e9 /
                    static_cast<double>(std::max<int64_t>(end - prev, 1)));
    prev = end;
  }
  return rates;
}

double MedianBlockRate(const std::vector<const Timing*>& clients,
                       size_t block) {
  std::vector<double> sum;
  for (const Timing* t : clients) {
    std::vector<double> r = t->BlockRates(block);
    if (sum.empty()) sum.assign(r.size(), 0.0);
    for (size_t i = 0; i < std::min(sum.size(), r.size()); ++i) sum[i] += r[i];
    sum.resize(std::min(sum.size(), r.size()));
  }
  return Median(std::move(sum));
}

const char* SpanNameStr(SpanName n) {
  switch (n) {
    case SpanName::kStmt: return "stmt";
    case SpanName::kClientCall: return "net.client_call";
    case SpanName::kSessionExecute: return "session.execute";
    case SpanName::kSessionMutate: return "session.mutate";
    case SpanName::kSessionPlan: return "session.plan_cache";
    case SpanName::kParse: return "sql.parse";
    case SpanName::kBind: return "sql.bind";
    case SpanName::kOptimize: return "optimizer.optimize";
    case SpanName::kRun: return "db.run";
    case SpanName::kReplan: return "session.replan";
    case SpanName::kSegmentScan: return "rss.segment_scan";
    case SpanName::kCount: break;
  }
  return "?";
}

int32_t TraceBuffer::Begin(SpanName name) {
  Span s;
  s.stmt = stmt_;
  s.name = name;
  s.thread = thread_;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(s);
  int32_t idx = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(idx);
  return idx;
}

void TraceBuffer::End(int32_t idx) {
  spans_[static_cast<size_t>(idx)].end_ns = NowNs();
  open_.pop_back();
}

bool WriteTrace(const std::string& path,
                const std::vector<const TraceBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  constexpr size_t kNames = static_cast<size_t>(SpanName::kCount);
  double total[kNames] = {};
  double child[kNames] = {};
  uint64_t count[kNames] = {};
  for (const TraceBuffer* tb : buffers) {
    const std::vector<Span>& spans = tb->spans();
    for (const Span& s : spans) {
      size_t n = static_cast<size_t>(s.name);
      double d = static_cast<double>(s.end_ns - s.start_ns);
      total[n] += d;
      ++count[n];
      if (s.parent >= 0) {
        child[static_cast<size_t>(spans[static_cast<size_t>(s.parent)].name)] +=
            d;
      }
    }
  }
  std::fprintf(f, "# span summary: name count total_us self_us\n");
  for (size_t n = 0; n < kNames; ++n) {
    if (count[n] == 0) continue;
    std::fprintf(f, "# %s %llu %.1f %.1f\n", SpanNameStr(static_cast<SpanName>(n)),
                 static_cast<unsigned long long>(count[n]), total[n] / 1e3,
                 (total[n] - child[n]) / 1e3);
  }
  std::fprintf(f, "thread\tstmt\tname\tparent\tstart_ns\tend_ns\n");
  for (const TraceBuffer* tb : buffers) {
    for (const Span& s : tb->spans()) {
      std::fprintf(f, "%u\t%u\t%s\t%d\t%lld\t%lld\n", s.thread, s.stmt,
                   SpanNameStr(s.name), s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

namespace {

// A fixed amount of integer work whose result escapes, so it is not folded.
uint64_t Spin(uint64_t iters, uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return x;
}

constexpr uint64_t kSpinIters = 1ull << 24;
volatile uint64_t g_spin_sink = 0;

}  // namespace

double SpinNs() {
  int64_t t0 = NowNs();
  g_spin_sink = g_spin_sink + Spin(kSpinIters, static_cast<uint64_t>(t0));
  return static_cast<double>(NowNs() - t0);
}

double EffectiveCores() {
  double one = SpinNs();
  int64_t t0 = NowNs();
  uint64_t r[2] = {0, 0};
  std::thread other([&r] { r[1] = Spin(kSpinIters, 7); });
  r[0] = Spin(kSpinIters, 11);
  other.join();
  double two = static_cast<double>(NowNs() - t0);
  g_spin_sink = g_spin_sink + r[0] + r[1];
  return 2.0 * one / two;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::unordered_map<systemr::RelId, std::vector<systemr::PageId>> RelPageMap(
    Database* db) {
  std::unordered_map<systemr::RelId, std::vector<systemr::PageId>> map;
  const systemr::Catalog& catalog = db->catalog();
  for (size_t i = 0; i < catalog.num_tables(); ++i) {
    const systemr::TableInfo* t = catalog.table(static_cast<systemr::RelId>(i));
    map[t->id] = db->rss().segment(t->segment)->pages();
  }
  return map;
}

StatusOr<std::vector<Row>> ReferenceRows(Database* db, const std::string& sql) {
  ASSIGN_OR_RETURN(systemr::Statement stmt, systemr::Parse(sql));
  if (stmt.select == nullptr) {
    return Status::InvalidArgument("reference check needs a SELECT: " + sql);
  }
  systemr::Binder binder(&db->catalog());
  ASSIGN_OR_RETURN(std::unique_ptr<systemr::BoundQueryBlock> block,
                   binder.Bind(*stmt.select));
  systemr::RefExecutor ref(&db->rss().store(), RelPageMap(db));
  return ref.Execute(*block);
}

void AddExecStats(systemr::ExecStats* total, const systemr::ExecStats& s) {
  systemr::ExecStats& t = *total;
  t.page_fetches += s.page_fetches;
  t.page_writes += s.page_writes;
  t.rsi_calls += s.rsi_calls;
  t.subquery_evals += s.subquery_evals;
  t.subquery_cache_hits += s.subquery_cache_hits;
  t.buffer_gets += s.buffer_gets;
  t.buffer_hits += s.buffer_hits;
  t.batches += s.batches;
  t.batch_rows_in += s.batch_rows_in;
  t.batch_rows_out += s.batch_rows_out;
  t.hash_build_rows += s.hash_build_rows;
  t.hash_probe_rows += s.hash_probe_rows;
  t.parallel_workers += s.parallel_workers;
  t.parallel_morsels += s.parallel_morsels;
}

void CheckSameRows(Report* report, const std::string& what,
                   const std::vector<Row>& expected,
                   const std::vector<Row>& actual) {
  if (!systemr::SameRowMultiset(expected, actual)) {
    report->Fail(what + ": " + systemr::DiffSummary(expected, actual));
  }
}

void Die(const Status& s, const std::string& what) {
  if (s.ok()) return;
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(2);
}

}  // namespace perfbench
