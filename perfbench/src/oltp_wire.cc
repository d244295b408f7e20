// oltp_wire: two closed-loop clients over loopback to an in-process
// net::Server with default admission. BENCH_10's statements in a 30/60/10
// mix: prepared point lookups and short COUNT(*) ranges across all
// partitions, plus auto-commit `UPDATE ... SET V = V + 1` on the client's
// own partition. The pool holds every page, including those the UPDATEs
// append, so net, session, locking and the WAL do the work and exec does
// little.
//
// The WAL is the in-memory log with Sync() and no simulated delay; every
// auto-commit UPDATE forces it once (group commit may merge the two
// clients' forces).
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "session/plan_cache.h"
#include "session/session.h"

namespace perfbench {
namespace {

using systemr::Database;
using systemr::QueryResult;
using systemr::Rng;
using systemr::Status;
using systemr::StatusOr;
using systemr::Value;
namespace net = systemr::net;

constexpr int kPartitions = 8;
constexpr int64_t kRowsPerPartition = 2000;
constexpr size_t kPoolPages = 2048;  // Holds the data, indexes and growth.
constexpr int kClients = 2;
constexpr int64_t kRangeWidth = 100;
// Statements per second of --seconds: fixes the statement count, so heap
// and log growth from UPDATEs is the same for a faster or slower engine.
constexpr double kStmtsPerSecond = 20000;
// Percent of point lookups and of ranges; the rest are UPDATEs. Point
// lookups are the fastest class and ranges the next, so p50 must not sit
// where the two meet: with BENCH_10's 45/45/10 it did (point p50 68 us,
// range p50 103 us) and moved with either class. At 30/60 it lies a third
// of the way into the ranges; p90 lies where ranges and UPDATEs, whose
// latencies overlap, meet.
constexpr int64_t kPointPct = 30;
constexpr int64_t kRangePct = 60;
constexpr size_t kBlock = 1000;  // Statements per client per rate block.
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

enum class Op : uint8_t { kPoint, kRange, kUpdate };

struct Stmt {
  Op op = Op::kPoint;
  int part = 0;
  int64_t key = 0;
};

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t x = seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xC2B2AE3D27D4EB4Full);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 29;
  return x;
}

// Client `client`'s statements for one phase, in the kPointPct/kRangePct
// mix. Keys are uniform.
std::vector<Stmt> MakeSequence(uint64_t seed, int phase, int client,
                               size_t n) {
  Rng rng(Mix(seed, 0x6f6c7470 + static_cast<uint64_t>(phase),
              static_cast<uint64_t>(client)));
  std::vector<Stmt> seq(n);
  for (Stmt& s : seq) {
    int64_t dice = rng.Uniform(0, 99);
    s.op = dice < kPointPct              ? Op::kPoint
           : dice < kPointPct + kRangePct ? Op::kRange
                                          : Op::kUpdate;
    s.part = s.op == Op::kUpdate
                 ? client
                 : static_cast<int>(rng.Uniform(0, kPartitions - 1));
    s.key = rng.Uniform(0, kRowsPerPartition - 1);
  }
  return seq;
}

int64_t RangeHi(int64_t key) {
  return std::min<int64_t>(key + kRangeWidth - 1, kRowsPerPartition - 1);
}

std::string Table(int p) { return "P" + std::to_string(p); }

std::string UpdateSql(const Stmt& s) {
  return "UPDATE " + Table(s.part) + " SET V = V + 1 WHERE PK = " +
         std::to_string(s.key);
}

// Members are destroyed bottom-up: clients disconnect, then the server
// stops, then the database goes.
struct Env {
  std::unique_ptr<Database> db;
  std::unique_ptr<systemr::PlanCache> cache;
  std::unique_ptr<net::Server> server;
  std::vector<net::Client> clients;
  std::vector<int64_t> load_sum;  // SUM(V) per partition at load time.
};

void MustOk(const StatusOr<net::WireResult>& r, const std::string& what) {
  Die(r.ok() ? r->ToStatus() : r.status(), what);
}

std::unique_ptr<Env> BuildEnv(uint64_t seed) {
  auto env = std::make_unique<Env>();
  env->db = std::make_unique<Database>(kPoolPages);
  Database* db = env->db.get();
  Rng rng(Mix(seed, 0x6c6f6164, 0));
  for (int p = 0; p < kPartitions; ++p) {
    const std::string t = Table(p);
    Die(db->Execute("CREATE TABLE " + t + " (PK INT, V INT)"), "create " + t);
    int64_t sum = 0;
    for (int64_t base = 0; base < kRowsPerPartition; base += 500) {
      std::string sql = "INSERT INTO " + t + " VALUES ";
      for (int64_t i = base; i < base + 500 && i < kRowsPerPartition; ++i) {
        int64_t v = rng.Uniform(0, 999);
        sum += v;
        sql += i == base ? "(" : ", (";
        sql += std::to_string(i);
        sql += ", ";
        sql += std::to_string(v);
        sql += ")";
      }
      Die(db->Execute(sql), "load " + t);
    }
    env->load_sum.push_back(sum);
    Die(db->Execute("CREATE UNIQUE INDEX " + t + "_PK ON " + t + " (PK)"),
        "index " + t);
    Die(db->Execute("UPDATE STATISTICS " + t), "stats " + t);
  }
  env->cache = std::make_unique<systemr::PlanCache>(64);
  env->server = std::make_unique<net::Server>(db, env->cache.get());
  Die(env->server->Start(), "server start");
  env->clients.resize(kClients);
  for (net::Client& c : env->clients) {
    Die(c.Connect("127.0.0.1", env->server->port()), "connect");
    for (int p = 0; p < kPartitions; ++p) {
      MustOk(c.Prepare("pt" + std::to_string(p),
                       "SELECT V FROM " + Table(p) + " WHERE PK = ?"),
             "prepare point");
      MustOk(c.Prepare("rg" + std::to_string(p),
                       "SELECT COUNT(*) FROM " + Table(p) +
                           " WHERE PK >= ? AND PK <= ?"),
             "prepare range");
    }
    // Warm-up: every prepared statement once, so plans are cached.
    for (int p = 0; p < kPartitions; ++p) {
      MustOk(c.Execute("pt" + std::to_string(p), {Value::Int(0)}),
             "warm point");
      MustOk(c.Execute("rg" + std::to_string(p),
                       {Value::Int(0), Value::Int(RangeHi(0))}),
             "warm range");
    }
  }
  return env;
}

struct ClientRun {
  Timing timing;
  std::vector<Op> ops;  // Op of each statement, parallel to the timing.
  std::vector<int64_t> acked;  // Acknowledged UPDATEs per partition.
  std::vector<std::string> wrong;  // Wrong results (correctness failures).
};

// The result a correct engine must return for `s`, checked on every reply.
bool CheckReply(const Stmt& s, const net::WireResult& r, std::string* why) {
  switch (s.op) {
    case Op::kPoint:
      if (r.rows.size() == 1) return true;
      *why = "point lookup returned " + std::to_string(r.rows.size()) + " rows";
      return false;
    case Op::kRange: {
      int64_t want = RangeHi(s.key) - s.key + 1;
      if (r.rows.size() == 1 && r.rows[0].size() == 1 &&
          r.rows[0][0].AsInt() == want) {
        return true;
      }
      *why = "range count wrong at key " + std::to_string(s.key);
      return false;
    }
    case Op::kUpdate:
      if (r.affected == 1) return true;
      *why = "UPDATE affected " + std::to_string(r.affected) + " rows";
      return false;
  }
  return false;
}

// Runs each client's sequence on its own thread, closed loop, all starting
// together. `tbs` may hold null (untraced) or one buffer per client.
std::vector<ClientRun> RunWire(Env* env,
                               const std::vector<std::vector<Stmt>>& seqs,
                               const std::vector<TraceBuffer*>& tbs) {
  std::vector<ClientRun> runs(kClients);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int64_t> start_ns{0};
  auto body = [&](int c) {
    net::Client& client = env->clients[static_cast<size_t>(c)];
    ClientRun& run = runs[static_cast<size_t>(c)];
    const std::vector<Stmt>& seq = seqs[static_cast<size_t>(c)];
    TraceBuffer* tb = tbs[static_cast<size_t>(c)];
    run.acked.assign(kPartitions, 0);
    run.timing.latency_us.reserve(seq.size());
    run.timing.end_ns.reserve(seq.size());
    run.ops.reserve(seq.size());
    std::string names[2][kPartitions];
    for (int p = 0; p < kPartitions; ++p) {
      names[0][p] = "pt" + std::to_string(p);
      names[1][p] = "rg" + std::to_string(p);
    }
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {
    }
    run.timing.start_ns = start_ns.load();
    for (size_t i = 0; i < seq.size(); ++i) {
      const Stmt& s = seq[i];
      if (tb != nullptr) tb->set_stmt(static_cast<uint32_t>(i));
      StatusOr<net::WireResult> r = Status::OK();
      int64_t t0 = NowNs();
      {
        SpanScope stmt(tb, SpanName::kStmt);
        SpanScope call(tb, SpanName::kClientCall);
        switch (s.op) {
          case Op::kPoint:
            r = client.Execute(names[0][s.part], {Value::Int(s.key)});
            break;
          case Op::kRange:
            r = client.Execute(names[1][s.part],
                               {Value::Int(s.key), Value::Int(RangeHi(s.key))});
            break;
          case Op::kUpdate:
            r = client.Query(UpdateSql(s));
            break;
        }
      }
      int64_t t1 = NowNs();
      bool ok = r.ok() && r->ok();
      run.timing.Record(t0, t1, ok);
      run.ops.push_back(s.op);
      if (!ok) continue;
      std::string why;
      if (!CheckReply(s, *r, &why)) {
        if (run.wrong.size() < 5) run.wrong.push_back(why);
        continue;
      }
      if (s.op == Op::kUpdate) ++run.acked[static_cast<size_t>(s.part)];
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(body, c);
  while (ready.load() < kClients) std::this_thread::yield();
  start_ns.store(NowNs());
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  return runs;
}

struct PhaseSummary {
  double stmts_per_s = 0;
  std::vector<double> all_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

PhaseSummary Summarize(const std::vector<ClientRun>& runs, Report* report,
                       std::vector<int64_t>* acked) {
  PhaseSummary s;
  std::vector<const Timing*> timings;
  for (const ClientRun& run : runs) {
    timings.push_back(&run.timing);
    s.all_us.insert(s.all_us.end(), run.timing.latency_us.begin(),
                    run.timing.latency_us.end());
    s.attempted += run.timing.latency_us.size();
    s.failed += run.timing.failed;
    for (const std::string& w : run.wrong) report->Fail("oltp_wire: " + w);
    for (int p = 0; p < kPartitions; ++p) {
      (*acked)[static_cast<size_t>(p)] += run.acked[static_cast<size_t>(p)];
    }
  }
  s.stmts_per_s = MedianBlockRate(timings, kBlock);
  return s;
}

std::vector<double> OpLatencies(const std::vector<ClientRun>& runs, Op op) {
  std::vector<double> out;
  for (const ClientRun& run : runs) {
    for (size_t i = 0; i < run.ops.size(); ++i) {
      if (run.ops[i] == op) out.push_back(run.timing.latency_us[i]);
    }
  }
  return out;
}

// The same statements, in-process through one Session per client thread:
// what the engine costs without the wire.
struct ReplayRun {
  std::vector<double> read_us;
  std::vector<double> update_us;
  QueryResult point_reply;
  QueryResult range_reply;
};

void ReplayInProcess(Env* env, const std::vector<std::vector<Stmt>>& seqs,
                     std::vector<TraceBuffer>* tbs, std::vector<ReplayRun>* out,
                     std::vector<int64_t>* acked, Report* report) {
  out->assign(kClients, ReplayRun{});
  std::vector<std::vector<int64_t>> client_acked(
      kClients, std::vector<int64_t>(kPartitions, 0));
  std::vector<std::string> errors(kClients);
  auto body = [&](int c) {
    systemr::Session session(env->db.get(), env->cache.get());
    std::vector<systemr::PreparedStatement> pt, rg;
    for (int p = 0; p < kPartitions; ++p) {
      auto a = session.Prepare("SELECT V FROM " + Table(p) + " WHERE PK = ?");
      auto b = session.Prepare("SELECT COUNT(*) FROM " + Table(p) +
                               " WHERE PK >= ? AND PK <= ?");
      if (!a.ok() || !b.ok()) {
        errors[static_cast<size_t>(c)] = "replay prepare failed";
        return;
      }
      pt.push_back(std::move(*a));
      rg.push_back(std::move(*b));
    }
    TraceBuffer* tb = &(*tbs)[static_cast<size_t>(c)];
    ReplayRun& run = (*out)[static_cast<size_t>(c)];
    const std::vector<Stmt>& seq = seqs[static_cast<size_t>(c)];
    for (size_t i = 0; i < seq.size(); ++i) {
      const Stmt& s = seq[i];
      tb->set_stmt(static_cast<uint32_t>(i));
      SpanScope stmt(tb, SpanName::kStmt);
      int64_t t0 = NowNs();
      if (s.op == Op::kUpdate) {
        StatusOr<size_t> n = Status::OK();
        {
          SpanScope span(tb, SpanName::kSessionMutate);
          n = session.Mutate(UpdateSql(s));
        }
        run.update_us.push_back((NowNs() - t0) / 1e3);
        if (n.ok() && *n == 1) {
          ++client_acked[static_cast<size_t>(c)][static_cast<size_t>(s.part)];
        } else if (n.ok()) {
          errors[static_cast<size_t>(c)] = "replayed UPDATE affected " +
                                           std::to_string(*n) + " rows";
        }
        continue;
      }
      StatusOr<QueryResult> r = Status::OK();
      {
        SpanScope span(tb, SpanName::kSessionExecute);
        r = s.op == Op::kPoint
                ? pt[static_cast<size_t>(s.part)].Execute({Value::Int(s.key)})
                : rg[static_cast<size_t>(s.part)].Execute(
                      {Value::Int(s.key), Value::Int(RangeHi(s.key))});
      }
      run.read_us.push_back((NowNs() - t0) / 1e3);
      if (r.ok()) {
        (s.op == Op::kPoint ? run.point_reply : run.range_reply) = std::move(*r);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(body, c);
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    if (!errors[static_cast<size_t>(c)].empty()) {
      report->Fail("oltp_wire: " + errors[static_cast<size_t>(c)]);
    }
    for (int p = 0; p < kPartitions; ++p) {
      (*acked)[static_cast<size_t>(p)] +=
          client_acked[static_cast<size_t>(c)][static_cast<size_t>(p)];
    }
  }
}

// Encode + decode of one reply, in ns, over the workload's reply shapes
// weighted by the statement mix.
double CodecNs(const QueryResult& point, const QueryResult& range) {
  constexpr int kIters = 20000;
  auto time_rows = [&](const QueryResult& q) {
    int64_t t0 = NowNs();
    size_t sink = 0;
    for (int i = 0; i < kIters; ++i) {
      std::string body = net::EncodeRowsReply(
          q.columns, q.rows, q.plan_text, q.stats.page_fetches,
          q.stats.buffer_gets, q.stats.rsi_calls, q.est_cost, q.actual_cost);
      net::WireResult w;
      net::DecodeReply(body, &w);
      sink += w.rows.size();
    }
    return (static_cast<double>(NowNs() - t0) + static_cast<double>(sink & 1)) /
           kIters;
  };
  int64_t t0 = NowNs();
  size_t sink = 0;
  for (int i = 0; i < kIters; ++i) {
    std::string body = net::EncodeAffectedReply(1);
    net::WireResult w;
    net::DecodeReply(body, &w);
    sink += w.affected;
  }
  double update_ns =
      (static_cast<double>(NowNs() - t0) + static_cast<double>(sink & 1)) /
      kIters;
  return (kPointPct * time_rows(point) + kRangePct * time_rows(range) +
          (100 - kPointPct - kRangePct) * update_ns) /
         100.0;
}

}  // namespace

void RunOltpWire(const Options& opt, Report* report) {
  double setup_s = 0;
  std::unique_ptr<Env> env =
      RepeatSetup(kSetups, [&] { return BuildEnv(opt.seed); }, &setup_s);
  Database* db = env->db.get();

  size_t total = static_cast<size_t>(kStmtsPerSecond * opt.seconds);
  size_t per_client = total / kClients / (opt.trace ? 2 : 1);
  std::vector<std::vector<Stmt>> seqs_a;
  for (int c = 0; c < kClients; ++c) {
    seqs_a.push_back(MakeSequence(opt.seed, 0, c, per_client));
  }
  std::vector<int64_t> acked(kPartitions, 0);
  std::vector<TraceBuffer*> no_trace(kClients, nullptr);
  std::vector<ClientRun> runs_a = RunWire(env.get(), seqs_a, no_trace);
  PhaseSummary a = Summarize(runs_a, report, &acked);
  report->attempted += a.attempted;
  report->failed += a.failed;

  if (!opt.trace) {
    report->Add("stmts_per_s", a.stmts_per_s);
    report->Add("p50_us", Percentile(a.all_us, 0.50));
    report->Add("p90_us", Percentile(a.all_us, 0.90));
    report->Add("setup_s", setup_s);
    // Read before the correctness checks, whose reference runs are not
    // the engine's memory.
    report->Add("peak_rss_mb", PeakRssMb());
  } else {
    // Traced wire phase, with the server, WAL, plan cache and pool counters
    // read around it.
    std::vector<std::vector<Stmt>> seqs_b;
    for (int c = 0; c < kClients; ++c) {
      seqs_b.push_back(MakeSequence(opt.seed, 1, c, per_client));
    }
    std::vector<TraceBuffer> tbs;
    for (int c = 0; c < kClients; ++c) {
      tbs.emplace_back(true, static_cast<uint16_t>(c));
    }
    std::vector<TraceBuffer*> tb_ptrs;
    for (TraceBuffer& tb : tbs) tb_ptrs.push_back(&tb);
    net::ServerStatsSnapshot s0 = env->server->stats();
    systemr::WalManager::Stats w0 = db->rss().wal().stats();
    uint64_t wal0 = db->rss().wal().size();
    systemr::PlanCacheStats c0 = env->cache->stats();
    systemr::BufferStats b0 = db->rss().pool().stats();
    uint64_t rsi0 = db->rss().counters().rsi_calls.load();
    std::vector<int64_t> acked_b(kPartitions, 0);
    std::vector<ClientRun> runs_b = RunWire(env.get(), seqs_b, tb_ptrs);
    net::ServerStatsSnapshot s1 = env->server->stats();
    systemr::WalManager::Stats w1 = db->rss().wal().stats();
    uint64_t wal1 = db->rss().wal().size();
    systemr::PlanCacheStats c1 = env->cache->stats();
    systemr::BufferStats b1 = db->rss().pool().stats();
    uint64_t rsi1 = db->rss().counters().rsi_calls.load();
    PhaseSummary b = Summarize(runs_b, report, &acked_b);
    report->attempted += b.attempted;
    report->failed += b.failed;
    int64_t updates_b = 0;
    for (int p = 0; p < kPartitions; ++p) {
      updates_b += acked_b[static_cast<size_t>(p)];
      acked[static_cast<size_t>(p)] += acked_b[static_cast<size_t>(p)];
    }
    double stmts = static_cast<double>(b.attempted);

    // In-process replay of the traced phase's statements.
    std::vector<TraceBuffer> replay_tbs;
    for (int c = 0; c < kClients; ++c) {
      replay_tbs.emplace_back(true, static_cast<uint16_t>(kClients + c));
    }
    std::vector<ReplayRun> replay;
    ReplayInProcess(env.get(), seqs_b, &replay_tbs, &replay, &acked, report);
    std::vector<double> read_us, update_us, wire_read_us;
    for (const ReplayRun& r : replay) {
      read_us.insert(read_us.end(), r.read_us.begin(), r.read_us.end());
      update_us.insert(update_us.end(), r.update_us.begin(),
                       r.update_us.end());
    }
    wire_read_us = OpLatencies(runs_b, Op::kPoint);
    std::vector<double> range_us = OpLatencies(runs_b, Op::kRange);
    wire_read_us.insert(wire_read_us.end(), range_us.begin(), range_us.end());

    report->Add("trace.overhead_frac", 1.0 - b.stmts_per_s / a.stmts_per_s);
    report->Add("net.wire_us", Median(wire_read_us) - Median(read_us));
    report->Add("net.rtt_p99_us", Percentile(b.all_us, 0.99));
    report->Add("net.codec_ns",
                CodecNs(replay[0].point_reply, replay[0].range_reply));
    report->Add("net.bytes_per_stmt",
                static_cast<double>((s1.bytes_in - s0.bytes_in) +
                                    (s1.bytes_out - s0.bytes_out)) /
                    stmts);
    uint64_t admitted = s1.stmts_admitted - s0.stmts_admitted;
    report->Add("net.admit_queued_frac",
                admitted == 0 ? 0.0
                              : static_cast<double>(s1.stmts_queued_total -
                                                    s0.stmts_queued_total) /
                                    static_cast<double>(admitted));
    report->Add("op.point_p50_us", Median(OpLatencies(runs_b, Op::kPoint)));
    report->Add("op.range_p50_us", Median(range_us));
    report->Add("op.update_p50_us", Median(OpLatencies(runs_b, Op::kUpdate)));
    report->Add("db.read_us", Median(read_us));
    report->Add("db.update_us", Median(update_us));
    double upd = static_cast<double>(std::max<int64_t>(updates_b, 1));
    report->Add("rss.wal_bytes_per_update",
                static_cast<double>(wal1 - wal0) / upd);
    report->Add("rss.wal_syncs", static_cast<double>(w1.syncs - w0.syncs) / upd);
    uint64_t lookups = (c1.hits - c0.hits) + (c1.misses - c0.misses);
    report->Add("session.cache_hit_ratio",
                lookups == 0 ? 0.0
                             : static_cast<double>(c1.hits - c0.hits) /
                                   static_cast<double>(lookups));
    report->Add("session.invalidations",
                static_cast<double>(c1.invalidations - c0.invalidations));
    uint64_t gets = b1.logical_gets - b0.logical_gets;
    report->Add("rss.buffer_gets", static_cast<double>(gets) / stmts);
    report->Add("rss.page_fetches",
                static_cast<double>(b1.fetches - b0.fetches) / stmts);
    report->Add("rss.rsi_calls", static_cast<double>(rsi1 - rsi0) / stmts);
    report->Add("rss.buffer_hit_ratio",
                gets == 0 ? 0.0
                          : 1.0 - static_cast<double>(b1.fetches - b0.fetches) /
                                      static_cast<double>(gets));

    if (!opt.trace_out.empty()) {
      std::vector<const TraceBuffer*> all;
      for (const TraceBuffer& tb : tbs) all.push_back(&tb);
      for (const TraceBuffer& tb : replay_tbs) all.push_back(&tb);
      if (!WriteTrace(opt.trace_out, all)) {
        report->notes.push_back("could not write " + opt.trace_out);
      }
    }
  }

  // Each partition's SUM(V) is its load-time sum plus its acknowledged
  // UPDATEs (each adds exactly 1).
  for (int p = 0; p < kPartitions; ++p) {
    StatusOr<QueryResult> r = db->Query("SELECT SUM(V) FROM " + Table(p));
    int64_t want = env->load_sum[static_cast<size_t>(p)] +
                   acked[static_cast<size_t>(p)];
    if (!r.ok() || r->rows.size() != 1 || r->rows[0][0].AsInt() != want) {
      report->Fail("oltp_wire: SUM(V) of " + Table(p) +
                   " does not match load sum + acknowledged UPDATEs");
    }
  }
  report->notes.push_back("partitions=" + std::to_string(kPartitions) + "x" +
                          std::to_string(kRowsPerPartition) + " rows, pool " +
                          std::to_string(kPoolPages) + " frames, clients " +
                          std::to_string(kClients) + ", pool pages resident " +
                          std::to_string(db->rss().pool().resident()));
}

}  // namespace perfbench
