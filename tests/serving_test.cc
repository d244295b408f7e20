// The network serving front end, end to end over real loopback sockets:
// wire round trips, the HELLO version gate, the admission controller's
// concurrency cap and queue-full shedding, server-imposed ExecLimits
// aborting runaway statements, disconnect-triggered transaction rollback
// (2PL locks released), graceful-shutdown drain, and the STATS opcode. The
// StressMixedDml case is the ThreadSanitizer target: many connections
// hammering mixed DML and reads concurrently.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "net/client.h"
#include "net/server.h"
#include "session/plan_cache.h"
#include "session/session.h"

namespace systemr {
namespace {

using net::Client;
using net::Opcode;
using net::WireResult;

// One server over a fresh database. `tables` small tables T0..T{n-1} give
// concurrent DML clients disjoint relation locks; BIG provides a scan that
// is expensive in buffer gets.
class ServingTest : public ::testing::Test {
 protected:
  void StartServer(net::ServerOptions opts, int tables = 4,
                   int big_rows = 2000) {
    db_ = std::make_unique<Database>(64);
    cache_ = std::make_unique<PlanCache>(32);
    for (int i = 0; i < tables; ++i) {
      ASSERT_TRUE(db_->Execute("CREATE TABLE T" + std::to_string(i) +
                               " (PK INT, V INT)").ok());
      ASSERT_TRUE(db_->Execute("INSERT INTO T" + std::to_string(i) +
                               " VALUES (0, 0)").ok());
    }
    if (big_rows > 0) {
      for (int base = 0; base < big_rows; base += 500) {
        std::string sql = "INSERT INTO BIG VALUES ";
        for (int i = base; i < base + 500 && i < big_rows; ++i) {
          if (i != base) sql += ", ";
          sql += "(" + std::to_string(i) + ", " + std::to_string(i % 97) + ")";
        }
        if (base == 0) {
          ASSERT_TRUE(db_->Execute("CREATE TABLE BIG (PK INT, V INT)").ok());
        }
        ASSERT_TRUE(db_->Execute(sql).ok());
      }
      ASSERT_TRUE(db_->Execute("UPDATE STATISTICS BIG").ok());
    }
    server_ = std::make_unique<net::Server>(db_.get(), cache_.get(), opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  Client Connect() {
    Client c;
    EXPECT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
    return c;
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<PlanCache> cache_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(ServingTest, RoundTripQueryDmlPrepareExecute) {
  StartServer({});
  Client c = Connect();

  auto rows = c.Query("SELECT PK, V FROM T0 WHERE PK = 0");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_TRUE(rows->ok()) << rows->message;
  EXPECT_EQ(rows->columns.size(), 2u);
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsInt(), 0);
  EXPECT_GT(rows->buffer_gets, 0u);

  auto dml = c.Query("INSERT INTO T0 VALUES (1, 10)");
  ASSERT_TRUE(dml.ok() && dml->ok());
  EXPECT_EQ(dml->payload, WireResult::Payload::kAffected);
  EXPECT_EQ(dml->affected, 1u);

  ASSERT_TRUE(c.Prepare("q", "SELECT V FROM T0 WHERE PK = ?").value().ok());
  auto exec = c.Execute("q", {Value::Int(1)});
  ASSERT_TRUE(exec.ok() && exec->ok());
  ASSERT_EQ(exec->rows.size(), 1u);
  EXPECT_EQ(exec->rows[0][0].AsInt(), 10);

  auto missing = c.Execute("nope", {});
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->code, StatusCode::kNotFound);

  auto explain = c.Query("EXPLAIN SELECT PK FROM BIG WHERE PK = 5");
  ASSERT_TRUE(explain.ok() && explain->ok());
  EXPECT_FALSE(explain->plan_text.empty());

  auto bad = c.Query("SELEC nonsense");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->ok());  // Parse error travels as a clean status.
  // The connection survives an engine error.
  EXPECT_TRUE(c.Query("SELECT PK FROM T0 WHERE PK = 0").value().ok());
  c.Close();
}

// A QUERY frame's values bind the `?` markers of DML too, with the arity
// check a SELECT gets.
TEST_F(ServingTest, QueryBindsDmlParameters) {
  StartServer({});
  Client c = Connect();
  ASSERT_TRUE(c.Query("INSERT INTO T0 VALUES (5, 50)").value().ok());
  auto upd = c.Query("UPDATE T0 SET V = ? WHERE PK = ?",
                     {Value::Int(42), Value::Int(5)});
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  ASSERT_TRUE(upd->ok()) << upd->message;
  EXPECT_EQ(upd->payload, WireResult::Payload::kAffected);
  EXPECT_EQ(upd->affected, 1u);
  auto v = c.Query("SELECT V FROM T0 WHERE PK = 5");
  ASSERT_TRUE(v.ok() && v->ok());
  ASSERT_EQ(v->rows.size(), 1u);
  EXPECT_EQ(v->rows[0][0].AsInt(), 42);

  auto short_by_one =
      c.Query("UPDATE T0 SET V = ? WHERE PK = ?", {Value::Int(7)});
  ASSERT_TRUE(short_by_one.ok());
  EXPECT_EQ(short_by_one->code, StatusCode::kInvalidArgument);
  EXPECT_EQ(short_by_one->message, "statement takes 2 parameter(s), 1 bound");
  c.Close();
}

// EXPLAIN over the wire is planned as the connection's session plans its
// SELECT, SET parallel included; PREPARE takes a SELECT only.
TEST_F(ServingTest, ExplainShowsTheSessionsPlan) {
  StartServer({}, 1, 20000);
  const std::string sql = "SELECT V, COUNT(*) FROM BIG WHERE V < 5 GROUP BY V";
  Client c = Connect();
  ASSERT_TRUE(c.Set("parallel", 4).value().ok());
  auto explain = c.Query("EXPLAIN " + sql);
  ASSERT_TRUE(explain.ok() && explain->ok()) << explain->message;
  EXPECT_NE(explain->plan_text.find("Exchange"), std::string::npos)
      << explain->plan_text;
  Session dop4(db_.get(), cache_.get());
  dop4.set_max_dop(4);
  auto prepared = dop4.Prepare(sql);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(explain->plan_text, prepared->Explain());

  auto prepare_explain = c.Prepare("q", "EXPLAIN " + sql);
  ASSERT_TRUE(prepare_explain.ok());
  EXPECT_EQ(prepare_explain->code, StatusCode::kInvalidArgument);
  EXPECT_EQ(prepare_explain->message, "expected a SELECT statement");
  c.Close();
}

// Every statement kind gets the same answer through Session::Execute and
// through wire QUERY frames, each on a fresh database, and the statements
// that succeed leave the same tables as one ExecuteScript of them.
TEST_F(ServingTest, SurfacesRouteAlike) {
  const std::vector<std::string> stmts = {
      "CREATE TABLE R (A INT, B INT)",
      "INSERT INTO R VALUES (1, 10), (2, 20), (3, 30)",
      "CREATE INDEX R_A ON R (A)",
      "UPDATE STATISTICS R",
      "SELECT A, B FROM R WHERE A >= 2",
      "EXPLAIN SELECT B FROM R WHERE A = 2",
      "BEGIN",
      "UPDATE R SET B = (SELECT MAX(A) FROM R) WHERE A < 3",
      "COMMIT",
      "ROLLBACK",
      "BEGIN",
      "BEGIN",
      "SELEC A FROM R",
      "SELECT A FROM NOPE",
  };
  auto table = [](Database* db) {
    auto r = db->Query("SELECT A, B FROM R ORDER BY A");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->rows : std::vector<Row>{};
  };
  auto render = [](const std::vector<Row>& rows) {
    std::string out;
    for (const Row& row : rows) {
      for (const Value& v : row) out += v.ToString() + " ";
      out += "\n";
    }
    return out;
  };

  Database local_db(64);
  PlanCache local_cache(32);
  Session session(&local_db, &local_cache);
  StartServer({}, 0, 0);
  Client c = Connect();
  std::string script;
  for (const std::string& sql : stmts) {
    SCOPED_TRACE(sql);
    StatusOr<QueryResult> mine = session.Execute(sql);
    StatusOr<WireResult> wire = c.Query(sql);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    EXPECT_EQ(wire->code, mine.status().code());
    EXPECT_EQ(wire->message, mine.status().message());
    if (!mine.ok()) continue;
    script += sql + ";\n";
    EXPECT_EQ(render(wire->rows), render(mine->rows));
    EXPECT_EQ(wire->plan_text, mine->plan_text);
    EXPECT_EQ(wire->affected, mine->affected);
  }
  Database scripted(64);
  ASSERT_TRUE(scripted.ExecuteScript(script).ok()) << script;
  std::string expected = render(table(&scripted));
  EXPECT_EQ(expected, "1 3 \n2 3 \n3 30 \n");
  EXPECT_EQ(render(table(&local_db)), expected);
  EXPECT_EQ(render(table(db_.get())), expected);
  c.Close();
}

// A numeric literal out of its type's range is an error reply, not a dead
// server: the same connection answers the next statement.
TEST_F(ServingTest, OutOfRangeLiteralIsAnErrorReply) {
  StartServer({});
  Client c = Connect();
  const std::string bad[] = {
      "SELECT PK FROM T0 WHERE PK = 99999999999999999999",
      "SELECT PK FROM T0 WHERE PK < " + std::string(400, '9') + ".5",
      "INSERT INTO T0 VALUES (99999999999999999999, 1)"};
  for (const std::string& sql : bad) {
    auto reply = c.Query(sql);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->code, StatusCode::kInvalidArgument) << reply->message;
    auto rows = c.Query("SELECT PK FROM T0 WHERE PK = 0");
    ASSERT_TRUE(rows.ok() && rows->ok());
    EXPECT_EQ(rows->rows.size(), 1u);
  }
  auto prepared = c.Prepare("q", bad[0]);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->code, StatusCode::kInvalidArgument);
  EXPECT_TRUE(c.Query("SELECT PK FROM T0 WHERE PK = 0").value().ok());
  c.Close();
}

// A wire value's STRING length is 16 bits. The longest string that fits
// comes back intact; a longer result value is an error reply on a
// connection that stays usable, and a longer parameter never leaves the
// client.
TEST_F(ServingTest, StringLongerThanTheWireLimitIsRefused) {
  StartServer({});
  Client c = Connect();
  const std::string fits(Value::kMaxStringBytes, 'y');
  auto ok = c.Query("SELECT '" + fits + "' FROM T0");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_TRUE(ok->ok()) << ok->message;
  ASSERT_EQ(ok->rows.size(), 1u);
  EXPECT_EQ(ok->rows[0][0].AsStr(), fits);

  const std::string too_long(Value::kMaxStringBytes + 1, 'y');
  auto reply = c.Query("SELECT '" + too_long + "' FROM T0");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->code, StatusCode::kInvalidArgument) << reply->message;
  auto after = c.Query("SELECT PK FROM T0 WHERE PK = 0");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_TRUE(after->ok()) << after->message;
  EXPECT_EQ(after->rows.size(), 1u);

  auto param = c.Query("SELECT PK FROM T0 WHERE PK = ?",
                       {Value::Str(too_long)});
  EXPECT_EQ(param.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(c.Prepare("q", "SELECT PK FROM T0 WHERE PK = ?").value().ok());
  auto exec = c.Execute("q", {Value::Str(too_long)});
  EXPECT_EQ(exec.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(c.connected());
  EXPECT_TRUE(c.Query("SELECT PK FROM T0 WHERE PK = 0").value().ok());
  c.Close();
}

TEST_F(ServingTest, HelloGateAndVersionCheck) {
  StartServer({}, 1, 0);
  // Raw socket: speak frames without the handshake.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  auto round_trip = [&](Opcode op, const std::string& body, WireResult* out) {
    ASSERT_TRUE(net::WriteFrame(fd, op, body));
    Opcode rop;
    std::string rbody;
    ASSERT_EQ(net::ReadFrame(fd, &rop, &rbody), net::FrameRead::kOk);
    ASSERT_EQ(rop, Opcode::kReply);
    ASSERT_TRUE(net::DecodeReply(rbody, out));
  };

  WireResult r;
  round_trip(Opcode::kQuery, net::EncodeQuery("SELECT PK FROM T0", {}), &r);
  EXPECT_EQ(r.code, StatusCode::kInvalidArgument);  // HELLO required.

  round_trip(Opcode::kHello, std::string(1, '\x7f'), &r);
  EXPECT_EQ(r.code, StatusCode::kInvalidArgument);  // Bad version.

  round_trip(Opcode::kHello, net::EncodeHello(), &r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.version, net::kProtocolVersion);

  round_trip(Opcode::kQuery, net::EncodeQuery("SELECT PK FROM T0", {}), &r);
  EXPECT_TRUE(r.ok());  // Gate lifted after the corrected handshake.
  ::close(fd);
}

TEST_F(ServingTest, AdmissionEnforcesConcurrencyCap) {
  net::ServerOptions opts;
  opts.max_concurrent = 2;
  opts.max_queue = 64;
  StartServer(opts, 8, 0);
  // A 10ms simulated fsync makes every auto-commit INSERT hold its
  // admission slot long enough for real contention.
  db_->rss().wal().set_sync_delay_us(10'000);

  std::vector<std::thread> clients;
  std::atomic<int> errors{0};
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      Client c;
      if (!c.Connect("127.0.0.1", server_->port()).ok()) {
        ++errors;
        return;
      }
      for (int i = 1; i <= 3; ++i) {
        auto r = c.Query("INSERT INTO T" + std::to_string(t) + " VALUES (" +
                         std::to_string(i) + ", 0)");
        if (!r.ok() || !r->ok()) ++errors;
      }
      c.Close();
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(errors.load(), 0);

  net::ServerStatsSnapshot s = server_->stats();
  EXPECT_LE(s.peak_active, 2u);          // The cap held at every instant.
  EXPECT_GE(s.stmts_queued_total, 1u);   // And the queue actually engaged.
  EXPECT_EQ(s.stmts_admitted, 24u);
  EXPECT_EQ(s.stmts_shed, 0u);           // Queue was deep enough: no shedding.
}

TEST_F(ServingTest, QueueFullShedsWithResourceExhausted) {
  net::ServerOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 1;
  StartServer(opts, 8, 0);
  db_->rss().wal().set_sync_delay_us(50'000);

  std::vector<std::thread> clients;
  std::atomic<int> ok{0}, shed{0}, other{0};
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&, t] {
      Client c;
      if (!c.Connect("127.0.0.1", server_->port()).ok()) {
        ++other;
        return;
      }
      auto r = c.Query("INSERT INTO T" + std::to_string(t) + " VALUES (1, 0)");
      if (r.ok() && r->ok()) {
        ++ok;
      } else if (r.ok() && r->code == StatusCode::kResourceExhausted) {
        ++shed;  // The load-shedding path: immediate, not queued.
      } else {
        ++other;
      }
      c.Close();
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(shed.load(), 1);  // 1 executing + 1 queued < 6 concurrent.
  EXPECT_GE(ok.load(), 2);
  EXPECT_EQ(server_->stats().stmts_shed, (uint64_t)shed.load());
}

TEST_F(ServingTest, ServerDefaultLimitsAbortRunawayQuery) {
  net::ServerOptions opts;
  opts.default_max_buffer_gets = 4;  // Far below a BIG scan.
  StartServer(opts);
  Client c = Connect();
  auto r = c.Query("SELECT COUNT(*) FROM BIG");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->code, StatusCode::kResourceExhausted) << r->message;
  // The connection — and the server — remain usable afterward.
  auto again = c.Query("SELECT PK FROM T0 WHERE PK = 0");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->ok());
  c.Close();
}

TEST_F(ServingTest, ServerDefaultLimitsAbortRunawayDml) {
  net::ServerOptions opts;
  opts.default_max_buffer_gets = 4;  // Far below an UPDATE of all of BIG.
  StartServer(opts);
  Client c = Connect();
  auto r = c.Query("UPDATE BIG SET V = V + 1 WHERE PK >= 0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->code, StatusCode::kResourceExhausted) << r->message;
  // The statement rolled back, and the connection stays usable.
  auto unchanged = db_->Query("SELECT COUNT(*) FROM BIG WHERE V = 0");
  ASSERT_TRUE(unchanged.ok()) << unchanged.status().ToString();
  EXPECT_EQ(unchanged->rows[0][0].AsInt(), 21);  // PK 0, 97, ..., 1940.
  auto again = c.Query("INSERT INTO T0 VALUES (1, 1)");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->ok()) << again->message;
  EXPECT_EQ(again->affected, 1u);
  c.Close();
}

TEST_F(ServingTest, ClientSetTightensButCannotLoosenLimits) {
  net::ServerOptions opts;
  opts.default_max_buffer_gets = 1'000'000;
  StartServer(opts);
  Client c = Connect();
  // Tighten: a 4-get budget aborts the BIG scan.
  ASSERT_TRUE(c.Set("max_buffer_gets", 4).value().ok());
  auto r = c.Query("SELECT COUNT(*) FROM BIG");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->code, StatusCode::kResourceExhausted);
  // "Loosen" beyond the server default: the server's ceiling still applies,
  // but the scan fits under it — this only proves SET round-trips.
  ASSERT_TRUE(c.Set("max_buffer_gets", 0).value().ok());
  EXPECT_TRUE(c.Query("SELECT COUNT(*) FROM BIG").value().ok());
  // max_rows via SET aborts an over-wide result.
  ASSERT_TRUE(c.Set("max_rows", 5).value().ok());
  auto wide = c.Query("SELECT PK FROM BIG");
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->code, StatusCode::kResourceExhausted);
  auto bad = c.Set("no_such_knob", 1);
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->code, StatusCode::kInvalidArgument);
  c.Close();
}

TEST_F(ServingTest, DisconnectMidTransactionRollsBackAndReleasesLocks) {
  StartServer({});
  net::ServerStatsSnapshot before = server_->stats();
  {
    Client a = Connect();
    ASSERT_TRUE(a.Begin().value().ok());
    auto upd = a.Query("UPDATE T0 SET V = 99 WHERE PK = 0");
    ASSERT_TRUE(upd.ok() && upd->ok());
    // Vanish abruptly: destructor closes the socket with no kClose and the
    // transaction still open, X lock on T0 still held.
  }
  // A second client's write needs that lock. The server notices the
  // disconnect asynchronously, so retry across the lock timeout.
  Client b = Connect();
  bool wrote = false;
  for (int attempt = 0; attempt < 50 && !wrote; ++attempt) {
    auto r = b.Query("UPDATE T0 SET V = 7 WHERE PK = 0");
    ASSERT_TRUE(r.ok());
    if (r->ok()) {
      wrote = true;
    } else {
      ASSERT_EQ(r->code, StatusCode::kResourceExhausted) << r->message;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_TRUE(wrote) << "abandoned transaction never released its locks";
  // The abandoned UPDATE rolled back: only b's value is visible.
  auto v = b.Query("SELECT V FROM T0 WHERE PK = 0");
  ASSERT_TRUE(v.ok() && v->ok());
  ASSERT_EQ(v->rows.size(), 1u);
  EXPECT_EQ(v->rows[0][0].AsInt(), 7);
  EXPECT_EQ(server_->stats().disconnect_rollbacks,
            before.disconnect_rollbacks + 1);
  b.Close();
}

TEST_F(ServingTest, GracefulShutdownDrainsInFlightStatement) {
  StartServer({}, 1, 0);
  db_->rss().wal().set_sync_delay_us(150'000);  // Slow commit = in flight.

  std::atomic<bool> got_reply{false}, reply_ok{false};
  Client c = Connect();
  std::thread worker([&] {
    auto r = c.Query("INSERT INTO T0 VALUES (1, 1)");
    got_reply = r.ok();
    reply_ok = r.ok() && r->ok();
  });
  // Let the statement win admission, then shut down underneath it.
  while (server_->stats().stmts_admitted == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server_->Stop();
  worker.join();
  EXPECT_TRUE(got_reply.load());  // The reply was delivered, not cut off.
  EXPECT_TRUE(reply_ok.load());   // And the statement completed its commit.
  EXPECT_FALSE(server_->running());
  // New connections are refused after shutdown.
  Client late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server_->port()).ok());
}

TEST_F(ServingTest, StatsOpcodeReportsCounters) {
  StartServer({});
  Client c = Connect();
  ASSERT_TRUE(c.Query("SELECT PK FROM T0 WHERE PK = 0").value().ok());
  ASSERT_TRUE(c.Query("INSERT INTO T1 VALUES (5, 5)").value().ok());
  auto s = c.Stats();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_GE(s->connections_accepted, 1u);
  EXPECT_EQ(s->connections_active, 1u);
  EXPECT_GE(s->stmts_admitted, 2u);
  EXPECT_GE(s->stmts_completed, 2u);
  EXPECT_GT(s->bytes_in, 0u);
  EXPECT_GT(s->bytes_out, 0u);
  EXPECT_GE(s->wal_syncs, 1u);  // The INSERT's commit fsynced.
  c.Close();
}

// The ThreadSanitizer target: >= 10 concurrent connections, mixed DML and
// reads, group commit and admission control all active at once.
TEST_F(ServingTest, StressMixedDml) {
  net::ServerOptions opts;
  opts.max_concurrent = 6;
  opts.max_queue = 64;
  StartServer(opts, 12, 500);
  db_->rss().wal().set_sync_delay_us(500);

  constexpr int kClients = 12;
  constexpr int kIters = 15;
  std::vector<std::thread> clients;
  std::atomic<int> hard_failures{0};
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Client c;
      if (!c.Connect("127.0.0.1", server_->port()).ok()) {
        ++hard_failures;
        return;
      }
      const std::string table = "T" + std::to_string(t);
      for (int i = 1; i <= kIters; ++i) {
        StatusOr<WireResult> r(WireResult{});
        switch (i % 4) {
          case 0:
            r = c.Query("INSERT INTO " + table + " VALUES (" +
                        std::to_string(i) + ", " + std::to_string(t) + ")");
            break;
          case 1:
            r = c.Query("SELECT COUNT(*) FROM " + table);
            break;
          case 2:
            r = c.Query("UPDATE " + table + " SET V = V + 1 WHERE PK = 0");
            break;
          case 3:
            // Cross-table read: shared scans under concurrent DML.
            r = c.Query("SELECT COUNT(*) FROM BIG WHERE V = " +
                        std::to_string(t));
            break;
        }
        // Transport failures and crashes are bugs; clean engine errors
        // (lock timeouts under contention) are allowed.
        if (!r.ok()) {
          ++hard_failures;
          return;
        }
        if (!r->ok() && r->code != StatusCode::kResourceExhausted) {
          ++hard_failures;
          return;
        }
      }
      c.Close();
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(hard_failures.load(), 0);
  EXPECT_TRUE(server_->running());
  net::ServerStatsSnapshot s = server_->stats();
  EXPECT_GE(s.stmts_completed, (uint64_t)(kClients * kIters * 3 / 4));
  EXPECT_LE(s.peak_active, 6u);
  // Group commit under concurrency: some commits rode another's fsync.
  EXPECT_GT(s.wal_piggybacked, 0u);
}

}  // namespace
}  // namespace systemr
