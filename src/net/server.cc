#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>

#include "sql/lexer.h"
#include "sql/parser.h"

namespace systemr {
namespace net {

namespace {

/// The tightest of a server default and a client SET value (0 = unlimited on
/// either side). The client can only narrow the server's limit.
uint64_t Tightest(uint64_t server_default, uint64_t client) {
  if (server_default == 0) return client;
  if (client == 0) return server_default;
  return std::min(server_default, client);
}

/// Per-connection mutable state outside the Session itself.
struct ConnState {
  bool hello_done = false;
  uint64_t set_max_buffer_gets = 0;
  uint64_t set_max_rows = 0;
  uint64_t set_deadline_ms = 0;
};

/// The reply for one statement, chosen by what ran: rows or plan text for a
/// SELECT (QUERY or EXECUTE) or an EXPLAIN, a count for DML, a bare status
/// for the rest.
std::string ReplyFor(const StatusOr<QueryResult>& r) {
  if (!r.ok()) return EncodeStatusReply(r.status());
  switch (r->kind) {
    case Statement::Kind::kSelect:
    case Statement::Kind::kExplain:
      return EncodeRowsReply(r->columns, r->rows, r->plan_text,
                             r->stats.page_fetches, r->stats.buffer_gets,
                             r->stats.rsi_calls, r->est_cost, r->actual_cost);
    case Statement::Kind::kInsert:
    case Statement::Kind::kDelete:
    case Statement::Kind::kUpdate:
      return EncodeAffectedReply(r->affected);
    default:
      return EncodeStatusReply(Status::OK());
  }
}

}  // namespace

Server::Server(Database* db, PlanCache* cache, ServerOptions options)
    : db_(db),
      cache_(cache),
      options_(std::move(options)),
      admission_(options_.max_concurrent, options_.max_queue) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    Status s = Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 128) != 0) {
    Status s = Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  stopping_.store(false, std::memory_order_release);
  cancel_all_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  return Status::OK();
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener shut down (Stop) or broken: accepting is over.
    }
    ReapFinished();
    if (connections_active_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      // Connection-level shedding: tell the client why before closing, so a
      // well-behaved pool backs off instead of retrying blind.
      ++connections_shed_;
      uint64_t out = 0;
      WriteFrame(cfd, Opcode::kReply,
                 EncodeStatusReply(Status::ResourceExhausted(
                     "connection limit (" +
                     std::to_string(options_.max_connections) + ") reached")),
                 &out);
      bytes_out_.fetch_add(out, std::memory_order_relaxed);
      ::close(cfd);
      continue;
    }
    ++connections_accepted_;
    connections_active_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Conn>();
    conn->fd = cfd;
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread(&Server::Serve, this, raw);
  }
}

void Server::ReapFinished() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::Serve(Conn* conn) {
  Session session(db_, cache_);
  std::map<std::string, std::unique_ptr<PreparedStatement>> prepared;
  ConnState st;
  const int fd = conn->fd;
  bool open = true;

  // Builds this statement's ExecLimits: server defaults tightened by the
  // connection's SET values, the deadline armed at execution (not queueing)
  // time, and the server-wide cancel flag so Stop() can abort stragglers.
  auto effective_limits = [&]() {
    ExecLimits l;
    l.max_buffer_gets =
        Tightest(options_.default_max_buffer_gets, st.set_max_buffer_gets);
    l.max_rows = Tightest(options_.default_max_rows, st.set_max_rows);
    uint64_t deadline_ms =
        Tightest(options_.default_deadline_ms, st.set_deadline_ms);
    if (deadline_ms > 0) {
      l.has_deadline = true;
      l.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(deadline_ms);
    }
    l.cancel = &cancel_all_;
    return l;
  };

  // Runs one statement under admission control and encodes its reply. A
  // non-OK admission becomes the reply instead (shedding / shutdown);
  // completion counters are bumped by the statement's status.
  auto admitted = [&](auto&& run) -> std::string {
    if (stopping_.load(std::memory_order_acquire)) {
      return EncodeStatusReply(Status::Cancelled("server shutting down"));
    }
    Status slot = admission_.Admit();
    if (!slot.ok()) return EncodeStatusReply(slot);
    session.set_limits(effective_limits());
    StatusOr<QueryResult> r = run();
    ++(r.ok() ? stmts_completed_ : stmts_failed_);
    std::string reply = ReplyFor(r);
    admission_.Release();
    return reply;
  };

  // Runs a QUERY frame's text, lexed once here; the session parses the
  // tokens at most once. Transaction control stays outside admission — a
  // COMMIT queued behind statements that are themselves waiting on this
  // transaction's locks would couple everyone's latency to the lock
  // timeout. Everything else, EXPLAIN included, is admitted.
  auto run_sql = [&](const std::string& sql,
                     const std::vector<Value>& params) -> std::string {
    StatusOr<std::vector<Token>> tokens = Lex(sql);
    if (!tokens.ok()) return EncodeStatusReply(tokens.status());
    TokenType lead = LeadingToken(*tokens);
    auto run = [&] { return session.Execute(sql, std::move(*tokens), params); };
    if (lead == TokenType::kBegin || lead == TokenType::kCommit ||
        lead == TokenType::kRollback) {
      return ReplyFor(run());
    }
    return admitted(run);
  };

  while (open) {
    Opcode op;
    std::string body;
    uint64_t in = 0;
    FrameRead fr = ReadFrame(fd, &op, &body, &in);
    bytes_in_.fetch_add(in, std::memory_order_relaxed);
    if (fr == FrameRead::kEof || fr == FrameRead::kTruncated ||
        fr == FrameRead::kError) {
      break;  // Peer gone (possibly mid-frame); teardown below.
    }

    std::string reply;
    if (fr == FrameRead::kBadLength) {
      // The length prefix itself is garbage — there is no way to find the
      // next frame boundary, so answer and hang up.
      reply = EncodeStatusReply(Status::InvalidArgument(
          "protocol error: invalid frame length (must be 1.." +
          std::to_string(kMaxFrameLen) + ")"));
      open = false;
    } else if (op == Opcode::kHello) {
      uint8_t version = 0;
      if (!DecodeHello(body, &version)) {
        reply = EncodeStatusReply(
            Status::InvalidArgument("protocol error: malformed HELLO"));
      } else if (version != kProtocolVersion) {
        reply = EncodeStatusReply(Status::InvalidArgument(
            "unsupported protocol version " + std::to_string(version) +
            " (server speaks " + std::to_string(kProtocolVersion) + ")"));
      } else {
        st.hello_done = true;
        reply = EncodeHelloReply(kProtocolVersion);
      }
    } else if (!st.hello_done) {
      reply = EncodeStatusReply(Status::InvalidArgument(
          std::string("protocol error: HELLO required before ") +
          OpcodeName(op)));
    } else {
      switch (op) {
        case Opcode::kQuery: {
          std::string sql;
          std::vector<Value> params;
          if (!DecodeQuery(body, &sql, &params)) {
            reply = EncodeStatusReply(Status::InvalidArgument(
                "protocol error: malformed QUERY body"));
          } else {
            reply = run_sql(sql, params);
          }
          break;
        }
        case Opcode::kPrepare: {
          std::string name, sql;
          if (!DecodePrepare(body, &name, &sql)) {
            reply = EncodeStatusReply(Status::InvalidArgument(
                "protocol error: malformed PREPARE body"));
            break;
          }
          StatusOr<PreparedStatement> stmt = session.Prepare(sql);
          if (!stmt.ok()) {
            reply = EncodeStatusReply(stmt.status());
          } else {
            prepared.insert_or_assign(
                name,
                std::make_unique<PreparedStatement>(std::move(*stmt)));
            reply = EncodeStatusReply(Status::OK());
          }
          break;
        }
        case Opcode::kExecute: {
          std::string name;
          std::vector<Value> params;
          if (!DecodeExecute(body, &name, &params)) {
            reply = EncodeStatusReply(Status::InvalidArgument(
                "protocol error: malformed EXECUTE body"));
            break;
          }
          auto it = prepared.find(name);
          if (it == prepared.end()) {
            reply = EncodeStatusReply(
                Status::NotFound("no prepared statement '" + name + "'"));
            break;
          }
          reply = admitted([&] { return it->second->Execute(params); });
          break;
        }
        case Opcode::kBegin:
          reply = EncodeStatusReply(session.Begin());
          break;
        case Opcode::kCommit:
          reply = EncodeStatusReply(session.Commit());
          break;
        case Opcode::kRollback:
          reply = EncodeStatusReply(session.Rollback());
          break;
        case Opcode::kSet: {
          std::string key;
          int64_t value = 0;
          if (!DecodeSet(body, &key, &value) || value < 0) {
            reply = EncodeStatusReply(Status::InvalidArgument(
                "protocol error: malformed SET body"));
            break;
          }
          if (key == "parallel") {
            session.set_max_dop(static_cast<int>(
                std::min<int64_t>(value, options_.max_dop_cap)));
            reply = EncodeStatusReply(Status::OK());
          } else if (key == "max_rows") {
            st.set_max_rows = static_cast<uint64_t>(value);
            reply = EncodeStatusReply(Status::OK());
          } else if (key == "max_buffer_gets") {
            st.set_max_buffer_gets = static_cast<uint64_t>(value);
            reply = EncodeStatusReply(Status::OK());
          } else if (key == "deadline_ms") {
            st.set_deadline_ms = static_cast<uint64_t>(value);
            reply = EncodeStatusReply(Status::OK());
          } else {
            reply = EncodeStatusReply(Status::InvalidArgument(
                "unknown SET key '" + key +
                "' (parallel|max_rows|max_buffer_gets|deadline_ms)"));
          }
          break;
        }
        case Opcode::kStats:
          reply = EncodeStatsReply(stats());
          break;
        case Opcode::kClose:
          reply = EncodeStatusReply(Status::OK());
          open = false;
          break;
        default:
          reply = EncodeStatusReply(Status::InvalidArgument(
              "protocol error: unknown opcode " +
              std::to_string(static_cast<unsigned>(op))));
          break;
      }
    }

    uint64_t out = 0;
    bool wrote = WriteFrame(fd, Opcode::kReply, reply, &out);
    bytes_out_.fetch_add(out, std::memory_order_relaxed);
    if (!wrote) break;
  }

  // Disconnect teardown: a transaction left open by a vanished client rolls
  // back (Session destructor) and releases its 2PL locks; count it so
  // operators can see abandoned transactions.
  if (session.in_txn()) ++disconnect_rollbacks_;
  ::shutdown(fd, SHUT_RDWR);
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
  conn->done.store(true, std::memory_order_release);
}

void Server::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);

  // 1. Refuse new work: break accept() and fail queued admissions.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  admission_.Shutdown();

  // 2. Drain: let in-flight statements finish and deliver their replies.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.drain_timeout_ms);
  while (admission_.active() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // 3. Whatever is still running has outlived the drain window: cancel
  // cooperatively via the ExecLimits flag every statement carries.
  cancel_all_.store(true, std::memory_order_release);

  // 4. Unblock connection reads (SHUT_RD keeps the write side alive so a
  // final reply in flight still reaches the client), then join everyone.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      if (!conn->done.load(std::memory_order_acquire)) {
        ::shutdown(conn->fd, SHUT_RD);
      }
    }
  }
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
  running_.store(false, std::memory_order_release);
}

ServerStatsSnapshot Server::stats() const {
  ServerStatsSnapshot s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_active = connections_active_.load();
  s.connections_shed = connections_shed_.load();
  s.stmts_admitted = admission_.admitted();
  s.stmts_active = admission_.active();
  s.stmts_queued = admission_.queued();
  s.stmts_queued_total = admission_.queued_total();
  s.stmts_shed = admission_.shed();
  s.stmts_completed = stmts_completed_.load();
  s.stmts_failed = stmts_failed_.load();
  s.peak_active = admission_.peak_active();
  s.peak_queued = admission_.peak_queued();
  s.disconnect_rollbacks = disconnect_rollbacks_.load();
  s.bytes_in = bytes_in_.load();
  s.bytes_out = bytes_out_.load();
  WalManager::Stats wal = db_->rss().wal().stats();
  s.wal_syncs = wal.syncs;
  s.wal_piggybacked = wal.piggybacked;
  return s;
}

}  // namespace net
}  // namespace systemr
