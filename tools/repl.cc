// repl: an interactive shell over the Session subsystem — the hand-drivable
// version of the server-shaped PREPARE/EXECUTE path.
//
//   repl [--buffer-pages N] [--cache-capacity N] [--script FILE]
//        [--connect host:port]
//
// With --connect the shell speaks the wire protocol to a serverd instead of
// embedding a Database: the same statement surface travels as QUERY /
// PREPARE / EXECUTE frames, \stats shows the server's observability
// counters (STATS opcode), and \parallel becomes SET parallel — capped by
// the server, like every other limit.
//
// Statements end with ';' and may span lines. The SQL surface is the
// engine's own (CREATE TABLE / CREATE INDEX / INSERT / UPDATE / DELETE /
// UPDATE STATISTICS / SELECT / EXPLAIN / BEGIN / COMMIT / ROLLBACK, with `?`
// host-variable markers in SELECT), each statement run by the session. On
// top of that:
//
//   PREPARE <name> AS <select>;      compile once, through the plan cache
//   EXECUTE <name> [(v1, v2, ...)];  run with host variables bound
//   EXPLAIN <name>;                  show a prepared statement's plan
//   EXPLAIN <select>;                one-shot plan display
//   \stats                           session / plan-cache / buffer counters
//   \parallel N                      PARALLEL n knob for new plans
//   \list                           prepared statements
//   \help   \quit
#include <cctype>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "net/client.h"
#include "sql/lexer.h"
#include "session/plan_cache.h"
#include "session/session.h"

namespace systemr {
namespace {

// Parses EXECUTE's parameter list, "(1, -2.5, 'it''s', NULL)" or the bare
// list without parens, with the SQL lexer: each item is an INT, REAL or
// STRING literal, the first two optionally negated, or NULL. Returns false
// (with *error set) on malformed input.
bool ParseParams(const std::string& text, std::vector<Value>* out,
                 std::string* error) {
  auto lexed = Lex(text);
  if (!lexed.ok()) {
    *error = lexed.status().message();
    return false;
  }
  const std::vector<Token>& tokens = *lexed;  // Ends with kEof.
  size_t i = 0;
  bool parens = tokens[i].type == TokenType::kLParen;
  if (parens) ++i;
  while (tokens[i].type != TokenType::kEof &&
         tokens[i].type != TokenType::kRParen) {
    if (!out->empty() && tokens[i++].type != TokenType::kComma) {
      *error = "expected ',' at offset " + std::to_string(tokens[i - 1].offset);
      return false;
    }
    bool negative = tokens[i].type == TokenType::kMinus;
    if (negative) ++i;
    const Token& t = tokens[i++];
    if (t.type == TokenType::kIntLiteral) {
      out->push_back(Value::Int(negative ? -t.int_value : t.int_value));
    } else if (t.type == TokenType::kRealLiteral) {
      out->push_back(Value::Real(negative ? -t.real_value : t.real_value));
    } else if (t.type == TokenType::kStringLiteral && !negative) {
      out->push_back(Value::Str(t.text));
    } else if (t.type == TokenType::kNull && !negative) {
      out->push_back(Value::Null());
    } else {
      *error = "expected a literal at offset " + std::to_string(t.offset);
      return false;
    }
  }
  if (parens && tokens[i++].type != TokenType::kRParen) {
    *error = "expected ')'";
    return false;
  }
  if (tokens[i].type != TokenType::kEof) {
    *error = "unexpected text at offset " + std::to_string(tokens[i].offset);
    return false;
  }
  return true;
}

// First whitespace-delimited word, upper-cased.
std::string FirstWord(const std::string& s, size_t* rest) {
  size_t i = 0;
  while (i < s.size() && std::isspace((unsigned char)s[i])) ++i;
  size_t start = i;
  while (i < s.size() && !std::isspace((unsigned char)s[i])) ++i;
  std::string word = s.substr(start, i - start);
  for (char& c : word) c = (char)std::toupper((unsigned char)c);
  while (i < s.size() && std::isspace((unsigned char)s[i])) ++i;
  if (rest != nullptr) *rest = i;
  return word;
}

class Repl {
 public:
  Repl(size_t buffer_pages, size_t cache_capacity)
      : db_(buffer_pages), cache_(cache_capacity), session_(&db_, &cache_) {}

  // Returns false when the shell should exit.
  bool HandleLine(const std::string& line) {
    if (!line.empty() && line[0] == '\\') {
      return HandleMeta(line);
    }
    buffer_ += line;
    buffer_ += '\n';
    size_t semi;
    while ((semi = buffer_.find(';')) != std::string::npos) {
      std::string stmt = buffer_.substr(0, semi);
      buffer_.erase(0, semi + 1);
      HandleStatement(stmt);
    }
    return true;
  }

  bool pending() const { return buffer_.find_first_not_of(" \t\n") !=
                                std::string::npos; }

 private:
  bool HandleMeta(const std::string& line) {
    std::string cmd = line.substr(0, line.find_first_of(" \t"));
    if (cmd == "\\q" || cmd == "\\quit") return false;
    if (cmd == "\\stats") {
      PrintStats();
    } else if (cmd == "\\list") {
      if (prepared_.empty()) std::printf("(no prepared statements)\n");
      for (const auto& [name, stmt] : prepared_) {
        std::printf("%-12s (%d param%s)  %s\n", name.c_str(),
                    stmt->num_params(), stmt->num_params() == 1 ? "" : "s",
                    stmt->sql().c_str());
      }
    } else if (cmd == "\\parallel") {
      size_t rest = 0;
      FirstWord(line, &rest);
      int dop = (int)std::strtol(line.c_str() + rest, nullptr, 10);
      session_.set_max_dop(dop);
      std::printf("max degree of parallelism = %d%s\n", session_.max_dop(),
                  session_.max_dop() > 1 ? "" : " (serial)");
    } else if (cmd == "\\help") {
      PrintHelp();
    } else {
      std::printf("unknown command %s (try \\help)\n", cmd.c_str());
    }
    return true;
  }

  // The shell's own commands are PREPARE, EXECUTE and EXPLAIN of a
  // prepared statement; every SQL statement goes to the session.
  void HandleStatement(const std::string& stmt) {
    size_t rest = 0;
    std::string verb = FirstWord(stmt, &rest);
    if (verb.empty()) return;
    auto named = prepared_.end();
    if (verb == "EXPLAIN") {
      named = prepared_.find(FirstWord(stmt.substr(rest), nullptr));
    }
    if (verb == "PREPARE") {
      DoPrepare(stmt.substr(rest));
    } else if (verb == "EXECUTE") {
      DoExecute(stmt.substr(rest));
    } else if (named != prepared_.end()) {
      std::printf("%s", named->second->Explain().c_str());
    } else {
      PrintResult(session_.Execute(stmt));
    }
  }

  void DoPrepare(const std::string& rest) {
    size_t after_name = 0;
    std::string tail = rest;
    std::string name = FirstWord(tail, &after_name);
    if (name.empty()) {
      std::printf("usage: PREPARE <name> AS <select>;\n");
      return;
    }
    std::string sql = tail.substr(after_name);
    size_t as_end = 0;
    if (FirstWord(sql, &as_end) == "AS") sql = sql.substr(as_end);
    auto stmt = session_.Prepare(sql);
    if (!stmt.ok()) {
      std::printf("error: %s\n", stmt.status().ToString().c_str());
      return;
    }
    int n = stmt->num_params();
    prepared_.insert_or_assign(
        name, std::make_unique<PreparedStatement>(std::move(*stmt)));
    std::printf("prepared %s (%d parameter%s)\n", name.c_str(), n,
                n == 1 ? "" : "s");
  }

  void DoExecute(const std::string& rest) {
    size_t after_name = 0;
    std::string name = FirstWord(rest, &after_name);
    auto it = prepared_.find(name);
    if (it == prepared_.end()) {
      std::printf("no prepared statement '%s' (see \\list)\n", name.c_str());
      return;
    }
    std::vector<Value> params;
    std::string error;
    if (!ParseParams(rest.substr(after_name), &params, &error)) {
      std::printf("bad parameter list: %s\n", error.c_str());
      return;
    }
    PrintResult(it->second->Execute(params));
  }

  // Prints a statement's result by the kind that ran.
  void PrintResult(const StatusOr<QueryResult>& r) {
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      return;
    }
    switch (r->kind) {
      case Statement::Kind::kSelect:
        break;
      case Statement::Kind::kExplain:
        std::printf("%s", r->plan_text.c_str());
        return;
      case Statement::Kind::kInsert:
      case Statement::Kind::kDelete:
      case Statement::Kind::kUpdate:
        std::printf("%zu row%s\n", r->affected, r->affected == 1 ? "" : "s");
        return;
      default: {
        Statement::Kind k = r->kind;
        std::printf("%s\n", k == Statement::Kind::kBegin      ? "begin"
                            : k == Statement::Kind::kCommit   ? "commit"
                            : k == Statement::Kind::kRollback ? "rollback"
                                                              : "ok");
        return;
      }
    }
    // ToString already ends with the row count.
    std::printf("%s", r->ToString().c_str());
    const ExecStats& st = r->stats;
    std::printf("fetches=%llu gets=%llu rsi=%llu cost est=%.1f act=%.1f\n",
                (unsigned long long)st.page_fetches,
                (unsigned long long)st.buffer_gets,
                (unsigned long long)st.rsi_calls, r->est_cost, r->actual_cost);
    batch_totals_ += st;  // Accumulated for \stats.
  }

  void PrintStats() {
    const SessionStats& s = session_.stats();
    std::printf("session:    executions=%llu optimizations=%llu "
                "cache_hits=%llu reprepares=%llu feedback_replans=%llu\n",
                (unsigned long long)s.executions,
                (unsigned long long)s.optimizations,
                (unsigned long long)s.cache_hits,
                (unsigned long long)s.reprepares,
                (unsigned long long)s.feedback_replans);
    const SelectivityFeedback& fb = db_.feedback();
    std::printf("feedback:   signatures=%zu observations=%llu\n", fb.size(),
                (unsigned long long)fb.records());
    PlanCacheStats c = cache_.stats();
    std::printf("plan cache: entries=%zu/%zu hits=%llu misses=%llu "
                "evictions=%llu invalidations=%llu\n",
                cache_.size(), cache_.capacity(), (unsigned long long)c.hits,
                (unsigned long long)c.misses, (unsigned long long)c.evictions,
                (unsigned long long)c.invalidations);
    BufferStats b = db_.rss().pool().stats();
    std::printf("buffer:     gets=%llu fetches=%llu writes=%llu resident=%zu "
                "catalog_version=%llu\n",
                (unsigned long long)b.logical_gets,
                (unsigned long long)b.fetches, (unsigned long long)b.writes,
                db_.rss().pool().resident(),
                (unsigned long long)db_.catalog().version());
    std::printf("batch:      batches=%llu rows_in=%llu rows_out=%llu "
                "sel_density=%.3f hash_build=%llu hash_probe=%llu\n",
                (unsigned long long)batch_totals_.batches,
                (unsigned long long)batch_totals_.batch_rows_in,
                (unsigned long long)batch_totals_.batch_rows_out,
                batch_totals_.AvgSelectionDensity(),
                (unsigned long long)batch_totals_.hash_build_rows,
                (unsigned long long)batch_totals_.hash_probe_rows);
    std::printf("parallel:   max_dop=%d workers=%llu morsels=%llu\n",
                session_.max_dop(),
                (unsigned long long)batch_totals_.parallel_workers,
                (unsigned long long)batch_totals_.parallel_morsels);
  }

  void PrintHelp() {
    std::printf(
        "statements end with ';' and may span lines:\n"
        "  PREPARE <name> AS <select>;      compile once (host vars: ?)\n"
        "  EXECUTE <name> [(v1, ...)];      run with parameters bound\n"
        "  EXPLAIN <name>; / EXPLAIN <select>;\n"
        "  SELECT ...;                      one-shot query via the session\n"
        "  BEGIN; ... COMMIT; / ROLLBACK;   transaction control\n"
        "  CREATE TABLE/INDEX, INSERT, UPDATE, DELETE, UPDATE STATISTICS;\n"
        "meta:\n"
        "  \\stats       session, plan-cache, buffer, and parallel counters\n"
        "  \\parallel N  max degree of parallelism for new plans (1=serial)\n"
        "  \\list        prepared statements\n"
        "  \\quit\n");
  }

  Database db_;
  PlanCache cache_;
  Session session_;
  ExecStats batch_totals_;  // Running batch/hash counters across statements.
  std::string buffer_;
  std::map<std::string, std::unique_ptr<PreparedStatement>> prepared_;
};

// The remote shell: same line/statement surface as Repl, but every
// statement travels to a serverd as a wire-protocol frame.
class RemoteRepl {
 public:
  // Returns non-OK if the connection (incl. HELLO handshake) fails.
  Status Connect(const std::string& spec) {
    std::string host;
    uint16_t port = 0;
    Status s = net::ParseHostPort(spec, &host, &port);
    if (!s.ok()) return s;
    RETURN_IF_ERROR(client_.Connect(host, port));
    std::printf("connected to %s:%u (protocol v%u)\n", host.c_str(),
                (unsigned)port, (unsigned)net::kProtocolVersion);
    return Status::OK();
  }

  bool HandleLine(const std::string& line) {
    if (!client_.connected()) {
      std::printf("connection lost\n");
      return false;
    }
    if (!line.empty() && line[0] == '\\') {
      return HandleMeta(line);
    }
    buffer_ += line;
    buffer_ += '\n';
    size_t semi;
    while ((semi = buffer_.find(';')) != std::string::npos) {
      std::string stmt = buffer_.substr(0, semi);
      buffer_.erase(0, semi + 1);
      HandleStatement(stmt);
    }
    return true;
  }

  bool pending() const {
    return buffer_.find_first_not_of(" \t\n") != std::string::npos;
  }

 private:
  bool HandleMeta(const std::string& line) {
    std::string cmd = line.substr(0, line.find_first_of(" \t"));
    if (cmd == "\\q" || cmd == "\\quit") {
      client_.Close();
      return false;
    }
    if (cmd == "\\stats") {
      PrintServerStats();
    } else if (cmd == "\\parallel") {
      size_t rest = 0;
      FirstWord(line, &rest);
      int64_t dop = std::strtol(line.c_str() + rest, nullptr, 10);
      PrintWire(client_.Set("parallel", dop), "parallel set");
    } else if (cmd == "\\help") {
      std::printf(
          "remote mode — statements travel to the server; meta:\n"
          "  \\stats       server observability counters (STATS opcode)\n"
          "  \\parallel N  SET parallel (capped by the server's --max-dop)\n"
          "  \\set K V     SET any limit: max_rows, max_buffer_gets,\n"
          "               deadline_ms (tightens the server default)\n"
          "  \\quit\n");
    } else if (cmd == "\\set") {
      size_t rest = 0;
      FirstWord(line, &rest);
      std::string tail = line.substr(rest);
      size_t after_key = 0;
      std::string key = FirstWord(tail, &after_key);
      for (char& c : key) c = (char)std::tolower((unsigned char)c);
      int64_t value = std::strtoll(tail.c_str() + after_key, nullptr, 10);
      PrintWire(client_.Set(key, value), "set " + key);
    } else {
      std::printf("unknown command %s (try \\help)\n", cmd.c_str());
    }
    return true;
  }

  void HandleStatement(const std::string& stmt) {
    size_t rest = 0;
    std::string verb = FirstWord(stmt, &rest);
    if (verb.empty()) return;
    if (verb == "PREPARE") {
      std::string tail = stmt.substr(rest);
      size_t after_name = 0;
      std::string name = FirstWord(tail, &after_name);
      if (name.empty()) {
        std::printf("usage: PREPARE <name> AS <select>;\n");
        return;
      }
      std::string sql = tail.substr(after_name);
      size_t as_end = 0;
      if (FirstWord(sql, &as_end) == "AS") sql = sql.substr(as_end);
      PrintWire(client_.Prepare(name, sql), "prepared " + name);
    } else if (verb == "EXECUTE") {
      std::string tail = stmt.substr(rest);
      size_t after_name = 0;
      std::string name = FirstWord(tail, &after_name);
      std::vector<Value> params;
      std::string error;
      if (!ParseParams(tail.substr(after_name), &params, &error)) {
        std::printf("bad parameter list: %s\n", error.c_str());
        return;
      }
      PrintWire(client_.Execute(name, params), "ok");
    } else if (verb == "BEGIN") {
      PrintWire(client_.Begin(), "begin");
    } else if (verb == "COMMIT") {
      PrintWire(client_.Commit(), "commit");
    } else if (verb == "ROLLBACK") {
      PrintWire(client_.Rollback(), "rollback");
    } else {
      // Everything else — SELECT, EXPLAIN, DML, DDL — is one QUERY frame;
      // the server routes it by statement kind.
      PrintWire(client_.Query(stmt), "ok");
    }
  }

  void PrintWire(const StatusOr<net::WireResult>& r,
                 const std::string& ok_text) {
    if (!r.ok()) {  // The connection itself failed.
      std::printf("connection error: %s\n", r.status().ToString().c_str());
      return;
    }
    if (!r->ok()) {
      std::printf("error: %s\n", r->ToStatus().ToString().c_str());
      return;
    }
    switch (r->payload) {
      case net::WireResult::Payload::kRows: {
        // Reuse the engine's table printer by rebuilding a QueryResult.
        QueryResult q;
        q.columns = r->columns;
        q.rows = r->rows;
        q.plan_text = r->plan_text;
        std::printf("%s", q.ToString().c_str());
        if (r->plan_text.empty()) {
          std::printf("fetches=%llu gets=%llu rsi=%llu cost est=%.1f "
                      "act=%.1f\n",
                      (unsigned long long)r->page_fetches,
                      (unsigned long long)r->buffer_gets,
                      (unsigned long long)r->rsi_calls, r->est_cost,
                      r->actual_cost);
        }
        break;
      }
      case net::WireResult::Payload::kAffected:
        std::printf("%llu row%s\n", (unsigned long long)r->affected,
                    r->affected == 1 ? "" : "s");
        break;
      default:
        std::printf("%s\n", ok_text.c_str());
        break;
    }
  }

  void PrintServerStats() {
    StatusOr<net::ServerStatsSnapshot> s = client_.Stats();
    if (!s.ok()) {
      std::printf("error: %s\n", s.status().ToString().c_str());
      return;
    }
    std::printf("connections: accepted=%llu active=%llu shed=%llu "
                "disconnect_rollbacks=%llu\n",
                (unsigned long long)s->connections_accepted,
                (unsigned long long)s->connections_active,
                (unsigned long long)s->connections_shed,
                (unsigned long long)s->disconnect_rollbacks);
    std::printf("statements:  admitted=%llu active=%llu queued=%llu "
                "queued_total=%llu shed=%llu\n",
                (unsigned long long)s->stmts_admitted,
                (unsigned long long)s->stmts_active,
                (unsigned long long)s->stmts_queued,
                (unsigned long long)s->stmts_queued_total,
                (unsigned long long)s->stmts_shed);
    std::printf("             completed=%llu failed=%llu peak_active=%llu "
                "peak_queued=%llu\n",
                (unsigned long long)s->stmts_completed,
                (unsigned long long)s->stmts_failed,
                (unsigned long long)s->peak_active,
                (unsigned long long)s->peak_queued);
    std::printf("wire:        bytes_in=%llu bytes_out=%llu\n",
                (unsigned long long)s->bytes_in,
                (unsigned long long)s->bytes_out);
    std::printf("wal:         syncs=%llu requests=%llu piggybacked=%llu\n",
                (unsigned long long)s->wal_syncs,
                (unsigned long long)(s->wal_syncs + s->wal_piggybacked),
                (unsigned long long)s->wal_piggybacked);
  }

  net::Client client_;
  std::string buffer_;
};

int Main(int argc, char** argv) {
  size_t buffer_pages = 256;
  size_t cache_capacity = 64;
  const char* script = nullptr;
  const char* connect = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--buffer-pages") == 0 && i + 1 < argc) {
      buffer_pages = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--cache-capacity") == 0 && i + 1 < argc) {
      cache_capacity = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--script") == 0 && i + 1 < argc) {
      script = argv[++i];
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: repl [--buffer-pages N] [--cache-capacity N] "
                   "[--script FILE] [--connect host:port]\n");
      return 2;
    }
  }

  std::unique_ptr<Repl> local;
  std::unique_ptr<RemoteRepl> remote;
  if (connect != nullptr) {
    remote = std::make_unique<RemoteRepl>();
    Status s = remote->Connect(connect);
    if (!s.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
      return 1;
    }
  } else {
    local = std::make_unique<Repl>(buffer_pages, cache_capacity);
  }
  auto handle = [&](const std::string& line) {
    return remote ? remote->HandleLine(line) : local->HandleLine(line);
  };
  auto pending = [&] { return remote ? remote->pending() : local->pending(); };

  std::FILE* in = stdin;
  if (script != nullptr) {
    in = std::fopen(script, "r");
    if (in == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", script);
      return 2;
    }
  } else {
    std::printf("systemr repl — \\help for commands, \\quit to exit\n");
  }

  char line[4096];
  if (script == nullptr) std::printf("systemr> ");
  std::fflush(stdout);
  while (std::fgets(line, sizeof line, in) != nullptr) {
    size_t len = std::strlen(line);
    while (len > 0 && (line[len - 1] == '\n' || line[len - 1] == '\r')) {
      line[--len] = '\0';
    }
    if (!handle(line)) break;
    if (script == nullptr) {
      std::printf(pending() ? "    ...> " : "systemr> ");
      std::fflush(stdout);
    }
  }
  if (script != nullptr) std::fclose(in);
  return 0;
}

}  // namespace
}  // namespace systemr

int main(int argc, char** argv) { return systemr::Main(argc, argv); }
