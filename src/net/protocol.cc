#include "net/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace systemr {
namespace net {

namespace {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU16(std::string* out, uint16_t v) {
  out->append(reinterpret_cast<const char*>(&v), 2);
}
void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}
void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}
void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(out, bits);
}
void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked sequential reader over a reply/request body. Every Get
/// returns false past the end, so a garbage body can never read out of
/// bounds — it just fails to decode.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool GetU16(uint16_t* v) { return GetRaw(v, 2); }
  bool GetU32(uint32_t* v) { return GetRaw(v, 4); }
  bool GetU64(uint64_t* v) { return GetRaw(v, 8); }
  bool GetI64(int64_t* v) { return GetRaw(v, 8); }
  bool GetF64(double* v) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, 8);
    return true;
  }
  bool GetString(std::string* out) {
    uint32_t len;
    if (!GetU32(&len)) return false;
    if (pos_ + len > data_.size()) return false;
    out->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  bool GetValue(Value* out) {
    return Value::Deserialize(data_.data(), data_.size(), &pos_, out);
  }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  bool GetRaw(void* v, size_t n) {
    if (pos_ + n > data_.size()) return false;
    std::memcpy(v, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

void PutParams(std::string* out, const std::vector<Value>& params) {
  PutU16(out, static_cast<uint16_t>(params.size()));
  for (const Value& v : params) v.Serialize(out);
}

bool GetParams(Reader* r, std::vector<Value>* params) {
  uint16_t n;
  if (!r->GetU16(&n)) return false;
  params->clear();
  params->reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    Value v;
    if (!r->GetValue(&v)) return false;
    params->push_back(std::move(v));
  }
  return true;
}

// The ServerStatsSnapshot wire layout is a fixed u64 sequence; keep encode
// and decode in one place so they cannot drift.
template <typename Snapshot, typename Fn>
void ForEachStatsField(Snapshot& s, Fn fn) {
  fn(s.connections_accepted);
  fn(s.connections_active);
  fn(s.connections_shed);
  fn(s.stmts_admitted);
  fn(s.stmts_active);
  fn(s.stmts_queued);
  fn(s.stmts_queued_total);
  fn(s.stmts_shed);
  fn(s.stmts_completed);
  fn(s.stmts_failed);
  fn(s.peak_active);
  fn(s.peak_queued);
  fn(s.disconnect_rollbacks);
  fn(s.bytes_in);
  fn(s.bytes_out);
  fn(s.wal_syncs);
  fn(s.wal_piggybacked);
}

}  // namespace

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kHello: return "HELLO";
    case Opcode::kQuery: return "QUERY";
    case Opcode::kPrepare: return "PREPARE";
    case Opcode::kExecute: return "EXECUTE";
    case Opcode::kBegin: return "BEGIN";
    case Opcode::kCommit: return "COMMIT";
    case Opcode::kRollback: return "ROLLBACK";
    case Opcode::kSet: return "SET";
    case Opcode::kStats: return "STATS";
    case Opcode::kClose: return "CLOSE";
    case Opcode::kReply: return "REPLY";
  }
  return "UNKNOWN";
}

std::string EncodeHello() {
  std::string out;
  PutU8(&out, kProtocolVersion);
  return out;
}

std::string EncodeQuery(const std::string& sql,
                        const std::vector<Value>& params) {
  std::string out;
  PutString(&out, sql);
  PutParams(&out, params);
  return out;
}

std::string EncodePrepare(const std::string& name, const std::string& sql) {
  std::string out;
  PutString(&out, name);
  PutString(&out, sql);
  return out;
}

std::string EncodeExecute(const std::string& name,
                          const std::vector<Value>& params) {
  std::string out;
  PutString(&out, name);
  PutParams(&out, params);
  return out;
}

std::string EncodeSet(const std::string& key, int64_t value) {
  std::string out;
  PutString(&out, key);
  PutI64(&out, value);
  return out;
}

bool DecodeHello(std::string_view body, uint8_t* version) {
  Reader r(body);
  return r.GetU8(version) && r.AtEnd();
}

bool DecodeQuery(std::string_view body, std::string* sql,
                 std::vector<Value>* params) {
  Reader r(body);
  return r.GetString(sql) && GetParams(&r, params) && r.AtEnd();
}

bool DecodePrepare(std::string_view body, std::string* name,
                   std::string* sql) {
  Reader r(body);
  return r.GetString(name) && r.GetString(sql) && r.AtEnd();
}

bool DecodeExecute(std::string_view body, std::string* name,
                   std::vector<Value>* params) {
  Reader r(body);
  return r.GetString(name) && GetParams(&r, params) && r.AtEnd();
}

bool DecodeSet(std::string_view body, std::string* key, int64_t* value) {
  Reader r(body);
  return r.GetString(key) && r.GetI64(value) && r.AtEnd();
}

namespace {

std::string ReplyHeader(const Status& status,
                        WireResult::Payload payload) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(status.code()));
  PutString(&out, status.message());
  PutU8(&out, static_cast<uint8_t>(payload));
  return out;
}

}  // namespace

std::string EncodeStatusReply(const Status& status) {
  return ReplyHeader(status, WireResult::Payload::kNone);
}

std::string EncodeHelloReply(uint8_t version) {
  std::string out = ReplyHeader(Status::OK(), WireResult::Payload::kHello);
  PutU8(&out, version);
  return out;
}

std::string EncodeAffectedReply(uint64_t affected) {
  std::string out = ReplyHeader(Status::OK(), WireResult::Payload::kAffected);
  PutU64(&out, affected);
  return out;
}

std::string EncodeRowsReply(const std::vector<std::string>& columns,
                            const std::vector<Row>& rows,
                            const std::string& plan_text,
                            uint64_t page_fetches, uint64_t buffer_gets,
                            uint64_t rsi_calls, double est_cost,
                            double actual_cost) {
  static const Value kNull;
  std::string out = ReplyHeader(Status::OK(), WireResult::Payload::kRows);
  PutU16(&out, static_cast<uint16_t>(columns.size()));
  for (const std::string& c : columns) PutString(&out, c);
  PutU32(&out, static_cast<uint32_t>(rows.size()));
  for (const Row& row : rows) {
    for (size_t c = 0; c < columns.size(); ++c) {
      const Value& v = c < row.size() ? row[c] : kNull;
      if (!FitsWire(v)) {
        return EncodeStatusReply(Status::InvalidArgument(
            "result value longer than " +
            std::to_string(Value::kMaxStringBytes) + " bytes"));
      }
      v.Serialize(&out);
    }
  }
  PutString(&out, plan_text);
  PutU64(&out, page_fetches);
  PutU64(&out, buffer_gets);
  PutU64(&out, rsi_calls);
  PutF64(&out, est_cost);
  PutF64(&out, actual_cost);
  return out;
}

std::string EncodeStatsReply(const ServerStatsSnapshot& stats) {
  std::string out =
      ReplyHeader(Status::OK(), WireResult::Payload::kServerStats);
  ForEachStatsField(stats, [&out](const uint64_t& v) { PutU64(&out, v); });
  return out;
}

bool DecodeReply(std::string_view body, WireResult* out) {
  Reader r(body);
  uint8_t code, payload;
  if (!r.GetU8(&code) || code > static_cast<uint8_t>(StatusCode::kCancelled)) {
    return false;
  }
  out->code = static_cast<StatusCode>(code);
  if (!r.GetString(&out->message)) return false;
  if (!r.GetU8(&payload) ||
      payload > static_cast<uint8_t>(WireResult::Payload::kHello)) {
    return false;
  }
  out->payload = static_cast<WireResult::Payload>(payload);
  switch (out->payload) {
    case WireResult::Payload::kNone:
      break;
    case WireResult::Payload::kHello:
      if (!r.GetU8(&out->version)) return false;
      break;
    case WireResult::Payload::kAffected:
      if (!r.GetU64(&out->affected)) return false;
      break;
    case WireResult::Payload::kServerStats: {
      bool ok = true;
      ForEachStatsField(out->server_stats, [&r, &ok](uint64_t& v) {
        if (!r.GetU64(&v)) ok = false;
      });
      if (!ok) return false;
      break;
    }
    case WireResult::Payload::kRows: {
      uint16_t ncols;
      uint32_t nrows;
      if (!r.GetU16(&ncols)) return false;
      out->columns.clear();
      for (uint16_t c = 0; c < ncols; ++c) {
        std::string name;
        if (!r.GetString(&name)) return false;
        out->columns.push_back(std::move(name));
      }
      if (!r.GetU32(&nrows)) return false;
      out->rows.clear();
      out->rows.reserve(nrows);
      for (uint32_t i = 0; i < nrows; ++i) {
        Row row;
        row.reserve(ncols);
        for (uint16_t c = 0; c < ncols; ++c) {
          Value v;
          if (!r.GetValue(&v)) return false;
          row.push_back(std::move(v));
        }
        out->rows.push_back(std::move(row));
      }
      if (!r.GetString(&out->plan_text)) return false;
      if (!r.GetU64(&out->page_fetches) || !r.GetU64(&out->buffer_gets) ||
          !r.GetU64(&out->rsi_calls) || !r.GetF64(&out->est_cost) ||
          !r.GetF64(&out->actual_cost)) {
        return false;
      }
      break;
    }
  }
  return r.AtEnd();
}

namespace {

/// Reads exactly `n` bytes. Returns n on success, 0 on clean EOF before the
/// first byte, -1 on mid-read EOF or socket error.
ssize_t ReadExact(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) {
      errno = 0;  // Distinguishes peer EOF from a socket error for callers.
      return got == 0 ? 0 : -1;
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    got += static_cast<size_t>(r);
  }
  return static_cast<ssize_t>(n);
}

}  // namespace

FrameRead ReadFrame(int fd, Opcode* op, std::string* body,
                    uint64_t* bytes_in) {
  char lenbuf[4];
  errno = 0;  // ReadExact leaves errno at 0 on a mid-read EOF.
  ssize_t r = ReadExact(fd, lenbuf, 4);
  if (r == 0) return FrameRead::kEof;
  if (r < 0) return errno == 0 ? FrameRead::kTruncated : FrameRead::kError;
  if (bytes_in != nullptr) *bytes_in += 4;
  uint32_t len;
  std::memcpy(&len, lenbuf, 4);
  if (len == 0 || len > kMaxFrameLen) return FrameRead::kBadLength;

  std::string frame(len, '\0');
  errno = 0;
  if (ReadExact(fd, frame.data(), len) <= 0) {
    return errno == 0 ? FrameRead::kTruncated : FrameRead::kError;
  }
  if (bytes_in != nullptr) *bytes_in += len;
  *op = static_cast<Opcode>(static_cast<uint8_t>(frame[0]));
  body->assign(frame, 1, len - 1);
  return FrameRead::kOk;
}

bool WriteFrame(int fd, Opcode op, std::string_view body,
                uint64_t* bytes_out) {
  std::string frame;
  frame.reserve(5 + body.size());
  PutU32(&frame, static_cast<uint32_t>(1 + body.size()));
  PutU8(&frame, static_cast<uint8_t>(op));
  frame.append(body);
  size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not kill the
    // server process with SIGPIPE.
    ssize_t w = ::send(fd, frame.data() + sent, frame.size() - sent,
                       MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(w);
  }
  if (bytes_out != nullptr) *bytes_out += frame.size();
  return true;
}

}  // namespace net
}  // namespace systemr
