#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace systemr {
namespace net {

Status ParseHostPort(const std::string& spec, std::string* host,
                     uint16_t* port) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("expected host:port, got '" + spec + "'");
  }
  *host = colon == 0 ? "127.0.0.1" : spec.substr(0, colon);
  const std::string port_str = spec.substr(colon + 1);
  char* end = nullptr;
  long value = std::strtol(port_str.c_str(), &end, 10);
  if (port_str.empty() || *end != '\0' || value <= 0 || value > 65535) {
    return Status::InvalidArgument("bad port '" + port_str + "'");
  }
  *port = static_cast<uint16_t>(value);
  return Status::OK();
}

namespace {

Status CheckParams(const std::vector<Value>& params) {
  for (const Value& v : params) {
    if (!FitsWire(v)) {
      return Status::InvalidArgument("parameter value longer than " +
                                     std::to_string(Value::kMaxStringBytes) +
                                     " bytes");
    }
  }
  return Status::OK();
}

}  // namespace

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Status Client::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::InvalidArgument("already connected");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Status s = Status::IoError("connect " + host + ":" +
                               std::to_string(port) + ": " +
                               std::strerror(errno));
    ::close(fd);
    return s;
  }
  fd_ = fd;

  StatusOr<WireResult> hello = RoundTrip(Opcode::kHello, EncodeHello());
  if (!hello.ok()) {
    Close();
    return hello.status();
  }
  if (!hello->ok()) {
    // Version rejected (or the server shed the connection).
    Status s = hello->ToStatus();
    Close();
    return s;
  }
  return Status::OK();
}

void Client::Close() {
  if (fd_ < 0) return;
  WriteFrame(fd_, Opcode::kClose, "");
  ::close(fd_);
  fd_ = -1;
}

StatusOr<WireResult> Client::RoundTrip(Opcode op, std::string_view body) {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  if (!WriteFrame(fd_, op, body)) {
    Status s = Status::IoError("connection lost (write)");
    ::close(fd_);
    fd_ = -1;
    return s;
  }
  Opcode reply_op;
  std::string reply_body;
  FrameRead fr = ReadFrame(fd_, &reply_op, &reply_body);
  WireResult result;
  if (fr != FrameRead::kOk || reply_op != Opcode::kReply ||
      !DecodeReply(reply_body, &result)) {
    Status s = Status::IoError(fr == FrameRead::kOk
                                   ? "malformed reply from server"
                                   : "connection lost (read)");
    ::close(fd_);
    fd_ = -1;
    return s;
  }
  return result;
}

StatusOr<WireResult> Client::Query(const std::string& sql,
                                   const std::vector<Value>& params) {
  RETURN_IF_ERROR(CheckParams(params));
  return RoundTrip(Opcode::kQuery, EncodeQuery(sql, params));
}

StatusOr<WireResult> Client::Prepare(const std::string& name,
                                     const std::string& sql) {
  return RoundTrip(Opcode::kPrepare, EncodePrepare(name, sql));
}

StatusOr<WireResult> Client::Execute(const std::string& name,
                                     const std::vector<Value>& params) {
  RETURN_IF_ERROR(CheckParams(params));
  return RoundTrip(Opcode::kExecute, EncodeExecute(name, params));
}

StatusOr<WireResult> Client::Begin() {
  return RoundTrip(Opcode::kBegin, "");
}

StatusOr<WireResult> Client::Commit() {
  return RoundTrip(Opcode::kCommit, "");
}

StatusOr<WireResult> Client::Rollback() {
  return RoundTrip(Opcode::kRollback, "");
}

StatusOr<WireResult> Client::Set(const std::string& key, int64_t value) {
  return RoundTrip(Opcode::kSet, EncodeSet(key, value));
}

StatusOr<ServerStatsSnapshot> Client::Stats() {
  StatusOr<WireResult> r = RoundTrip(Opcode::kStats, "");
  if (!r.ok()) return r.status();
  if (!r->ok()) return r->ToStatus();
  if (r->payload != WireResult::Payload::kServerStats) {
    return Status::Internal("STATS reply carried no stats payload");
  }
  return r->server_stats;
}

}  // namespace net
}  // namespace systemr
