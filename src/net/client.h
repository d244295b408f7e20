// Client: the other end of the wire protocol. A thin blocking library over
// one TCP connection: Connect() performs the HELLO version handshake, each
// call sends one request frame and waits for its kReply. Transport-level
// failures (socket error, torn reply, undecodable frame) come back as a
// non-OK Status and poison the connection; engine-level errors arrive as an
// OK round trip whose WireResult carries the error code — the caller
// distinguishes "the network broke" from "the server said no".
#ifndef SYSTEMR_NET_CLIENT_H_
#define SYSTEMR_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "net/protocol.h"

namespace systemr {
namespace net {

/// Splits "host:port" (host may be omitted: ":4653" = 127.0.0.1).
Status ParseHostPort(const std::string& spec, std::string* host,
                     uint16_t* port);

class Client {
 public:
  Client() = default;
  ~Client();  // Closes without the polite kClose (use Close() for that).
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

  /// Connects and runs the HELLO handshake. On version rejection the
  /// server's error comes back here and the connection is closed.
  Status Connect(const std::string& host, uint16_t port);
  /// Sends kClose (best effort) and closes the socket.
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// One SQL statement (any kind the repl accepts), optionally with `?`
  /// parameters. A non-OK Status means the connection itself failed, or
  /// (kInvalidArgument, nothing sent) that a parameter does not FitsWire;
  /// Execute refuses such a parameter the same way.
  StatusOr<WireResult> Query(const std::string& sql,
                             const std::vector<Value>& params = {});
  StatusOr<WireResult> Prepare(const std::string& name, const std::string& sql);
  StatusOr<WireResult> Execute(const std::string& name,
                               const std::vector<Value>& params = {});
  StatusOr<WireResult> Begin();
  StatusOr<WireResult> Commit();
  StatusOr<WireResult> Rollback();
  StatusOr<WireResult> Set(const std::string& key, int64_t value);
  StatusOr<ServerStatsSnapshot> Stats();

  /// Raw round trip — the fuzzer and tests use this for odd frames.
  StatusOr<WireResult> RoundTrip(Opcode op, std::string_view body);

 private:
  int fd_ = -1;
};

}  // namespace net
}  // namespace systemr

#endif  // SYSTEMR_NET_CLIENT_H_
