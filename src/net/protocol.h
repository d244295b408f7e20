// Wire protocol for the serving front end (DESIGN.md §10). The protocol is
// a length-prefixed binary framing shared by serverd and the client library:
//
//   frame  = [u32 len][u8 opcode][body]     (little-endian, len = 1 + |body|)
//
// The length counts everything after itself, so a reader resynchronizes on
// frame boundaries without understanding opcodes. A length of zero or above
// kMaxFrameLen can only be garbage (no legal frame is that shape); the
// connection is unrecoverable at that point — the peer's framing is broken —
// so the server answers with a protocol error and closes.
//
// Versioning: the first request on a connection must be HELLO carrying the
// client's protocol version byte. The server answers with its own version
// and rejects mismatches; every other opcode before a successful HELLO is an
// error (the connection stays usable — send HELLO and continue).
//
// Every response is one kReply frame: a status code, a message, and an
// optional payload (row batch with ExecStats counters, affected-row count,
// server observability counters, or the HELLO version echo). Engine errors
// map 1:1 onto the wire — StatusCode is shared by both ends — so a client
// sees exactly the kResourceExhausted / kCancelled distinctions the
// admission controller and per-statement limits produce.
#ifndef SYSTEMR_NET_PROTOCOL_H_
#define SYSTEMR_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"

namespace systemr {
namespace net {

inline constexpr uint8_t kProtocolVersion = 1;
/// Upper bound on len: no legal frame is larger (a result row batch is
/// chunked below this). Anything above is a torn/garbage length prefix.
inline constexpr uint32_t kMaxFrameLen = 1u << 24;  // 16 MiB.

enum class Opcode : uint8_t {
  // Requests (client -> server).
  kHello = 0x01,    // [u8 version]
  kQuery = 0x02,    // [str sql][u16 nparams][nparams * value] — any statement.
  kPrepare = 0x03,  // [str name][str sql]
  kExecute = 0x04,  // [str name][u16 nparams][nparams * value]
  kBegin = 0x05,    // empty
  kCommit = 0x06,   // empty
  kRollback = 0x07, // empty
  kSet = 0x08,      // [str key][i64 value] — parallel / limit knobs.
  kStats = 0x09,    // empty — server observability counters.
  kClose = 0x0A,    // empty — polite goodbye; server replies then closes.
  // Responses (server -> client).
  kReply = 0x80,
};

const char* OpcodeName(Opcode op);

/// Server observability counters (the STATS opcode / repl \stats view).
/// Gauges are point-in-time; everything else is cumulative since Start().
struct ServerStatsSnapshot {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;   // Gauge.
  uint64_t connections_shed = 0;     // Refused: connection cap reached.
  uint64_t stmts_admitted = 0;       // Executions granted a slot.
  uint64_t stmts_active = 0;         // Gauge: statements executing now.
  uint64_t stmts_queued = 0;         // Gauge: statements waiting now.
  uint64_t stmts_queued_total = 0;   // Admissions that had to wait.
  uint64_t stmts_shed = 0;           // Rejected: wait queue full.
  uint64_t stmts_completed = 0;      // Executions finished OK.
  uint64_t stmts_failed = 0;         // Executions finished with an error.
  uint64_t peak_active = 0;          // High-water mark of stmts_active.
  uint64_t peak_queued = 0;          // High-water mark of stmts_queued.
  uint64_t disconnect_rollbacks = 0; // Open txns rolled back on disconnect.
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t wal_syncs = 0;            // Fsync points taken by the WAL.
  uint64_t wal_piggybacked = 0;      // Commits that rode another's fsync.
};

/// One decoded kReply. `code`/`message` mirror the engine Status; the
/// payload says what else the frame carried.
struct WireResult {
  enum class Payload : uint8_t {
    kNone = 0,
    kRows = 1,
    kAffected = 2,
    kServerStats = 3,
    kHello = 4,
  };

  StatusCode code = StatusCode::kOk;
  std::string message;
  Payload payload = Payload::kNone;

  // kRows.
  std::vector<std::string> columns;
  std::vector<Row> rows;
  std::string plan_text;  // EXPLAIN output; rows empty when set.
  uint64_t page_fetches = 0;
  uint64_t buffer_gets = 0;
  uint64_t rsi_calls = 0;
  double est_cost = 0;
  double actual_cost = 0;

  uint64_t affected = 0;            // kAffected.
  ServerStatsSnapshot server_stats; // kServerStats.
  uint8_t version = 0;              // kHello.

  bool ok() const { return code == StatusCode::kOk; }
  /// The reply as an engine Status (OK or the carried error).
  Status ToStatus() const {
    return ok() ? Status::OK() : Status(code, message);
  }
};

/// Whether `v` can travel as a wire value: a STRING's length is encoded in
/// 16 bits (Value::Serialize), so one longer than Value::kMaxStringBytes
/// cannot. The client refuses such a parameter, and the server answers a
/// result holding one with an error reply.
inline bool FitsWire(const Value& v) {
  return v.type() != ValueType::kString ||
         v.AsStr().size() <= Value::kMaxStringBytes;
}

// --- Request body codecs ---

std::string EncodeHello();
std::string EncodeQuery(const std::string& sql,
                        const std::vector<Value>& params);
std::string EncodePrepare(const std::string& name, const std::string& sql);
std::string EncodeExecute(const std::string& name,
                          const std::vector<Value>& params);
std::string EncodeSet(const std::string& key, int64_t value);

bool DecodeHello(std::string_view body, uint8_t* version);
bool DecodeQuery(std::string_view body, std::string* sql,
                 std::vector<Value>* params);
bool DecodePrepare(std::string_view body, std::string* name, std::string* sql);
bool DecodeExecute(std::string_view body, std::string* name,
                   std::vector<Value>* params);
bool DecodeSet(std::string_view body, std::string* key, int64_t* value);

// --- Reply body codecs ---

std::string EncodeStatusReply(const Status& status);
std::string EncodeHelloReply(uint8_t version);
std::string EncodeAffectedReply(uint64_t affected);
/// Row batch with the ExecStats counters the bench and repl surface; a
/// kInvalidArgument status reply instead if a value does not FitsWire.
std::string EncodeRowsReply(const std::vector<std::string>& columns,
                            const std::vector<Row>& rows,
                            const std::string& plan_text,
                            uint64_t page_fetches, uint64_t buffer_gets,
                            uint64_t rsi_calls, double est_cost,
                            double actual_cost);
std::string EncodeStatsReply(const ServerStatsSnapshot& stats);
bool DecodeReply(std::string_view body, WireResult* out);

// --- Framing over a connected socket ---

enum class FrameRead {
  kOk,         // *op / *body hold one frame.
  kEof,        // Clean close before any byte of a frame.
  kTruncated,  // Peer vanished mid-frame.
  kBadLength,  // len == 0 or len > kMaxFrameLen: framing is garbage.
  kError,      // errno-level socket failure.
};

/// Blocking read of one frame. `*bytes_in` (optional) accumulates bytes
/// consumed, including the length prefix of rejected frames.
FrameRead ReadFrame(int fd, Opcode* op, std::string* body,
                    uint64_t* bytes_in = nullptr);

/// Blocking write of one frame; false when the peer is gone.
bool WriteFrame(int fd, Opcode op, std::string_view body,
                uint64_t* bytes_out = nullptr);

}  // namespace net
}  // namespace systemr

#endif  // SYSTEMR_NET_PROTOCOL_H_
