// Per-execution metering. Each executing statement owns a MeterCounters and
// installs it for its thread with a MeterScope; the storage layer publishes
// page and RSI counts to the installed meter. Counters are therefore written
// by exactly one thread — concurrent sessions each observe precisely their
// own work, with no shared mutable statement-level state (the pool-wide
// atomics in BufferStats remain for whole-process observability).
#ifndef SYSTEMR_RSS_METER_H_
#define SYSTEMR_RSS_METER_H_

#include <cstdint>

namespace systemr {

struct MeterCounters {
  uint64_t page_fetches = 0;  // Buffer misses: simulated disk reads.
  uint64_t page_writes = 0;   // Newly materialized pages.
  uint64_t logical_gets = 0;  // All buffer requests, hit or miss.
  uint64_t rsi_calls = 0;     // Tuples the RSI delivered (the W term).
};

namespace meter_internal {
inline thread_local MeterCounters* tls_meter = nullptr;
}  // namespace meter_internal

/// The meter installed for this thread (null outside statement execution).
inline MeterCounters* CurrentMeter() { return meter_internal::tls_meter; }

/// RAII installation with stack discipline: a nested scope diverts counts to
/// the inner meter and restores the outer one on destruction.
class MeterScope {
 public:
  explicit MeterScope(MeterCounters* m) : prev_(meter_internal::tls_meter) {
    meter_internal::tls_meter = m;
  }
  ~MeterScope() { meter_internal::tls_meter = prev_; }
  MeterScope(const MeterScope&) = delete;
  MeterScope& operator=(const MeterScope&) = delete;

 private:
  MeterCounters* prev_;
};

}  // namespace systemr

#endif  // SYSTEMR_RSS_METER_H_
