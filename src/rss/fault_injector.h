// Deterministic storage fault injection for the simulated disk.
//
// The injector models two failure classes at the BufferPool <-> PageStore
// boundary, i.e. on simulated disk reads (buffer-pool misses):
//   - transient I/O errors: the read fails; the pool retries a bounded number
//     of times, and a persistent failure surfaces as kIoError;
//   - page corruption: the bytes arriving from the "device" differ from what
//     was written. Corruption is applied to a shadow copy of the page, never
//     to the stored bytes, so the trusted reference executor (which reads the
//     PageStore directly) and later fault-free reruns see pristine data —
//     exactly the semantics of a transient controller/cable fault.
//
// All decisions are drawn from a seeded splitmix64 stream, so a given
// (seed, config) pair produces one fault schedule: the same sequence of
// misses receives the same faults on every run and platform.
#ifndef SYSTEMR_RSS_FAULT_INJECTOR_H_
#define SYSTEMR_RSS_FAULT_INJECTOR_H_

#include <cstdint>

#include "common/rng.h"
#include "rss/page.h"

namespace systemr {

/// What the injector decided for one simulated disk read.
enum class FaultKind {
  kNone = 0,
  kIoTransient,   // Read fails; a retry may succeed.
  kIoPersistent,  // Read fails; retries fail too (device gone).
  kCorruptBits,   // A few random bit flips in the delivered bytes.
  kCorruptHeader, // Page header clobbered (slot directory / node header).
};

struct FaultConfig {
  double io_error_rate = 0.0;    // P(transient or persistent I/O error).
  double corruption_rate = 0.0;  // P(delivered bytes are corrupted).
  // Within an I/O error, probability it is persistent (retries also fail).
  double persistent_fraction = 0.25;
  // Within a corruption, probability of a header clobber (vs. bit flips).
  double header_fraction = 0.5;
  // First `warmup_reads` misses are never faulted, so data/index loading
  // succeeds and faults land on query execution.
  uint64_t warmup_reads = 0;
};

class FaultInjector {
 public:
  FaultInjector(uint64_t seed, const FaultConfig& config)
      : rng_(seed ^ 0x5f4ef2d1c3b8a697ull), config_(config) {}

  /// Armed injectors fault reads; disarmed ones are pass-through. Disarming
  /// does not reset the deterministic stream.
  void Arm() { armed_ = true; }
  void Disarm() { armed_ = false; }
  bool armed() const { return armed_; }

  /// Draws the fault decision for the next simulated disk read of `id`.
  /// Advances the deterministic stream only when armed.
  FaultKind NextReadFault(PageId id);

  /// Whether a retry of a transient I/O error also fails (bounded coin).
  bool RetryFails();

  /// Applies `kind` (a corruption kind) to `shadow`, a copy of the stored
  /// page. kCorruptHeader overwrites the first bytes with 0xFF — a pattern
  /// provably rejected by both SlottedPage header validation and the B-tree
  /// node check. kCorruptBits flips 1-8 random bits anywhere in the page.
  void Corrupt(FaultKind kind, Page* shadow);

  uint64_t reads_seen() const { return reads_seen_; }
  uint64_t faults_injected() const { return faults_injected_; }

 private:
  Rng rng_;
  FaultConfig config_;
  bool armed_ = false;
  uint64_t reads_seen_ = 0;
  uint64_t faults_injected_ = 0;
};

}  // namespace systemr

#endif  // SYSTEMR_RSS_FAULT_INJECTOR_H_
