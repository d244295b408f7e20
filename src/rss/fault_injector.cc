#include "rss/fault_injector.h"

namespace systemr {

FaultKind FaultInjector::NextReadFault(PageId id) {
  (void)id;
  if (!armed_) return FaultKind::kNone;
  ++reads_seen_;
  if (reads_seen_ <= config_.warmup_reads) return FaultKind::kNone;
  // One draw decides the class, further draws refine it; the stream position
  // depends only on the sequence of armed misses, keeping schedules
  // reproducible for a given (seed, config).
  double roll = rng_.NextDouble();
  if (roll < config_.io_error_rate) {
    ++faults_injected_;
    return rng_.Bernoulli(config_.persistent_fraction)
               ? FaultKind::kIoPersistent
               : FaultKind::kIoTransient;
  }
  if (roll < config_.io_error_rate + config_.corruption_rate) {
    ++faults_injected_;
    return rng_.Bernoulli(config_.header_fraction) ? FaultKind::kCorruptHeader
                                                   : FaultKind::kCorruptBits;
  }
  return FaultKind::kNone;
}

bool FaultInjector::RetryFails() {
  // Transient errors clear quickly: each retry independently fails with a
  // small probability, so a bounded retry loop almost always recovers.
  return rng_.Bernoulli(0.3);
}

void FaultInjector::Corrupt(FaultKind kind, Page* shadow) {
  if (kind == FaultKind::kCorruptHeader) {
    // 0xFF across the first 7 bytes is guaranteed detectable:
    //  - SlottedPage: slot_count = 0xFFFF fails ValidateHeader
    //    (directory would exceed the page);
    //  - B-tree node: is_leaf byte 0xFF is neither 0 nor 1, rejected by
    //    the node check the pool runs on the read, before any entry is
    //    touched.
    for (size_t i = 0; i < 7; ++i) shadow->bytes[i] = static_cast<char>(0xff);
    return;
  }
  // Bit flips: may or may not be structurally detectable on their own, but
  // the page checksum always catches them.
  int flips = static_cast<int>(rng_.Uniform(1, 8));
  for (int i = 0; i < flips; ++i) {
    size_t byte = static_cast<size_t>(rng_.Uniform(0, kPageSize - 1));
    int bit = static_cast<int>(rng_.Uniform(0, 7));
    shadow->bytes[byte] = static_cast<char>(
        static_cast<uint8_t>(shadow->bytes[byte]) ^ (1u << bit));
  }
}

}  // namespace systemr
