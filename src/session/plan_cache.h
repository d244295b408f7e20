// PlanCache: the shared access-module library of §2. System R stored each
// statement's compiled access module in the database and reused it on every
// execution until a dependency (an index, the statistics) changed, then
// recompiled transparently. This cache reproduces that lifecycle in memory:
//
//   key          the statement's tokens rendered with canonical casing and
//                spacing (NormalizeSql below)
//   entry        the immutable OptimizedQuery, shared_ptr so executions
//                already running keep their plan alive across an eviction
//   validity     the catalog version at optimization time; a lookup under a
//                newer version drops the entry (counts an invalidation) and
//                forces re-optimization — the dependency-driven
//                recompilation of §2, with Catalog::version() standing in
//                for the per-object dependency list
//   replacement  LRU over a bounded entry count
//
// One cache serves every session of a Database (entries embed catalog
// pointers, so a cache must never be shared across databases). All methods
// are thread-safe behind one mutex; the work under the lock is pointer
// shuffling only — optimization itself always happens outside.
#ifndef SYSTEMR_SESSION_PLAN_CACHE_H_
#define SYSTEMR_SESSION_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "optimizer/optimizer.h"
#include "sql/token.h"

namespace systemr {

struct PlanCacheStats {
  uint64_t hits = 0;           // Lookups served from the cache.
  uint64_t misses = 0;         // Lookups that found nothing usable.
  uint64_t evictions = 0;      // Entries dropped by LRU replacement.
  uint64_t invalidations = 0;  // Entries dropped on a catalog-version change.
};

/// Renders lexed tokens as the cache key: canonical casing and one space
/// between tokens, so "select * from T" and "SELECT  *  FROM t" share one
/// entry. Literals render exactly — ints as decimal, reals as their shortest
/// round-trip form with a point or exponent, strings with every quote
/// doubled — so two statements share a key only if they lex to the same
/// tokens (DESIGN.md §5).
std::string NormalizeSql(const std::vector<Token>& tokens);

/// Lex plus the renderer above. Text that does not lex is returned
/// unchanged (it will miss and fail in the parser with a real error).
std::string NormalizeSql(const std::string& sql);

class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 64) : capacity_(capacity) {}
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan for `key` if present and compiled at
  /// `current_version`; null otherwise. A version mismatch removes the stale
  /// entry. Counts a hit or a miss either way.
  std::shared_ptr<const OptimizedQuery> Lookup(const std::string& key,
                                               uint64_t current_version);

  /// Stores `plan` (compiled at `version`) under `key`, becoming the MRU
  /// entry; evicts the LRU entry when over capacity.
  void Insert(const std::string& key, uint64_t version,
              std::shared_ptr<const OptimizedQuery> plan);

  /// Drops the entry under `key`, if any (used when execution feedback finds
  /// the cached plan's estimates badly diverged). Running executions keep
  /// their shared_ptr; future lookups re-optimize.
  void Remove(const std::string& key);

  void Clear();
  size_t size() const;
  size_t capacity() const { return capacity_; }
  PlanCacheStats stats() const;
  void ResetStats();

 private:
  struct Entry {
    std::shared_ptr<const OptimizedQuery> plan;
    uint64_t version = 0;
    std::list<std::string>::iterator lru_it;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  PlanCacheStats stats_;
  std::list<std::string> lru_;  // MRU at front.
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace systemr

#endif  // SYSTEMR_SESSION_PLAN_CACHE_H_
