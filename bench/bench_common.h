// Shared helpers for the reproduction benches: planner harness construction
// (the enumerator over one block's PlannerContext, so benches can inspect the
// search tree), plan execution with buffer flushing, and table printing.
#ifndef SYSTEMR_BENCH_BENCH_COMMON_H_
#define SYSTEMR_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "exec/executor.h"
#include "optimizer/explain.h"
#include "optimizer/join_enumerator.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace systemr {
namespace bench {

/// Planner state for one query, with the enumerator exposed. The context is
/// built from the database's options, so the search is the optimizer's own.
struct Harness {
  std::unique_ptr<BoundQueryBlock> block;
  std::unique_ptr<PlannerContext> ctx;
  std::unique_ptr<JoinEnumerator> enumerator;

  static std::unique_ptr<Harness> Make(Database* db, const std::string& sql,
                                       JoinEnumerator::Options options = {},
                                       bool run = true) {
    auto h = std::make_unique<Harness>();
    auto stmt = Parse(sql);
    if (!stmt.ok()) {
      std::fprintf(stderr, "parse error: %s\n",
                   stmt.status().ToString().c_str());
      std::abort();
    }
    Binder binder(&db->catalog());
    auto block = binder.Bind(*stmt->select);
    if (!block.ok()) {
      std::fprintf(stderr, "bind error: %s\n",
                   block.status().ToString().c_str());
      std::abort();
    }
    h->block = std::move(*block);
    const OptimizerOptions& opts = db->options();
    h->ctx = std::make_unique<PlannerContext>(&db->catalog(), *h->block,
                                              opts.cost, opts.use_column_stats,
                                              opts.feedback);
    h->enumerator = std::make_unique<JoinEnumerator>(*h->ctx, options);
    if (run) {
      Status st = h->enumerator->Run();
      if (!st.ok()) {
        std::fprintf(stderr, "enumerate error: %s\n", st.ToString().c_str());
        std::abort();
      }
    }
    return h;
  }
};

/// Executes a complete plan (cold buffer pool) and returns metered stats.
inline ExecResult ExecuteCold(Database* db, const BoundQueryBlock& block,
                              const PlanRef& plan,
                              const SubplanMap* subplans = nullptr) {
  db->rss().pool().FlushAll();
  static const SubplanMap kEmpty;
  ExecContext ctx(&db->rss(), &db->catalog(),
                  subplans != nullptr ? subplans : &kEmpty,
                  db->options().cost.w);
  auto result = ExecutePlan(&ctx, block, plan);
  if (!result.ok()) {
    std::fprintf(stderr, "execute error: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(*result);
}

inline void Die(const Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "fatal: %s\n", st.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T Unwrap(StatusOr<T> v) {
  if (!v.ok()) {
    std::fprintf(stderr, "fatal: %s\n", v.status().ToString().c_str());
    std::abort();
  }
  return std::move(v).value();
}

inline void Header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace bench
}  // namespace systemr

#endif  // SYSTEMR_BENCH_BENCH_COMMON_H_
