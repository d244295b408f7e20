#include "exec/parallel/exchange.h"

#include <algorithm>
#include <functional>
#include <map>

#include "exec/parallel/morsel.h"
#include "exec/parallel/shared_state.h"
#include "exec/parallel/worker_pool.h"

namespace systemr {

namespace {

/// Hash-join nodes on the fragment's probe spine, outermost first. Their
/// build sides run serially before the workers start.
void CollectHashJoins(const PlanNode* n, std::vector<const PlanNode*>* out) {
  while (n != nullptr) {
    if (n->kind == PlanKind::kHashJoin) out->push_back(n);
    if (n->kind != PlanKind::kHashJoin &&
        n->kind != PlanKind::kNestedLoopJoin) {
      break;
    }
    n = n->left.get();
  }
}

/// Everything one fragment worker owns: a private context (its own meter,
/// batch counters, scan observations, subquery state) plus its output.
struct WorkerState {
  WorkerState(Rss* rss, const Catalog* catalog, const SubplanMap* subplans,
              double w)
      : ctx(rss, catalog, subplans, w) {}
  ExecContext ctx;
  Status status;
  std::vector<Row> rows;   // Gather mode.
  GroupTable groups;       // Partial-aggregation mode.
};

}  // namespace

Status ExchangeOp::RunFragment() {
  rows_.clear();
  emit_pos_ = 0;

  // 1. Serial pre-build: one shared read-only table per hash join on the
  // spine, built with the PARENT context so its metering, interrupt checks,
  // and scan observations happen exactly once.
  std::vector<const PlanNode*> hash_joins;
  CollectHashJoins(node_->left.get(), &hash_joins);
  std::map<const PlanNode*, HashJoinTable> shared_builds;
  for (const PlanNode* hj : hash_joins) {
    std::unique_ptr<Operator> build =
        BuildOperator(ctx_, block_, hj->right.get(), nullptr);
    if (build == nullptr) return Status::Internal("unbuildable build side");
    RETURN_IF_ERROR(build->Open());
    Status st = FillHashJoinTable(ctx_, build.get(), hj->merge_inner_offset,
                                  hj->inner_offset, hj->inner_width,
                                  &shared_builds[hj]);
    build->Close();
    RETURN_IF_ERROR(st);
  }

  // 2. Morsel dispenser over the driving table's segment, at its CURRENT
  // page count (the optimizer's dop decision used estimates; execution uses
  // the real size).
  const PlanNode* driving = node_->driving_scan;
  if (driving == nullptr || driving->scan.table == nullptr) {
    return Status::Internal("exchange without a driving scan");
  }
  size_t pages =
      ctx_->rss()->segment(driving->scan.table->segment)->pages().size();
  MorselDispenser dispenser(pages);
  // A worker holds at most one morsel at a time, so extra workers beyond the
  // morsel count would only idle.
  size_t morsels = std::max<size_t>(1, dispenser.num_morsels());
  int dop = node_->dop < 1 ? 1 : node_->dop;
  if (static_cast<size_t>(dop) > morsels) dop = static_cast<int>(morsels);

  // 3. Fan out: one private context + operator tree per worker. All workers
  // share the dispenser, the abort/budget state, and the build tables.
  SharedFragmentState shared;
  ExecLimits worker_limits = ctx_->LimitsForWorker();
  std::vector<std::unique_ptr<WorkerState>> workers;
  workers.reserve(static_cast<size_t>(dop));
  for (int i = 0; i < dop; ++i) {
    auto ws = std::make_unique<WorkerState>(ctx_->rss(), ctx_->catalog(),
                                            ctx_->subplans(), ctx_->w());
    ws->ctx.set_params(ctx_->params());
    ws->ctx.ConfigureParallelWorker(&shared, &dispenser, driving,
                                    &shared_builds, worker_limits);
    workers.push_back(std::move(ws));
  }

  bool partial_agg = node_->exchange_partial_agg;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(workers.size());
  for (auto& w : workers) {
    WorkerState* ws = w.get();
    tasks.push_back([this, ws, partial_agg, &shared]() {
      // Divert this thread's storage counts to the worker's private block;
      // restored on scope exit (the caller thread runs one task inline
      // inside the statement's own MeterScope).
      MeterScope scope(&ws->ctx.stats());
      auto run = [&]() -> Status {
        std::unique_ptr<Operator> op =
            BuildOperator(&ws->ctx, block_, node_->left.get(), nullptr);
        if (op == nullptr) return Status::Internal("unbuildable fragment");
        if (partial_agg) ws->groups.Reset(node_);
        RETURN_IF_ERROR(op->Open());
        RowBatch batch;
        while (true) {
          bool has = false;
          Status st = op->NextBatch(&batch, &has);
          if (!st.ok()) {
            op->Close();
            return st;
          }
          if (!has) break;
          for (uint32_t idx : batch.sel) {
            if (partial_agg) {
              Status ast = ws->groups.Accept(&ws->ctx, batch.rows[idx]);
              if (!ast.ok()) {
                op->Close();
                return ast;
              }
            } else {
              ws->rows.push_back(std::move(batch.rows[idx]));
            }
          }
        }
        op->Close();
        return Status::OK();
      };
      ws->status = run();
      if (!ws->status.ok()) shared.RecordError(ws->status);
    });
  }
  if (WorkerPool* pool = ctx_->worker_pool()) {
    pool->RunAll(std::move(tasks));
  } else {
    for (auto& t : tasks) t();
  }

  // 4. Barrier merge — unconditionally, so the statement's stats cover the
  // partial work of an aborted fragment too.
  ExecStats& stats = ctx_->stats();
  stats.parallel_workers += workers.size();
  bool all_ok = true;
  for (auto& w : workers) {
    stats += w->ctx.stats();
    all_ok = all_ok && w->status.ok();
    for (const auto& [snode, obs] : w->ctx.scan_observations()) {
      ExecContext::ScanObservation& into = ctx_->scan_observations()[snode];
      into.rows += obs.rows;
      into.exhausted = into.exhausted || obs.exhausted;
    }
  }
  // The driving scan's row total is a complete selectivity observation only
  // when the morsel union covered the whole segment: every worker finished
  // cleanly and drained its share of the dispenser.
  bool driving_exhausted = all_ok;
  for (auto& w : workers) {
    auto dit = w->ctx.scan_observations().find(driving);
    if (dit == w->ctx.scan_observations().end() || !dit->second.exhausted) {
      driving_exhausted = false;
    }
  }
  auto it = ctx_->scan_observations().find(driving);
  if (it != ctx_->scan_observations().end()) {
    it->second.exhausted = driving_exhausted;
  }
  if (!all_ok) {
    Status first = shared.first_error();
    return first.ok() ? Status::Internal("parallel worker failed") : first;
  }

  // 5. Emit: concatenate worker outputs in worker order (within-worker
  // order is morsel-arrival order — callers treat the stream as unordered).
  if (partial_agg) {
    GroupTable merged;
    merged.Reset(node_);
    for (auto& w : workers) merged.MergeFrom(&w->groups);
    merged.EnsureScalarGroup(block_->row_width);
    for (const GroupTable::Group& g : merged.groups()) {
      ASSIGN_OR_RETURN(bool keep,
                       merged.funcs().FinishGroup(ctx_, g.rep, g.states));
      if (!keep) continue;
      Row out;
      RETURN_IF_ERROR(merged.funcs().EmitSelect(ctx_, g.rep, &out));
      rows_.push_back(std::move(out));
    }
  } else {
    size_t total = 0;
    for (auto& w : workers) total += w->rows.size();
    rows_.reserve(total);
    for (auto& w : workers) {
      for (Row& r : w->rows) rows_.push_back(std::move(r));
      w->rows.clear();
    }
  }
  return Status::OK();
}

Status ExchangeOp::Open() { return RunFragment(); }

Status ExchangeOp::NextBatch(RowBatch* out, bool* has_batch) {
  out->Clear();
  while (out->filled < out->capacity && emit_pos_ < rows_.size()) {
    out->Append() = std::move(rows_[emit_pos_++]);
  }
  out->SelectAll();
  *has_batch = out->filled > 0;
  return Status::OK();
}

}  // namespace systemr
