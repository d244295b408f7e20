#include "exec/exec_context.h"

#include <functional>

// For the Operator definition: the cached subquery operator trees are
// destroyed here (the header only forward-declares Operator).
#include "exec/operators.h"
#include "exec/parallel/shared_state.h"

namespace systemr {

ExecContext::ExecContext(Rss* rss, const Catalog* catalog,
                         const SubplanMap* subplans, double w)
    : rss_(rss), catalog_(catalog), subplans_(subplans), w_(w) {}

ExecContext::~ExecContext() { ReleaseTempPages(); }

const PlanRef* ExecContext::SubplanFor(const BoundQueryBlock* block) const {
  if (subplans_ == nullptr) return nullptr;
  auto it = subplans_->find(block);
  return it == subplans_->end() ? nullptr : &it->second;
}

ExecContext::SubqueryState& ExecContext::SubqueryStateFor(
    const BoundQueryBlock* block) {
  auto [it, inserted] = subqueries_.try_emplace(block);
  if (!inserted) return it->second;

  std::vector<std::pair<int, size_t>>& refs = it->second.outer_refs;
  std::function<void(const BoundExpr&, int)> walk = [&](const BoundExpr& e,
                                                        int depth) {
    if (e.kind == BoundExprKind::kColumn && e.outer_level > depth) {
      refs.emplace_back(e.outer_level - depth, e.offset);
    }
    for (const auto& c : e.children) walk(*c, depth);
    if (e.subquery != nullptr) {
      for (const auto& item : e.subquery->select_list) walk(*item, depth + 1);
      if (e.subquery->where != nullptr) walk(*e.subquery->where, depth + 1);
      if (e.subquery->having != nullptr) walk(*e.subquery->having, depth + 1);
    }
  };
  for (const auto& item : block->select_list) walk(*item, 0);
  if (block->where != nullptr) walk(*block->where, 0);
  if (block->having != nullptr) walk(*block->having, 0);
  return it->second;
}

void ExecContext::ConfigureParallelWorker(
    SharedFragmentState* shared, MorselDispenser* morsels,
    const PlanNode* morsel_node,
    const std::map<const PlanNode*, HashJoinTable>* shared_builds,
    const ExecLimits& limits) {
  shared_fragment_ = shared;
  morsel_source_ = morsels;
  morsel_node_ = morsel_node;
  shared_builds_ = shared_builds;
  limits_ = limits;
  // Workers are always interruptible: even an unlimited statement needs the
  // abort flag observed so a sibling's failure stops the whole fragment.
  interruptible_ = true;
  shared_published_gets_ = stats_.buffer_gets;
}

const HashJoinTable* ExecContext::SharedBuildFor(const PlanNode* node) const {
  if (shared_builds_ == nullptr) return nullptr;
  auto it = shared_builds_->find(node);
  return it == shared_builds_->end() ? nullptr : &it->second;
}

Status ExecContext::CheckInterruptsSlow() {
  if (shared_fragment_ != nullptr) {
    // Publish this worker's buffer gets so every sibling's budget check sees
    // the fragment's total work, then observe the shared abort flag.
    uint64_t now = stats_.buffer_gets;
    if (now != shared_published_gets_) {
      shared_fragment_->gets.fetch_add(now - shared_published_gets_,
                                       std::memory_order_relaxed);
      shared_published_gets_ = now;
    }
    if (shared_fragment_->abort.load(std::memory_order_acquire)) {
      return Status::Cancelled("parallel fragment aborted");
    }
  }
  if (limits_.cancel != nullptr &&
      limits_.cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("statement cancelled");
  }
  if (limits_.max_buffer_gets > 0) {
    uint64_t used = shared_fragment_ != nullptr
                        ? shared_fragment_->gets.load(std::memory_order_relaxed)
                        : stats_.buffer_gets;
    if (used > limits_.max_buffer_gets) {
      return Status::ResourceExhausted(
          "statement page-access budget exceeded (" +
          std::to_string(limits_.max_buffer_gets) + " buffer gets)");
    }
  }
  if (limits_.has_deadline &&
      std::chrono::steady_clock::now() >= limits_.deadline) {
    return Status::Cancelled("statement deadline exceeded");
  }
  return Status::OK();
}

Status ExecContext::CheckRowLimit(uint64_t rows_produced) const {
  if (limits_.max_rows > 0 && rows_produced > limits_.max_rows) {
    return Status::ResourceExhausted("statement row limit exceeded (" +
                                     std::to_string(limits_.max_rows) +
                                     " rows)");
  }
  return Status::OK();
}

PageId ExecContext::NewTempPage() {
  PageId pid = rss_->pool().NewPage();
  temp_pages_.push_back(pid);
  return pid;
}

void ExecContext::ReleaseTempPages() {
  for (PageId pid : temp_pages_) {
    rss_->pool().Discard(pid);
  }
  temp_pages_.clear();
}

}  // namespace systemr
