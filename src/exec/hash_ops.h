// Hash-based join and grouping operators — the unordered counterparts of the
// merge join and sorted-group aggregation. Both follow the classic
// build/probe shape: materialize one input into an in-memory hash table,
// then stream the other side against it batch at a time.
//
// Hash keys: Value has no std::hash specialization (and the memcomparable
// EncodeKey is unsuitable — Int(1) and Real(1.0) compare equal but encode
// differently), so buckets are keyed by a numeric-coercing hash code and
// verified with Value::Compare, which already defines cross-type equality.
//
// Parallel fragments: a hash join inside a morsel-driven fragment probes a
// HashJoinTable built ONCE, serially, by the exchange operator (the build
// child is then null); the table is read-only during the probe, so every
// worker shares it without locking. Hash aggregation parallelizes by
// per-worker GroupTables merged at the exchange barrier.
#ifndef SYSTEMR_EXEC_HASH_OPS_H_
#define SYSTEMR_EXEC_HASH_OPS_H_

#include <memory>
#include <unordered_map>

#include "exec/agg_common.h"
#include "exec/operators.h"
#include "exec/parallel/shared_state.h"

namespace systemr {

/// Hash code consistent with Value::Compare equality: numerics hash their
/// numeric value (so Int(1) and Real(1.0) collide), strings their bytes.
size_t HashValue(const Value& v);

/// Drains `build` and fills `table` with its rows' inner slices, keyed on
/// the block-row offset `build_offset`. NULL keys are dropped (they never
/// join). Shared by HashJoinOp's private build and the exchange operator's
/// serial pre-build of fragment-shared tables.
Status FillHashJoinTable(ExecContext* ctx, Operator* build,
                         size_t build_offset, size_t inner_offset,
                         size_t inner_width, HashJoinTable* table);

/// Equi join via build/probe hash table (PlanKind::kHashJoin). The right
/// child (the build side, read exactly once) is materialized into a table
/// keyed on its join column; the left child (the probe side) streams batches
/// whose rows look up their matches. NULL join keys never match, on either
/// side. Output order is arbitrary — the optimizer gives hash solutions no
/// interesting order.
class HashJoinOp : public Operator {
 public:
  /// `build` may be null when the context carries a pre-built shared table
  /// for this node (parallel fragment workers).
  HashJoinOp(ExecContext* ctx, const BoundQueryBlock* block,
             const PlanNode* node, std::unique_ptr<Operator> outer,
             std::unique_ptr<Operator> build);

  Status Open() override;
  Status Rebind(const Row* outer) override;
  Status NextBatch(RowBatch* out, bool* has_batch) override;
  void Close() override {
    outer_->Close();
    if (build_ != nullptr) build_->Close();
  }

 private:
  /// Drains the build child into own_table_ (or adopts the shared table).
  Status BuildTable();
  void ResetProbeState();

  ExecContext* ctx_;
  const BoundQueryBlock* block_;
  const PlanNode* node_;
  std::unique_ptr<Operator> outer_;
  std::unique_ptr<Operator> build_;
  ExprProgram residual_;

  size_t probe_offset_ = 0;  // Block-row offset of the outer join column.
  size_t build_offset_ = 0;  // Block-row offset of the inner join column.
  size_t inner_offset_ = 0;  // Inner table's slot range in the block row.
  size_t inner_width_ = 0;

  HashJoinTable own_table_;
  const HashJoinTable* table_ = nullptr;  // own_table_ or the shared table.

  // Probe state, persisted across NextBatch calls mid-outer-batch.
  RowBatch outer_batch_;
  size_t sel_pos_ = 0;  // Position in outer_batch_.sel.
  const std::vector<uint32_t>* matches_ = nullptr;  // Current row's bucket.
  size_t match_pos_ = 0;
  bool outer_done_ = false;
};

/// Hash-grouped aggregation state: groups in first-seen order plus the
/// key-hash index, with the compiled aggregate functions of the owning
/// node. Extracted from HashGroupByOp so parallel partial aggregation can
/// keep one table per worker and merge them at the exchange barrier.
class GroupTable {
 public:
  struct Group {
    Row rep;  // First row seen for the group (grouping columns live here).
    std::vector<AggState> states;
  };

  /// Binds to an aggregation node and clears all groups; the aggregate
  /// functions are recompiled only when the node changes.
  void Reset(const PlanNode* node);

  /// Folds one input row into its group (creating the group on first sight).
  Status Accept(ExecContext* ctx, const Row& row);

  /// Moves every group of `other` into this table: states of key-equal
  /// groups merge (AggState::Merge); new keys append in arrival order.
  void MergeFrom(GroupTable* other);

  /// Scalar aggregate over an empty input still yields one row (COUNT = 0,
  /// others NULL); creates that group when no grouping keys exist and no
  /// input row arrived.
  void EnsureScalarGroup(size_t row_width);

  const std::vector<Group>& groups() const { return groups_; }
  AggFunctionSet& funcs() { return funcs_; }

 private:
  size_t HashGroupKey(const Row& row) const;
  bool SameGroup(const Row& a, const Row& b) const;

  const PlanNode* node_ = nullptr;
  AggFunctionSet funcs_;
  std::vector<Group> groups_;  // First-seen order.
  std::unordered_map<size_t, std::vector<uint32_t>> index_;
};

/// Grouped aggregation over unordered input (PlanKind::kHashAggregate):
/// consumes the whole child on Open, accumulating one AggState vector per
/// distinct grouping-key combination, then emits groups in first-seen order
/// (deterministic for the differential harness) applying HAVING.
class HashGroupByOp : public Operator {
 public:
  HashGroupByOp(ExecContext* ctx, const BoundQueryBlock* block,
                const PlanNode* node, std::unique_ptr<Operator> child);

  Status Open() override;
  Status Rebind(const Row* outer) override;
  Status NextBatch(RowBatch* out, bool* has_batch) override;
  void Close() override { child_->Close(); }

 private:
  /// Drains the child into table_.
  Status BuildGroups();

  ExecContext* ctx_;
  const BoundQueryBlock* block_;
  const PlanNode* node_;
  std::unique_ptr<Operator> child_;
  GroupTable table_;
  RowBatch in_batch_;
  size_t emit_idx_ = 0;
};

}  // namespace systemr

#endif  // SYSTEMR_EXEC_HASH_OPS_H_
