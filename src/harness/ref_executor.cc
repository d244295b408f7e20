#include "harness/ref_executor.h"

#include <algorithm>
#include <set>

#include "rss/segment.h"

namespace systemr {

namespace {

Value BoolValue(bool b) { return Value::Int(b ? 1 : 0); }

// Comparison with SQL NULL semantics: any comparison against NULL is false.
// Value::Compare (shared with the engine by design) supplies the ordering.
bool RefCompare(CompareOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return false;
  int c = a.Compare(b);
  switch (op) {
    case CompareOp::kEq: return c == 0;
    case CompareOp::kNe: return c != 0;
    case CompareOp::kLt: return c < 0;
    case CompareOp::kLe: return c <= 0;
    case CompareOp::kGt: return c > 0;
    case CompareOp::kGe: return c >= 0;
  }
  return false;
}

StatusOr<Value> RefArith(char op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!IsArithmetic(a.type()) || !IsArithmetic(b.type())) {
    return Status::InvalidArgument("arithmetic on non-numeric value");
  }
  if (op == '/') {
    double denom = b.AsNumber();
    if (denom == 0) return Value::Null();
    return Value::Real(a.AsNumber() / denom);
  }
  if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64) {
    int64_t x = a.AsInt(), y = b.AsInt(), r = 0;
    bool overflow = false;
    switch (op) {
      case '+': overflow = __builtin_add_overflow(x, y, &r); break;
      case '-': overflow = __builtin_sub_overflow(x, y, &r); break;
      case '*': overflow = __builtin_mul_overflow(x, y, &r); break;
      default: return Status::Internal("unknown arithmetic operator");
    }
    if (overflow) return Status::InvalidArgument("integer overflow");
    return Value::Int(r);
  }
  double x = a.AsNumber(), y = b.AsNumber();
  switch (op) {
    case '+': return Value::Real(x + y);
    case '-': return Value::Real(x - y);
    case '*': return Value::Real(x * y);
  }
  return Status::Internal("unknown arithmetic operator");
}

bool RefLikeMatch(const std::string& s, const std::string& pattern, size_t si,
                  size_t pi) {
  while (pi < pattern.size()) {
    char pc = pattern[pi];
    if (pc == '%') {
      while (pi < pattern.size() && pattern[pi] == '%') ++pi;
      if (pi == pattern.size()) return true;
      for (size_t k = si; k <= s.size(); ++k) {
        if (RefLikeMatch(s, pattern, k, pi)) return true;
      }
      return false;
    }
    if (si >= s.size()) return false;
    if (pc != '_' && pc != s[si]) return false;
    ++si;
    ++pi;
  }
  return si == s.size();
}

// Splits a WHERE tree into its top-level conjuncts.
void FlattenConjuncts(const BoundExpr* e, std::vector<const BoundExpr*>* out) {
  if (e == nullptr) return;
  if (e->kind == BoundExprKind::kAnd) {
    for (const auto& c : e->children) FlattenConjuncts(c.get(), out);
    return;
  }
  out->push_back(e);
}

// Highest FROM-slot index of the conjunct's block that `e` references, or -1
// if it references none (constants, pure outer references). `depth` tracks
// how many subquery blocks we have descended into: a column at outer_level ==
// depth belongs to the conjunct's own block.
int MaxLocalTable(const BoundExpr& e, int depth) {
  int max_idx = -1;
  if (e.kind == BoundExprKind::kColumn && e.outer_level == depth) {
    max_idx = e.table_idx;
  }
  for (const auto& c : e.children) {
    max_idx = std::max(max_idx, MaxLocalTable(*c, depth));
  }
  if (e.subquery != nullptr) {
    const BoundQueryBlock& sub = *e.subquery;
    for (const auto& item : sub.select_list) {
      max_idx = std::max(max_idx, MaxLocalTable(*item, depth + 1));
    }
    if (sub.where != nullptr) {
      max_idx = std::max(max_idx, MaxLocalTable(*sub.where, depth + 1));
    }
    if (sub.having != nullptr) {
      max_idx = std::max(max_idx, MaxLocalTable(*sub.having, depth + 1));
    }
  }
  return max_idx;
}

void CollectAggregates(const BoundExpr& e,
                       std::vector<const BoundExpr*>* out) {
  if (e.kind == BoundExprKind::kAggregate) {
    out->push_back(&e);
    return;
  }
  for (const auto& c : e.children) CollectAggregates(*c, out);
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

bool RowEq(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

}  // namespace

Status RefExecutor::LoadTable(RelId relid, const std::vector<Row>** rows) {
  auto it = table_cache_.find(relid);
  if (it != table_cache_.end()) {
    *rows = &it->second;
    return Status::OK();
  }
  auto pages_it = rel_pages_.find(relid);
  if (pages_it == rel_pages_.end()) {
    return Status::NotFound("reference executor: unknown relation id " +
                            std::to_string(relid));
  }
  std::vector<Row> loaded;
  for (PageId pid : pages_it->second) {
    // Read-only access; SlottedPage has no const view, so cast the page.
    SlottedPage sp(const_cast<Page*>(store_->Get(pid)));
    for (uint16_t slot = 0; slot < sp.slot_count(); ++slot) {
      std::string_view record;
      if (!sp.Read(slot, &record)) continue;  // Tombstoned / empty slot.
      RelId rel;
      Row row;
      if (!DecodeTuple(record, &rel, &row)) {
        return Status::Internal("reference executor: corrupt tuple record");
      }
      if (rel != relid) continue;  // Shared segment: other relation's tuple.
      loaded.push_back(std::move(row));
    }
  }
  auto [pos, inserted] = table_cache_.emplace(relid, std::move(loaded));
  (void)inserted;
  *rows = &pos->second;
  return Status::OK();
}

StatusOr<RefTableStats> RefExecutor::TableStats(RelId relid,
                                                size_t num_columns) {
  auto pages_it = rel_pages_.find(relid);
  if (pages_it == rel_pages_.end()) {
    return Status::NotFound("reference executor: unknown relation id " +
                            std::to_string(relid));
  }
  RefTableStats stats;
  stats.columns.resize(num_columns);
  auto value_less = [](const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  };
  std::vector<std::set<Value, decltype(value_less)>> distinct(
      num_columns, std::set<Value, decltype(value_less)>(value_less));
  for (PageId pid : pages_it->second) {
    SlottedPage sp(const_cast<Page*>(store_->Get(pid)));
    bool page_has_tuple = false;
    for (uint16_t slot = 0; slot < sp.slot_count(); ++slot) {
      std::string_view record;
      if (!sp.Read(slot, &record)) continue;
      RelId rel;
      Row row;
      if (!DecodeTuple(record, &rel, &row)) {
        return Status::Internal("reference executor: corrupt tuple record");
      }
      if (rel != relid) continue;
      page_has_tuple = true;
      ++stats.rows;
      for (size_t c = 0; c < num_columns && c < row.size(); ++c) {
        const Value& v = row[c];
        if (v.is_null()) continue;
        distinct[c].insert(v);
        RefColumnStats& cs = stats.columns[c];
        if (cs.low.is_null() || v.Compare(cs.low) < 0) cs.low = v;
        if (cs.high.is_null() || v.Compare(cs.high) > 0) cs.high = v;
      }
    }
    if (page_has_tuple) ++stats.pages;
  }
  for (size_t c = 0; c < num_columns; ++c) {
    stats.columns[c].distinct = distinct[c].size();
  }
  return stats;
}

StatusOr<Value> RefExecutor::Eval(const BoundExpr& e, const Row& row) {
  switch (e.kind) {
    case BoundExprKind::kColumn:
      if (e.outer_level == 0) {
        if (e.offset >= row.size()) {
          return Status::Internal("reference executor: offset out of range");
        }
        return row[e.offset];
      }
      if (e.outer_level > static_cast<int>(ancestors_.size())) {
        return Status::Internal("reference executor: outer level underflow");
      }
      return (*ancestors_[ancestors_.size() - e.outer_level])[e.offset];
    case BoundExprKind::kLiteral:
      return e.literal;
    case BoundExprKind::kParameter:
      if (params_ == nullptr || e.param_idx < 0 ||
          static_cast<size_t>(e.param_idx) >= params_->size()) {
        return Status::InvalidArgument(
            "parameter ?" + std::to_string(e.param_idx + 1) + " is not bound");
      }
      return (*params_)[e.param_idx];
    case BoundExprKind::kCompare: {
      ASSIGN_OR_RETURN(Value lhs, Eval(*e.children[0], row));
      ASSIGN_OR_RETURN(Value rhs, Eval(*e.children[1], row));
      return BoolValue(RefCompare(e.op, lhs, rhs));
    }
    case BoundExprKind::kAnd: {
      ASSIGN_OR_RETURN(Value a, Eval(*e.children[0], row));
      if (a.is_null() || a.AsInt() == 0) return BoolValue(false);
      ASSIGN_OR_RETURN(Value b, Eval(*e.children[1], row));
      return BoolValue(!b.is_null() && b.AsInt() != 0);
    }
    case BoundExprKind::kOr: {
      ASSIGN_OR_RETURN(Value a, Eval(*e.children[0], row));
      if (!a.is_null() && a.AsInt() != 0) return BoolValue(true);
      ASSIGN_OR_RETURN(Value b, Eval(*e.children[1], row));
      return BoolValue(!b.is_null() && b.AsInt() != 0);
    }
    case BoundExprKind::kNot: {
      ASSIGN_OR_RETURN(Value a, Eval(*e.children[0], row));
      return BoolValue(a.is_null() || a.AsInt() == 0);
    }
    case BoundExprKind::kArith: {
      ASSIGN_OR_RETURN(Value a, Eval(*e.children[0], row));
      ASSIGN_OR_RETURN(Value b, Eval(*e.children[1], row));
      return RefArith(e.arith_op, a, b);
    }
    case BoundExprKind::kBetween: {
      ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], row));
      ASSIGN_OR_RETURN(Value lo, Eval(*e.children[1], row));
      ASSIGN_OR_RETURN(Value hi, Eval(*e.children[2], row));
      return BoolValue(RefCompare(CompareOp::kGe, v, lo) &&
                       RefCompare(CompareOp::kLe, v, hi));
    }
    case BoundExprKind::kInList: {
      ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], row));
      for (size_t i = 1; i < e.children.size(); ++i) {
        ASSIGN_OR_RETURN(Value item, Eval(*e.children[i], row));
        if (RefCompare(CompareOp::kEq, v, item)) return BoolValue(true);
      }
      return BoolValue(false);
    }
    case BoundExprKind::kInSubquery: {
      ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], row));
      if (v.is_null()) return BoolValue(false);
      ancestors_.push_back(&row);
      auto sub = ExecuteBlock(*e.subquery);
      ancestors_.pop_back();
      if (!sub.ok()) return sub.status();
      for (const Row& r : *sub) {
        if (RefCompare(CompareOp::kEq, v, r[0])) return BoolValue(true);
      }
      return BoolValue(false);
    }
    case BoundExprKind::kSubquery: {
      ancestors_.push_back(&row);
      auto sub = ExecuteBlock(*e.subquery);
      ancestors_.pop_back();
      if (!sub.ok()) return sub.status();
      if (sub->size() > 1) {
        return Status::InvalidArgument(
            "scalar subquery returned more than one row");
      }
      return sub->empty() ? Value::Null() : (*sub)[0][0];
    }
    case BoundExprKind::kAggregate:
      // Resolved against the accumulators of the group being emitted.
      if (group_accs_ != nullptr) {
        for (const Accumulator& a : *group_accs_) {
          if (a.agg == &e) return a.Result();
        }
      }
      return Status::Internal(
          "aggregate evaluated outside an aggregation context");
    case BoundExprKind::kIsNull: {
      ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], row));
      return BoolValue(e.negated ? !v.is_null() : v.is_null());
    }
    case BoundExprKind::kLike: {
      ASSIGN_OR_RETURN(Value subject, Eval(*e.children[0], row));
      ASSIGN_OR_RETURN(Value pattern, Eval(*e.children[1], row));
      if (subject.is_null() || pattern.is_null()) return BoolValue(false);
      bool match = RefLikeMatch(subject.AsStr(), pattern.AsStr(), 0, 0);
      return BoolValue(e.negated ? !match : match);
    }
  }
  return Status::Internal("unhandled expression kind");
}

StatusOr<bool> RefExecutor::EvalPred(const BoundExpr& e, const Row& row) {
  ASSIGN_OR_RETURN(Value v, Eval(e, row));
  return !v.is_null() && v.AsInt() != 0;
}

Status RefExecutor::Accumulator::Accept(RefExecutor* self, const Row& row) {
  if (agg->children.empty()) {  // COUNT(*).
    ++count;
    return Status::OK();
  }
  ASSIGN_OR_RETURN(Value v, self->Eval(*agg->children[0], row));
  if (v.is_null()) return Status::OK();  // Aggregates ignore NULLs.
  ++count;
  if (IsArithmetic(v.type())) {
    if (v.type() == ValueType::kInt64 && int_sum) {
      isum += v.AsInt();
    } else {
      if (int_sum) {
        dsum = static_cast<double>(isum);
        int_sum = false;
      }
      dsum += v.AsNumber();
    }
  }
  if (min.is_null() || v.Compare(min) < 0) min = v;
  if (max.is_null() || v.Compare(max) > 0) max = v;
  return Status::OK();
}

StatusOr<Value> RefExecutor::Accumulator::Result() const {
  double total = int_sum ? static_cast<double>(isum) : dsum;
  switch (agg->agg) {
    case AggFunc::kCount:
      return Value::Int(static_cast<int64_t>(count));
    case AggFunc::kAvg:
      return count == 0 ? Value::Null() : Value::Real(total / count);
    case AggFunc::kSum:
      if (count == 0) return Value::Null();
      if (!int_sum) return Value::Real(dsum);
      if (isum < INT64_MIN || isum > INT64_MAX) {
        return Status::InvalidArgument("integer overflow");
      }
      return Value::Int(static_cast<int64_t>(isum));
    case AggFunc::kMin:
      return min;
    case AggFunc::kMax:
      return max;
  }
  return Value::Null();
}

StatusOr<std::vector<Row>> RefExecutor::Aggregate(const BoundQueryBlock& block,
                                                  std::vector<Row> input) {
  std::vector<size_t> group_offsets;
  for (const BoundOrderItem& g : block.group_by) {
    group_offsets.push_back(block.OffsetOf(g.table_idx, g.column));
  }
  std::stable_sort(input.begin(), input.end(),
                   [&](const Row& a, const Row& b) {
                     for (size_t off : group_offsets) {
                       int c = a[off].Compare(b[off]);
                       if (c != 0) return c < 0;
                     }
                     return false;
                   });

  std::vector<const BoundExpr*> agg_exprs;
  for (const auto& item : block.select_list) {
    CollectAggregates(*item, &agg_exprs);
  }
  if (block.having != nullptr) CollectAggregates(*block.having, &agg_exprs);

  auto same_group = [&](const Row& a, const Row& b) {
    for (size_t off : group_offsets) {
      if (a[off].Compare(b[off]) != 0) return false;
    }
    return true;
  };

  std::vector<Row> out;
  auto emit_row = [&](const Row& rep) -> Status {
    if (block.having != nullptr) {
      ASSIGN_OR_RETURN(bool keep, EvalPred(*block.having, rep));
      if (!keep) return Status::OK();
    }
    Row result;
    result.reserve(block.select_list.size());
    for (const auto& item : block.select_list) {
      ASSIGN_OR_RETURN(Value v, Eval(*item, rep));
      result.push_back(std::move(v));
    }
    out.push_back(std::move(result));
    return Status::OK();
  };
  // While a group is emitted its accumulators resolve the aggregate leaves
  // Eval meets; a nested block that aggregates installs its own and
  // restores these.
  auto emit_group = [&](const Row& rep,
                        const std::vector<Accumulator>& accs) -> Status {
    const std::vector<Accumulator>* saved = group_accs_;
    group_accs_ = &accs;
    Status st = emit_row(rep);
    group_accs_ = saved;
    return st;
  };

  size_t i = 0;
  while (i < input.size()) {
    size_t j = i;
    std::vector<Accumulator> accs;
    for (const BoundExpr* a : agg_exprs) {
      Accumulator acc;
      acc.agg = a;
      accs.push_back(acc);
    }
    while (j < input.size() && same_group(input[i], input[j])) {
      for (Accumulator& a : accs) {
        RETURN_IF_ERROR(a.Accept(this, input[j]));
      }
      ++j;
    }
    RETURN_IF_ERROR(emit_group(input[i], accs));
    i = j;
  }
  if (input.empty() && group_offsets.empty()) {
    // A scalar aggregate over empty input still yields one row (COUNT = 0,
    // the others NULL) — unless HAVING rejects it.
    std::vector<Accumulator> accs;
    for (const BoundExpr* a : agg_exprs) {
      Accumulator acc;
      acc.agg = a;
      accs.push_back(acc);
    }
    Row rep(block.row_width);
    RETURN_IF_ERROR(emit_group(rep, accs));
  }
  return out;
}

StatusOr<std::vector<Row>> RefExecutor::ExecuteBlock(
    const BoundQueryBlock& block) {
  // Materialize every FROM table from its raw pages.
  std::vector<const std::vector<Row>*> tables;
  for (const BoundTable& t : block.tables) {
    const std::vector<Row>* rows = nullptr;
    RETURN_IF_ERROR(LoadTable(t.table->id, &rows));
    tables.push_back(rows);
  }

  // Assign each WHERE conjunct to the earliest nested-loop level at which
  // every local column it references is available.
  std::vector<const BoundExpr*> conjuncts;
  FlattenConjuncts(block.where.get(), &conjuncts);
  std::vector<std::vector<const BoundExpr*>> by_level(block.tables.size());
  for (const BoundExpr* c : conjuncts) {
    int level = std::max(0, MaxLocalTable(*c, 0));
    by_level[level].push_back(c);
  }

  // Plain nested loops over the FROM tables in syntactic order.
  std::vector<Row> filtered;
  Row row(block.row_width);
  Status st = Status::OK();
  auto recurse = [&](auto&& self, size_t t) -> void {
    if (!st.ok()) return;
    if (t == block.tables.size()) {
      filtered.push_back(row);
      return;
    }
    size_t base = block.tables[t].offset;
    for (const Row& src : *tables[t]) {
      for (size_t c = 0; c < src.size(); ++c) row[base + c] = src[c];
      bool pass = true;
      for (const BoundExpr* cexpr : by_level[t]) {
        auto ok = EvalPred(*cexpr, row);
        if (!ok.ok()) {
          st = ok.status();
          return;
        }
        if (!*ok) {
          pass = false;
          break;
        }
      }
      if (pass) self(self, t + 1);
      if (!st.ok()) return;
    }
    // Reset this table's slots so sibling evaluations above never observe a
    // stale binding.
    size_t width = block.tables[t].table->schema.num_columns();
    for (size_t c = 0; c < width; ++c) row[base + c] = Value::Null();
  };
  recurse(recurse, 0);
  RETURN_IF_ERROR(st);

  std::vector<Row> projected;
  if (block.has_aggregates) {
    ASSIGN_OR_RETURN(projected, Aggregate(block, std::move(filtered)));
  } else {
    projected.reserve(filtered.size());
    for (const Row& r : filtered) {
      Row out;
      out.reserve(block.select_list.size());
      for (const auto& item : block.select_list) {
        ASSIGN_OR_RETURN(Value v, Eval(*item, r));
        out.push_back(std::move(v));
      }
      projected.push_back(std::move(out));
    }
  }

  if (block.distinct) {
    std::sort(projected.begin(), projected.end(), RowLess);
    projected.erase(std::unique(projected.begin(), projected.end(), RowEq),
                    projected.end());
  }
  // ORDER BY is ignored on purpose: callers compare row multisets, and the
  // ordering obligation is checked against the engine's own output.
  return projected;
}

StatusOr<std::vector<Row>> RefExecutor::Execute(const BoundQueryBlock& block) {
  if (depth_ == 0) {
    table_cache_.clear();
    ancestors_.clear();
  }
  ++depth_;
  auto result = ExecuteBlock(block);
  --depth_;
  return result;
}

}  // namespace systemr
