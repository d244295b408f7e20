// The System R cost model:
//   COST = PAGE FETCHES + W * (RSI CALLS)                       (§4)
// TABLE 2 gives the single-relation access path formulas; §5 gives the join
// formulas:
//   C-nested-loop-join(p1,p2) = C-outer(p1) + N * C-inner(p2)
//   C-merge(p1,p2)            = C-outer(p1) + N * C-inner(p2)
//   C-inner(sorted list)      = TEMPPAGES/N + W * RSICARD
// C-sort is named but not specified by the paper; we use the external
// merge-sort model our sort operator implements (see DESIGN.md).
#ifndef SYSTEMR_OPTIMIZER_COST_MODEL_H_
#define SYSTEMR_OPTIMIZER_COST_MODEL_H_

#include <cstddef>
#include <string>

#include "catalog/catalog.h"

namespace systemr {

struct CostParams {
  /// W: the adjustable weighting factor between I/O and CPU (§4).
  double w = 0.1;
  /// Effective buffer pool pages per user (§4's buffer-fit conditions).
  size_t buffer_pages = 128;
};

/// Fixed per-worker cost (in COST units) of starting a parallel fragment:
/// worker dispatch, a private ExecContext, and the barrier merge. Chosen so
/// a fragment must save at least this much work per worker before the
/// optimizer parallelizes — single-morsel queries always stay serial.
inline constexpr double kExchangeStartupCost = 4.0;

/// Table 2 situations, for diagnostics and the Table-2 bench.
enum class AccessSituation {
  kUniqueIndexEqual,
  kClusteredIndexMatching,
  kNonClusteredIndexMatching,
  kClusteredIndexNonMatching,
  kNonClusteredIndexNonMatching,
  kSegmentScan,
};

const char* AccessSituationName(AccessSituation s);

/// One estimate in the paper's two parts: every plan node carries one, for
/// itself and everything under it. Each formula below combines its
/// operands' parts, so `cost` is `pages + W * rsi` at every node except an
/// exchange (ParallelFragmentCost).
struct PathCost {
  double pages = 0;  // Predicted page fetches.
  double rsi = 0;    // Predicted RSI calls.
  double cost = 0;   // pages + W * rsi.
  AccessSituation situation = AccessSituation::kSegmentScan;  // Scans only.
};

/// Part-by-part sum: a one-time setup plus the work that follows it.
inline PathCost operator+(PathCost a, const PathCost& b) {
  a.pages += b.pages;
  a.rsi += b.rsi;
  a.cost += b.cost;
  return a;
}

class CostModel {
 public:
  explicit CostModel(CostParams params) : params_(params) {}

  double w() const { return params_.w; }
  size_t buffer_pages() const { return params_.buffer_pages; }

  double Combine(double pages, double rsi) const {
    return pages + params_.w * rsi;
  }

  /// TABLE 2, segment scan: TCARD/P + W * RSICARD.
  PathCost SegmentScan(const TableInfo& table, double rsicard) const;

  /// TABLE 2, index scan. `f_preds` is the product of the selectivities of
  /// the boolean factors *matching* the index; `matching` false means no
  /// factor matches (full index scan). `unique_equal` marks the unique-index
  /// equal-predicate case (cost 1 + 1 + W).
  ///
  /// `repeated_probe` marks the nested-loop inner case: the formula is then
  /// a per-probe cost, and the paper's buffer-fit reasoning applies — when
  /// the index + data pages stay resident across probes the amortized
  /// formula holds, otherwise a probe can never cost less than one leaf
  /// descent plus its data pages (the physical floor).
  PathCost IndexScan(const TableInfo& table, const IndexInfo& index,
                     bool matching, double f_preds, double rsicard,
                     bool unique_equal, bool repeated_probe = false) const;

  /// §5: C-outer + N * C-inner (identical formula for both join methods).
  PathCost JoinCost(const PathCost& outer, double n_outer,
                    const PathCost& inner_per_probe) const;

  /// §5: per-probe cost of a merge-join inner that was sorted into a
  /// temporary list: TEMPPAGES/N + W*RSICARD(per matching group).
  PathCost SortedInnerPerProbe(double temppages, double n_outer,
                               double rsicard_group) const;

  /// Hash join, a third method beyond the paper's two: the inner is read
  /// once (`inner`) and built into an in-memory table (W per insert), then
  /// each outer row probes at CPU cost (W per probe, W per emitted match).
  /// When the build exceeds the buffer pool the partitions spill — one
  /// extra write + read of the build's temp pages. Produces no order.
  ///   C-hash = C-outer + C-inner + W*(N-inner + N-outer + N-out) [+ spill]
  PathCost HashJoinCost(const PathCost& outer, const PathCost& inner,
                        double n_outer, double n_inner, double n_out,
                        double build_temppages) const;

  /// W per row a plan-top node evaluates: projection, and aggregation over
  /// input already in group order.
  PathCost PerRowCost(const PathCost& input, double rows) const;

  /// Hash aggregation: one pass over an unordered input, W per input row
  /// hashed into its group plus W per group emitted — no sort required.
  PathCost HashAggregateCost(const PathCost& input, double rows,
                             double groups) const;

  /// Morsel-parallel fragment behind an exchange: the fragment's serial cost
  /// divides across `dop` workers (page fetches overlap because the buffer
  /// pool releases its latch during fetches, CPU divides trivially), plus W
  /// per row crossing the exchange (gather/merge transfer), plus a fixed
  /// startup term per worker. The startup term is what keeps small queries
  /// serial: a fragment cheaper than ~kExchangeStartupCost*dop can never win.
  ///   C-par(d) = C-serial/d + W*N-out + kExchangeStartupCost*d
  /// The pages and RSI calls stay the serial fragment's: the workers
  /// together make all of them.
  PathCost ParallelFragmentCost(const PathCost& serial, double rows_out,
                                int dop) const;

  /// C-sort(path): cost of reading the input (`input`), forming and merging
  /// runs, and writing the temporary list. `rows` tuples of `bytes_per_row`
  /// bytes.
  PathCost SortCost(const PathCost& input, double rows,
                    double bytes_per_row) const;

  /// Pages needed to hold `rows` tuples of `bytes_per_row` bytes.
  double TempPages(double rows, double bytes_per_row) const;

  /// Number of merge passes the external sort performs.
  int SortPasses(double temppages) const;

  /// Estimated stored bytes per tuple of `table` (from TCARD/NCARD when
  /// statistics exist, else a fixed guess).
  static double TupleBytes(const TableInfo& table);

 private:
  CostParams params_;
};

}  // namespace systemr

#endif  // SYSTEMR_OPTIMIZER_COST_MODEL_H_
