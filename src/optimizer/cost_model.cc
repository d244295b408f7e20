#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

#include "rss/page.h"

namespace systemr {

const char* AccessSituationName(AccessSituation s) {
  switch (s) {
    case AccessSituation::kUniqueIndexEqual:
      return "unique index matching an equal predicate";
    case AccessSituation::kClusteredIndexMatching:
      return "clustered index matching boolean factor(s)";
    case AccessSituation::kNonClusteredIndexMatching:
      return "non-clustered index matching boolean factor(s)";
    case AccessSituation::kClusteredIndexNonMatching:
      return "clustered index, no matching factor";
    case AccessSituation::kNonClusteredIndexNonMatching:
      return "non-clustered index, no matching factor";
    case AccessSituation::kSegmentScan:
      return "segment scan";
  }
  return "?";
}

PathCost CostModel::SegmentScan(const TableInfo& table, double rsicard) const {
  PathCost c;
  c.situation = AccessSituation::kSegmentScan;
  double tcard = table.has_stats ? static_cast<double>(table.tcard) : 10.0;
  double p = table.has_stats && table.p > 0 ? table.p : 1.0;
  // TCARD/P = every non-empty page of the segment is touched once (§3).
  c.pages = tcard / p;
  c.rsi = rsicard;
  c.cost = Combine(c.pages, c.rsi);
  return c;
}

PathCost CostModel::IndexScan(const TableInfo& table, const IndexInfo& index,
                              bool matching, double f_preds, double rsicard,
                              bool unique_equal, bool repeated_probe) const {
  PathCost c;
  double ncard = table.has_stats ? static_cast<double>(table.ncard) : 100.0;
  double tcard = table.has_stats ? static_cast<double>(table.tcard) : 10.0;
  double nindx = index.nindx > 0 ? static_cast<double>(index.nindx) : 1.0;

  if (unique_equal) {
    // "1 + 1 + W": one index page, one data page, one tuple.
    c.situation = AccessSituation::kUniqueIndexEqual;
    c.pages = 2.0;
    c.rsi = 1.0;
    c.cost = Combine(c.pages, c.rsi);
    return c;
  }

  if (matching) {
    if (index.clustered) {
      c.situation = AccessSituation::kClusteredIndexMatching;
      c.pages = f_preds * (nindx + tcard);
    } else {
      c.situation = AccessSituation::kNonClusteredIndexMatching;
      double fit_pages = f_preds * (nindx + tcard);
      // "or F(preds)*(NINDX+TCARD) if this number fits in the buffer".
      c.pages = fit_pages <= static_cast<double>(params_.buffer_pages)
                    ? fit_pages
                    : f_preds * (nindx + ncard);
    }
  } else {
    if (index.clustered) {
      c.situation = AccessSituation::kClusteredIndexNonMatching;
      c.pages = nindx + tcard;
    } else {
      c.situation = AccessSituation::kNonClusteredIndexNonMatching;
      double fit_pages = nindx + tcard;
      c.pages = fit_pages <= static_cast<double>(params_.buffer_pages)
                    ? fit_pages
                    : nindx + ncard;
    }
  }
  if (repeated_probe && matching) {
    // The amortized fraction-of-the-index formula only holds while the
    // touched pages stay buffered across probes; otherwise each probe pays
    // at least one (uncached) leaf descent plus its data pages.
    double resident = nindx + tcard;
    if (resident > static_cast<double>(params_.buffer_pages)) {
      double data = index.clustered ? tcard : ncard;
      double floor = 1.0 + f_preds * data;
      c.pages = std::max(c.pages, floor);
    }
  }
  c.rsi = rsicard;
  c.cost = Combine(c.pages, c.rsi);
  return c;
}

double CostModel::TempPages(double rows, double bytes_per_row) const {
  if (rows <= 0) return 1.0;
  double per_page = std::max(1.0, std::floor(static_cast<double>(kPageSize) /
                                             std::max(bytes_per_row, 1.0)));
  return std::max(1.0, std::ceil(rows / per_page));
}

int CostModel::SortPasses(double temppages) const {
  // Runs of buffer_pages pages, merged with fan-in (buffer_pages - 1).
  double buffers = static_cast<double>(std::max<size_t>(params_.buffer_pages, 3));
  double runs = std::ceil(temppages / buffers);
  int passes = 0;
  double fanin = buffers - 1;
  while (runs > 1) {
    runs = std::ceil(runs / fanin);
    ++passes;
  }
  return passes;
}

PathCost CostModel::JoinCost(const PathCost& outer, double n_outer,
                            const PathCost& inner_per_probe) const {
  PathCost c;
  c.pages = outer.pages + n_outer * inner_per_probe.pages;
  c.rsi = outer.rsi + n_outer * inner_per_probe.rsi;
  c.cost = outer.cost + n_outer * inner_per_probe.cost;
  return c;
}

PathCost CostModel::SortCost(const PathCost& input, double rows,
                             double bytes_per_row) const {
  double temppages = TempPages(rows, bytes_per_row);
  int passes = SortPasses(temppages);
  // Write initial runs once, then read+write per merge pass; the final read
  // by the consumer is charged to the consuming scan, not to the sort.
  double io = temppages * (1.0 + 2.0 * passes);
  // Inserting tuples into the temporary list costs tuple moves (CPU).
  PathCost c;
  c.pages = input.pages + io;
  c.rsi = input.rsi + rows;
  c.cost = input.cost + io + params_.w * rows;
  return c;
}

PathCost CostModel::SortedInnerPerProbe(double temppages, double n_outer,
                                        double rsicard_group) const {
  PathCost c;
  c.pages = temppages / std::max(n_outer, 1.0);
  c.rsi = rsicard_group;
  c.cost = Combine(c.pages, c.rsi);
  return c;
}

PathCost CostModel::HashJoinCost(const PathCost& outer, const PathCost& inner,
                                 double n_outer, double n_inner, double n_out,
                                 double build_temppages) const {
  double probes = n_inner + n_outer + std::max(n_out, 0.0);
  PathCost c;
  c.pages = outer.pages + inner.pages;
  c.rsi = outer.rsi + inner.rsi + probes;
  c.cost = outer.cost + inner.cost + params_.w * probes;
  if (build_temppages > static_cast<double>(params_.buffer_pages)) {
    // Grace-hash approximation: partitions are written out once and read
    // back once when the build side does not fit in memory.
    c.pages += 2.0 * build_temppages;
    c.cost += 2.0 * build_temppages;
  }
  return c;
}

PathCost CostModel::PerRowCost(const PathCost& input, double rows) const {
  PathCost c = input;
  c.rsi += rows;
  c.cost += params_.w * rows;
  return c;
}

PathCost CostModel::HashAggregateCost(const PathCost& input, double rows,
                                      double groups) const {
  return PerRowCost(input, std::max(rows, 0.0) + std::max(groups, 1.0));
}

PathCost CostModel::ParallelFragmentCost(const PathCost& serial,
                                         double rows_out, int dop) const {
  double d = static_cast<double>(std::max(dop, 1));
  PathCost c = serial;
  c.cost = serial.cost / d + params_.w * std::max(rows_out, 0.0) +
           kExchangeStartupCost * d;
  return c;
}

double CostModel::TupleBytes(const TableInfo& table) {
  if (table.has_stats && table.ncard > 0 && table.tcard > 0) {
    return static_cast<double>(table.tcard) * kPageSize /
           static_cast<double>(table.ncard);
  }
  // Fixed guess when unloaded: a modest record.
  return 48.0;
}

}  // namespace systemr
