// Interesting orders and order-equivalence classes (§5): "if there is a join
// predicate E.DNO = D.DNO and another join predicate D.DNO = F.DNO then all
// three of these columns belong to the same order equivalence class."
// Implemented as a union-find over the (table, column) pairs of one query
// block, unioned across equi-join predicates.
#ifndef SYSTEMR_OPTIMIZER_ORDER_CLASSES_H_
#define SYSTEMR_OPTIMIZER_ORDER_CLASSES_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "optimizer/bound_expr.h"

namespace systemr {

/// One key of a tuple ordering: an order-equivalence class id plus direction.
struct OrderKey {
  int cls = -1;
  bool asc = true;
  bool operator==(const OrderKey& o) const {
    return cls == o.cls && asc == o.asc;
  }
};

/// A tuple ordering, major-to-minor.
using OrderSpec = std::vector<OrderKey>;

/// True if a stream ordered by `produced` is also ordered by `required`
/// (i.e. `required` is a prefix of `produced`).
bool OrderSatisfies(const OrderSpec& produced, const OrderSpec& required);

std::string OrderSpecToString(const OrderSpec& spec);

class OrderClasses {
 public:
  OrderClasses() = default;

  /// Returns the class id of (table, column), creating a singleton class on
  /// first use. Ids are stable for the lifetime of this object.
  int ClassOf(int table_idx, size_t column);

  /// Merges the classes of two columns (from an equi-join predicate).
  void Union(int t1, size_t c1, int t2, size_t c2);

  /// A representative column of `cls` (for diagnostics).
  std::pair<int, size_t> Representative(int cls) const;

 private:
  int Find(int x) const;

  std::map<std::pair<int, size_t>, int> ids_;
  mutable std::vector<int> parent_;
  std::vector<std::pair<int, size_t>> columns_;
};

}  // namespace systemr

#endif  // SYSTEMR_OPTIMIZER_ORDER_CLASSES_H_
