// Schema and Row: the logical shape of tuples moving through the system.
#ifndef SYSTEMR_COMMON_SCHEMA_H_
#define SYSTEMR_COMMON_SCHEMA_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace systemr {

struct ColumnDef {
  std::string name;
  ValueType type = ValueType::kInt64;
};

/// An ordered list of named, typed columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnDef> columns)
      : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const ColumnDef& column(size_t i) const { return columns_[i]; }
  const std::vector<ColumnDef>& columns() const { return columns_; }

  /// Index of the column named `name` (case-sensitive), or nullopt.
  std::optional<size_t> FindColumn(const std::string& name) const;

  std::string ToString() const;

 private:
  std::vector<ColumnDef> columns_;
};

/// A tuple: one Value per schema column.
using Row = std::vector<Value>;

/// Gives `*v` the type of `column`: the one rule for every value stored.
/// NULL and values of the column's type pass; an INT into a REAL column
/// becomes its double; a REAL into an INT column truncates toward zero, and
/// one that is NaN, infinite or outside int64 is refused
/// (kInvalidArgument). Any other pair is a type mismatch.
Status CoerceToColumn(const ColumnDef& column, Value* v);

std::string RowToString(const Row& row);

}  // namespace systemr

#endif  // SYSTEMR_COMMON_SCHEMA_H_
