#include "common/schema.h"

#include <cmath>

namespace systemr {

std::optional<size_t> Schema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return std::nullopt;
}

std::string Schema::ToString() const {
  std::string s = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) s += ", ";
    s += columns_[i].name;
    s += " ";
    s += ValueTypeName(columns_[i].type);
  }
  s += ")";
  return s;
}

Status CoerceToColumn(const ColumnDef& column, Value* v) {
  if (v->is_null() || v->type() == column.type) return Status::OK();
  if (v->type() == ValueType::kInt64 && column.type == ValueType::kDouble) {
    *v = Value::Real(static_cast<double>(v->AsInt()));
    return Status::OK();
  }
  if (v->type() == ValueType::kDouble && column.type == ValueType::kInt64) {
    double t = std::trunc(v->AsReal());
    if (!(t >= -0x1p63 && t < 0x1p63)) {  // Also NaN.
      return Status::InvalidArgument("value " + v->ToString() +
                                     " out of range for INT column " +
                                     column.name);
    }
    *v = Value::Int(static_cast<int64_t>(t));
    return Status::OK();
  }
  return Status::InvalidArgument("type mismatch in column " + column.name);
}

std::string RowToString(const Row& row) {
  std::string s = "[";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) s += ", ";
    s += row[i].ToString();
  }
  s += "]";
  return s;
}

}  // namespace systemr
