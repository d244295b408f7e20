// Value: the dynamically-typed cell of a tuple. Supports total ordering
// (numeric types compare numerically; NULL sorts first), serialization into
// tuple storage, and an order-preserving "memcomparable" key encoding used by
// the B+-tree so index pages can compare keys with plain memcmp.
//
// A Value is 16 bytes: a type tag and a union of an int64, a double and a
// pointer to an owned, out-of-line string. NULL, INT and REAL values copy
// and move as 16 bytes with no allocation; a STRING copy deep-copies its
// string, and a move steals the pointer and leaves NULL behind. A Row of n
// columns is n * 16 bytes of Values plus its strings.
#ifndef SYSTEMR_COMMON_VALUE_H_
#define SYSTEMR_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace systemr {

enum class ValueType : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

const char* ValueTypeName(ValueType t);

/// Returns true for the arithmetic types, on which the optimizer can do the
/// Table-1 linear interpolation of range-predicate selectivities.
inline bool IsArithmetic(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kDouble;
}

class Value {
 public:
  Value() noexcept : type_(ValueType::kNull) { u_.i = 0; }
  ~Value() {
    if (type_ == ValueType::kString) FreeStr();
  }
  Value(const Value& o) : type_(o.type_), u_(o.u_) {
    if (type_ == ValueType::kString) {
      type_ = ValueType::kNull;
      AssignStr(o.u_.s->data(), o.u_.s->size());
    }
  }
  Value(Value&& o) noexcept : type_(o.type_), u_(o.u_) {
    o.type_ = ValueType::kNull;
  }
  Value& operator=(const Value& o) {
    if (o.type_ == ValueType::kString) {
      if (this != &o) AssignStr(o.u_.s->data(), o.u_.s->size());
    } else {
      if (type_ == ValueType::kString) FreeStr();
      type_ = o.type_;
      u_ = o.u_;
    }
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    if (this != &o) {
      if (type_ == ValueType::kString) FreeStr();
      type_ = o.type_;
      u_ = o.u_;
      o.type_ = ValueType::kNull;
    }
    return *this;
  }

  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value x;
    x.type_ = ValueType::kInt64;
    x.u_.i = v;
    return x;
  }
  static Value Real(double v) {
    Value x;
    x.type_ = ValueType::kDouble;
    x.u_.d = v;
    return x;
  }
  static Value Str(std::string v);

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }
  /// Each accessor reads its own type and returns zero (0, 0.0, "") for
  /// any other, so callers may read an INT view of a NULL or a REAL.
  int64_t AsInt() const { return type_ == ValueType::kInt64 ? u_.i : 0; }
  double AsReal() const { return type_ == ValueType::kDouble ? u_.d : 0.0; }
  const std::string& AsStr() const {
    return type_ == ValueType::kString ? *u_.s : EmptyStr();
  }

  /// Numeric view of an INT64 or DOUBLE value (used for interpolation);
  /// 0.0 for NULL and STRING.
  double AsNumber() const {
    if (type_ == ValueType::kInt64) return static_cast<double>(u_.i);
    return type_ == ValueType::kDouble ? u_.d : 0.0;
  }

  /// Three-way total order: NULL < numerics < strings. Numerics compare by
  /// exact value across INT64/DOUBLE: an INT is never rounded to a double,
  /// so 2^53 + 1 is greater than 2^53 whatever the types. Returns <0, 0,
  /// >0. INT against INT is inline; every other pair goes out of line.
  int Compare(const Value& other) const {
    if (type_ == ValueType::kInt64 && other.type_ == ValueType::kInt64) {
      return u_.i < other.u_.i ? -1 : (u_.i > other.u_.i ? 1 : 0);
    }
    return CompareMixed(other);
  }

  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator!=(const Value& o) const { return Compare(o) != 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }
  bool operator<=(const Value& o) const { return Compare(o) <= 0; }
  bool operator>(const Value& o) const { return Compare(o) > 0; }
  bool operator>=(const Value& o) const { return Compare(o) >= 0; }

  /// Appends an order-preserving byte encoding to `out`: for values a, b of
  /// the same type, a < b iff encode(a) < encode(b) under memcmp.
  void EncodeKey(std::string* out) const;

  /// Decodes one value from `data` starting at *pos; advances *pos.
  /// Returns false on corrupt input.
  static bool DecodeKey(std::string_view data, size_t* pos, Value* out);

  /// The longest STRING that Serialize can encode: its length is stored in
  /// 16 bits. Storage never meets a longer one (a record must fit a 4 KiB
  /// page); the wire refuses one before encoding it.
  static constexpr size_t kMaxStringBytes = 65535;

  /// Appends a compact (not order-preserving) serialization to `out`.
  void Serialize(std::string* out) const;
  /// Decodes one serialized value into *out in place: no temporary Value,
  /// and a STRING decoded into a slot that holds a string reuses that
  /// string's buffer.
  static bool Deserialize(const char* data, size_t size, size_t* pos,
                          Value* out);

  /// Number of bytes Serialize() will append.
  size_t SerializedSize() const;

  std::string ToString() const;

 private:
  // Setters that Deserialize writes through. Each frees a held string
  // first; AssignStr instead reuses it.
  void SetNull() {
    if (type_ == ValueType::kString) FreeStr();
    type_ = ValueType::kNull;
  }
  void SetInt(int64_t v) {
    if (type_ == ValueType::kString) FreeStr();
    type_ = ValueType::kInt64;
    u_.i = v;
  }
  void SetReal(double v) {
    if (type_ == ValueType::kString) FreeStr();
    type_ = ValueType::kDouble;
    u_.d = v;
  }
  /// Every step that allocates or frees a string is out of line: it keeps
  /// the inline copy and move paths small, and an inline `delete` draws
  /// GCC 12 -Warray-bounds false positives in Release builds.
  void AssignStr(const char* data, size_t size);
  void FreeStr() noexcept;
  static const std::string& EmptyStr();
  int CompareMixed(const Value& other) const;

  ValueType type_;
  union {
    int64_t i;
    double d;
    std::string* s;  // Owned; non-null exactly when type_ is kString.
  } u_;
};

static_assert(sizeof(Value) == 16, "Value is a tag plus an 8-byte union");

/// Encodes a composite key (one value per index key column).
std::string EncodeCompositeKey(const std::vector<Value>& values);

/// Appends `d` in the shortest form that reads back as the same double
/// (distinct doubles never print alike), with ".0" after an integral one so
/// that it does not read as the INT it equals.
void AppendShortestReal(double d, std::string* out);

}  // namespace systemr

#endif  // SYSTEMR_COMMON_VALUE_H_
