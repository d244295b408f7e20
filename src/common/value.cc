#include "common/value.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>

namespace systemr {

namespace {

// Orders values of different types: NULL first, then numerics, then strings.
int TypeRank(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 1;
    case ValueType::kString:
      return 2;
  }
  return 3;
}

// Big-endian byte order for stored and wire integers. One 8-byte move plus a
// byte swap: GCC compiles the shift-and-or loop to eight byte loads.
uint64_t ToBigEndian64(uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(v);
  }
  return v;
}

void AppendBigEndian64(uint64_t v, std::string* out) {
  char bytes[8];
  v = ToBigEndian64(v);
  std::memcpy(bytes, &v, sizeof(v));
  out->append(bytes, sizeof(bytes));
}

uint64_t ReadBigEndian64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return ToBigEndian64(v);
}

// IEEE-754 trick: flips bits so that the unsigned big-endian comparison of
// the result matches the numeric order of the doubles.
uint64_t DoubleToOrderedBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  if (bits & (1ull << 63)) {
    return ~bits;  // Negative: flip everything.
  }
  return bits | (1ull << 63);  // Positive: flip sign bit.
}

double OrderedBitsToDouble(uint64_t bits) {
  if (bits & (1ull << 63)) {
    bits &= ~(1ull << 63);
  } else {
    bits = ~bits;
  }
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

}  // namespace

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT";
    case ValueType::kDouble:
      return "REAL";
    case ValueType::kString:
      return "STRING";
  }
  return "?";
}

Value Value::Str(std::string v) {
  Value x;
  x.u_.s = new std::string(std::move(v));
  x.type_ = ValueType::kString;
  return x;
}

void Value::AssignStr(const char* data, size_t size) {
  if (type_ == ValueType::kString) {
    u_.s->assign(data, size);
  } else {
    u_.s = new std::string(data, size);
    type_ = ValueType::kString;
  }
}

void Value::FreeStr() noexcept { delete u_.s; }

const std::string& Value::EmptyStr() {
  static const std::string empty;
  return empty;
}

int Value::CompareMixed(const Value& other) const {
  int r1 = TypeRank(type_);
  int r2 = TypeRank(other.type_);
  if (r1 != r2) return r1 < r2 ? -1 : 1;
  switch (type_) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt64:  // INT against INT is Compare's inline case.
    case ValueType::kDouble:
      break;
    case ValueType::kString: {
      int c = u_.s->compare(*other.u_.s);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  // Rounding an INT to the nearest double never reverses an order, so
  // unequal doubles decide. An INT and a REAL that round to the same double
  // are compared exactly: that REAL is integral, and 2^63 exceeds every INT.
  double a = AsNumber();
  double b = other.AsNumber();
  if (a != b) return a < b ? -1 : 1;
  if (type_ == other.type_) return 0;
  int64_t i = type_ == ValueType::kInt64 ? u_.i : other.u_.i;
  int int_vs_real = -1;
  if (a < 0x1p63) {
    int64_t r = static_cast<int64_t>(a);
    int_vs_real = i < r ? -1 : (i > r ? 1 : 0);
  }
  return type_ == ValueType::kInt64 ? int_vs_real : -int_vs_real;
}

void Value::EncodeKey(std::string* out) const {
  switch (type_) {
    case ValueType::kNull:
      out->push_back(0x00);
      return;
    case ValueType::kInt64: {
      out->push_back(0x01);
      // Flip sign bit so big-endian bytes order like signed ints.
      AppendBigEndian64(static_cast<uint64_t>(u_.i) ^ (1ull << 63), out);
      return;
    }
    case ValueType::kDouble: {
      // Same tag byte as INT64 would break cross-type index keys; index key
      // columns are homogeneously typed, so distinct tags keep decode exact
      // while preserving per-type order.
      out->push_back(0x02);
      AppendBigEndian64(DoubleToOrderedBits(u_.d), out);
      return;
    }
    case ValueType::kString: {
      out->push_back(0x03);
      // Escape 0x00 as (0x00, 0xff); terminate with (0x00, 0x00). Preserves
      // order: a shorter string that is a prefix sorts first.
      for (char c : *u_.s) {
        out->push_back(c);
        if (c == '\0') out->push_back(static_cast<char>(0xff));
      }
      out->push_back('\0');
      out->push_back('\0');
      return;
    }
  }
}

bool Value::DecodeKey(std::string_view data, size_t* pos, Value* out) {
  if (*pos >= data.size()) return false;
  uint8_t tag = static_cast<uint8_t>(data[(*pos)++]);
  switch (tag) {
    case 0x00:
      *out = Value::Null();
      return true;
    case 0x01: {
      if (*pos + 8 > data.size()) return false;
      uint64_t raw = ReadBigEndian64(
          reinterpret_cast<const unsigned char*>(data.data() + *pos));
      *pos += 8;
      *out = Value::Int(static_cast<int64_t>(raw ^ (1ull << 63)));
      return true;
    }
    case 0x02: {
      if (*pos + 8 > data.size()) return false;
      uint64_t raw = ReadBigEndian64(
          reinterpret_cast<const unsigned char*>(data.data() + *pos));
      *pos += 8;
      *out = Value::Real(OrderedBitsToDouble(raw));
      return true;
    }
    case 0x03: {
      std::string s;
      while (true) {
        if (*pos >= data.size()) return false;
        char c = data[(*pos)++];
        if (c == '\0') {
          if (*pos >= data.size()) return false;
          char nxt = data[(*pos)++];
          if (nxt == '\0') break;           // Terminator.
          if (static_cast<uint8_t>(nxt) != 0xff) return false;
          s.push_back('\0');
          continue;
        }
        s.push_back(c);
      }
      *out = Value::Str(std::move(s));
      return true;
    }
    default:
      return false;
  }
}

void Value::Serialize(std::string* out) const {
  out->push_back(static_cast<char>(type_));
  switch (type_) {
    case ValueType::kNull:
      return;
    case ValueType::kInt64:
      AppendBigEndian64(static_cast<uint64_t>(u_.i), out);
      return;
    case ValueType::kDouble: {
      uint64_t bits;
      std::memcpy(&bits, &u_.d, sizeof(bits));
      AppendBigEndian64(bits, out);
      return;
    }
    case ValueType::kString: {
      // Callers keep strings within kMaxStringBytes (see value.h).
      uint32_t len = static_cast<uint32_t>(u_.s->size());
      out->push_back(static_cast<char>(len & 0xff));
      out->push_back(static_cast<char>((len >> 8) & 0xff));
      out->append(*u_.s);
      return;
    }
  }
}

size_t Value::SerializedSize() const {
  switch (type_) {
    case ValueType::kNull:
      return 1;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 9;
    case ValueType::kString:
      return 3 + u_.s->size();
  }
  return 1;
}

bool Value::Deserialize(const char* data, size_t size, size_t* pos,
                        Value* out) {
  if (*pos >= size) return false;
  ValueType t = static_cast<ValueType>(data[(*pos)++]);
  switch (t) {
    case ValueType::kNull:
      out->SetNull();
      return true;
    case ValueType::kInt64: {
      if (*pos + 8 > size) return false;
      uint64_t raw = ReadBigEndian64(
          reinterpret_cast<const unsigned char*>(data + *pos));
      *pos += 8;
      out->SetInt(static_cast<int64_t>(raw));
      return true;
    }
    case ValueType::kDouble: {
      if (*pos + 8 > size) return false;
      uint64_t raw = ReadBigEndian64(
          reinterpret_cast<const unsigned char*>(data + *pos));
      *pos += 8;
      double d;
      std::memcpy(&d, &raw, sizeof(d));
      out->SetReal(d);
      return true;
    }
    case ValueType::kString: {
      if (*pos + 2 > size) return false;
      uint32_t len = static_cast<uint8_t>(data[*pos]) |
                     (static_cast<uint8_t>(data[*pos + 1]) << 8);
      *pos += 2;
      if (*pos + len > size) return false;
      out->AssignStr(data + *pos, len);
      *pos += len;
      return true;
    }
  }
  return false;
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(u_.i);
    case ValueType::kDouble: {
      std::string s;
      AppendShortestReal(u_.d, &s);
      return s;
    }
    case ValueType::kString:
      return "'" + *u_.s + "'";
  }
  return "?";
}

std::string EncodeCompositeKey(const std::vector<Value>& values) {
  std::string out;
  for (const Value& v : values) v.EncodeKey(&out);
  return out;
}

void AppendShortestReal(double d, std::string* out) {
  char num[32];
  char* end = std::to_chars(num, num + sizeof(num), d).ptr;
  std::string_view digits(num, end - num);
  out->append(digits);
  if (std::isfinite(d) &&
      digits.find_first_of(".e") == std::string_view::npos) {
    *out += ".0";
  }
}

}  // namespace systemr
