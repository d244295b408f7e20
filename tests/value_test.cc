#include "common/value.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/hash_ops.h"

namespace systemr {
namespace {

TEST(ValueTest, TypeAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsReal(), 2.5);
  EXPECT_EQ(Value::Str("abc").AsStr(), "abc");
}

TEST(ValueTest, CompareSameType) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(7).Compare(Value::Int(7)), 0);
  EXPECT_GT(Value::Int(-1).Compare(Value::Int(-2)), 0);
  EXPECT_LT(Value::Str("a").Compare(Value::Str("b")), 0);
  EXPECT_LT(Value::Real(1.5).Compare(Value::Real(1.6)), 0);
}

TEST(ValueTest, CompareCrossNumeric) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Real(3.0)), 0);
  EXPECT_LT(Value::Int(3).Compare(Value::Real(3.5)), 0);
  EXPECT_GT(Value::Real(4.0).Compare(Value::Int(3)), 0);
}

// Around 2^53 and 2^63, where neighbouring INTs round to one double, an INT
// and a REAL compare by exact value.
TEST(ValueTest, CompareCrossNumericIsExact) {
  const int64_t two53 = int64_t{1} << 53;
  EXPECT_GT(Value::Int(two53 + 1).Compare(Value::Real(0x1p53)), 0);
  EXPECT_LT(Value::Real(0x1p53).Compare(Value::Int(two53 + 1)), 0);
  EXPECT_EQ(Value::Int(two53).Compare(Value::Real(0x1p53)), 0);
  EXPECT_LT(Value::Int(two53 - 1).Compare(Value::Real(0x1p53)), 0);
  EXPECT_GT(Value::Real(0x1p53 + 2).Compare(Value::Int(two53 + 1)), 0);
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  EXPECT_LT(Value::Int(max).Compare(Value::Real(0x1p63)), 0);
  EXPECT_GT(Value::Real(0x1p63).Compare(Value::Int(max)), 0);
  EXPECT_EQ(Value::Int(min).Compare(Value::Real(-0x1p63)), 0);
  EXPECT_GT(Value::Int(min + 1).Compare(Value::Real(-0x1p63)), 0);
  EXPECT_EQ(Value::Int(0).Compare(Value::Real(-0.0)), 0);
  EXPECT_LT(Value::Int(-3).Compare(Value::Real(-2.5)), 0);
}

// A mixed INT/REAL set around 2^53 sorts into one consistent order: the
// comparison is antisymmetric and transitive, so every pair of a sorted
// run is in order, and values that compare equal hash alike.
TEST(ValueTest, MixedNumericsAround2To53SortConsistently) {
  const int64_t two53 = int64_t{1} << 53;
  std::vector<Value> values;
  for (int64_t d = -3; d <= 3; ++d) {
    values.push_back(Value::Int(two53 + d));
    values.push_back(Value::Real(static_cast<double>(two53 + d)));
    values.push_back(Value::Int(-(two53 + d)));
    values.push_back(Value::Real(-static_cast<double>(two53 + d)));
  }
  for (const Value& a : values) {
    for (const Value& b : values) {
      int ab = a.Compare(b);
      EXPECT_EQ(ab, -b.Compare(a)) << a.ToString() << " " << b.ToString();
      if (ab == 0) {
        EXPECT_EQ(HashValue(a), HashValue(b))
            << a.ToString() << " " << b.ToString();
      }
      for (const Value& c : values) {
        if (ab <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0) << a.ToString() << " <= " << b.ToString()
                                     << " <= " << c.ToString();
        }
      }
    }
  }
  Rng rng(9);
  for (int round = 0; round < 20; ++round) {
    for (size_t i = values.size() - 1; i > 0; --i) {
      std::swap(values[i], values[rng.Uniform(0, static_cast<int64_t>(i))]);
    }
    std::stable_sort(values.begin(), values.end());
    for (size_t i = 0; i < values.size(); ++i) {
      for (size_t j = i + 1; j < values.size(); ++j) {
        EXPECT_LE(values[i].Compare(values[j]), 0)
            << values[i].ToString() << " before " << values[j].ToString();
      }
    }
  }
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int(-1000000)), 0);
  EXPECT_LT(Value::Null().Compare(Value::Str("")), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, SerializeRoundTrip) {
  std::vector<Value> values = {
      Value::Null(),        Value::Int(0),
      Value::Int(-1),       Value::Int(INT64_MAX),
      Value::Int(INT64_MIN), Value::Real(0.0),
      Value::Real(-3.25),   Value::Str(""),
      Value::Str("hello"),  Value::Str(std::string("a\0b", 3)),
  };
  std::string buf;
  for (const Value& v : values) v.Serialize(&buf);
  size_t pos = 0;
  for (const Value& v : values) {
    Value out;
    ASSERT_TRUE(Value::Deserialize(buf.data(), buf.size(), &pos, &out));
    EXPECT_EQ(v.Compare(out), 0) << v.ToString() << " vs " << out.ToString();
    EXPECT_EQ(v.type(), out.type());
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(ValueTest, SerializedSizeMatches) {
  for (const Value& v : {Value::Null(), Value::Int(5), Value::Real(1.5),
                         Value::Str("xyz")}) {
    std::string buf;
    v.Serialize(&buf);
    EXPECT_EQ(buf.size(), v.SerializedSize());
  }
}

TEST(ValueTest, KeyEncodingRoundTrip) {
  std::vector<Value> values = {
      Value::Null(),         Value::Int(-5),
      Value::Int(12345678),  Value::Real(-0.5),
      Value::Str("SMITH"),   Value::Str(std::string("a\0\0b", 4)),
  };
  std::string buf;
  for (const Value& v : values) v.EncodeKey(&buf);
  size_t pos = 0;
  for (const Value& v : values) {
    Value out;
    ASSERT_TRUE(Value::DecodeKey(buf, &pos, &out));
    EXPECT_EQ(v.Compare(out), 0);
  }
  EXPECT_EQ(pos, buf.size());
}

// Property: the memcomparable encoding preserves order for same-typed values.
TEST(ValueProperty, IntKeyEncodingPreservesOrder) {
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    int64_t a = rng.Uniform(-1000000, 1000000);
    int64_t b = rng.Uniform(-1000000, 1000000);
    std::string ka, kb;
    Value::Int(a).EncodeKey(&ka);
    Value::Int(b).EncodeKey(&kb);
    EXPECT_EQ(a < b, ka < kb) << a << " " << b;
    EXPECT_EQ(a == b, ka == kb);
  }
}

TEST(ValueProperty, DoubleKeyEncodingPreservesOrder) {
  Rng rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    double a = (rng.NextDouble() - 0.5) * 1e6;
    double b = (rng.NextDouble() - 0.5) * 1e6;
    std::string ka, kb;
    Value::Real(a).EncodeKey(&ka);
    Value::Real(b).EncodeKey(&kb);
    EXPECT_EQ(a < b, ka < kb) << a << " " << b;
  }
}

TEST(ValueProperty, StringKeyEncodingPreservesOrder) {
  Rng rng(13);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string a = rng.RandomString(rng.Uniform(0, 6));
    std::string b = rng.RandomString(rng.Uniform(0, 6));
    // Occasionally embed NULs to exercise the escape path.
    if (rng.Bernoulli(0.2) && !a.empty()) a[0] = '\0';
    if (rng.Bernoulli(0.2) && !b.empty()) b[0] = '\0';
    std::string ka, kb;
    Value::Str(a).EncodeKey(&ka);
    Value::Str(b).EncodeKey(&kb);
    EXPECT_EQ(a < b, ka < kb);
    EXPECT_EQ(a == b, ka == kb);
  }
}

TEST(ValueTest, CompositeKeyOrdersLexicographically) {
  std::string k1 = EncodeCompositeKey({Value::Str("SMITH"), Value::Int(1)});
  std::string k2 = EncodeCompositeKey({Value::Str("SMITH"), Value::Int(2)});
  std::string k3 = EncodeCompositeKey({Value::Str("SMYTH"), Value::Int(0)});
  EXPECT_LT(k1, k2);
  EXPECT_LT(k2, k3);
}

// The longest string Serialize can encode: its 16-bit length is full.
TEST(ValueTest, LongestSerializableStringRoundTrips) {
  std::string s(Value::kMaxStringBytes, 'x');
  s.front() = 'a';
  s.back() = 'z';
  const Value v = Value::Str(s);
  std::string buf;
  v.Serialize(&buf);
  EXPECT_EQ(buf.size(), v.SerializedSize());
  size_t pos = 0;
  Value out;
  ASSERT_TRUE(Value::Deserialize(buf.data(), buf.size(), &pos, &out));
  EXPECT_EQ(out.AsStr(), s);
  EXPECT_EQ(pos, buf.size());
}

// --- The 16-byte layout: a tag plus a union with an out-of-line string ---

// One value of each type. The string is too long for a small-string buffer,
// so its copies and moves go through the heap (and ASan sees them).
std::vector<Value> OneOfEachType() {
  std::vector<Value> v;
  v.push_back(Value::Null());
  v.push_back(Value::Int(-7));
  v.push_back(Value::Real(2.5));
  v.push_back(Value::Str(std::string(40, 's')));
  return v;
}

::testing::AssertionResult Same(const Value& a, const Value& b) {
  if (a.type() == b.type() && a.Compare(b) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a.ToString() << " vs " << b.ToString();
}

TEST(ValueLayoutTest, IsSixteenBytes) { EXPECT_EQ(sizeof(Value), 16u); }

TEST(ValueLayoutTest, CopyAndMoveAcrossEveryPairOfTypes) {
  const std::vector<Value> all = OneOfEachType();
  for (const Value& src : all) {
    Value copied(src);
    EXPECT_TRUE(Same(copied, src));
    Value moved(std::move(copied));
    EXPECT_TRUE(Same(moved, src));
    EXPECT_TRUE(copied.is_null()) << "a move leaves NULL behind";
    for (const Value& init : all) {
      Value dst = init;
      dst = src;
      EXPECT_TRUE(Same(dst, src)) << "copy-assign over " << init.ToString();
      Value from = src;
      Value dst2 = init;
      dst2 = std::move(from);
      EXPECT_TRUE(Same(dst2, src)) << "move-assign over " << init.ToString();
      EXPECT_TRUE(from.is_null());
    }
  }
  // Growing a vector moves its Values; the moves must not throw.
  EXPECT_TRUE(std::is_nothrow_move_constructible_v<Value>);
  EXPECT_TRUE(std::is_nothrow_move_assignable_v<Value>);
}

TEST(ValueLayoutTest, SelfAssignmentAndSelfMoveKeepTheValue) {
  for (const Value& v : OneOfEachType()) {
    Value x = v;
    Value& alias = x;
    x = alias;
    EXPECT_TRUE(Same(x, v));
    x = std::move(alias);
    EXPECT_TRUE(Same(x, v));
  }
}

// Each accessor reads zero of its kind on a value of another type, which
// Truthy (a REAL is false) and the reference executor rely on.
TEST(ValueLayoutTest, AccessorsReadZeroOnOtherTypes) {
  EXPECT_EQ(Value::Null().AsInt(), 0);
  EXPECT_EQ(Value::Real(2.5).AsInt(), 0);
  EXPECT_EQ(Value::Str("9").AsInt(), 0);
  EXPECT_EQ(Value::Null().AsReal(), 0.0);
  EXPECT_EQ(Value::Int(3).AsReal(), 0.0);
  EXPECT_EQ(Value::Str("x").AsReal(), 0.0);
  EXPECT_EQ(Value::Null().AsStr(), "");
  EXPECT_EQ(Value::Int(3).AsStr(), "");
  EXPECT_EQ(Value::Real(1.5).AsStr(), "");
  EXPECT_EQ(Value::Null().AsNumber(), 0.0);
  EXPECT_EQ(Value::Str("x").AsNumber(), 0.0);
  EXPECT_EQ(Value::Int(3).AsNumber(), 3.0);
  EXPECT_EQ(Value::Real(1.5).AsNumber(), 1.5);
}

TEST(ValueLayoutTest, DeserializeOverwritesEveryTypeInPlace) {
  const std::vector<Value> all = OneOfEachType();
  for (const Value& init : all) {
    for (const Value& v : all) {
      std::string buf;
      v.Serialize(&buf);
      Value slot = init;
      size_t pos = 0;
      ASSERT_TRUE(Value::Deserialize(buf.data(), buf.size(), &pos, &slot));
      EXPECT_TRUE(Same(slot, v)) << "decoded over " << init.ToString();
      EXPECT_EQ(pos, buf.size());
    }
  }
}

TEST(ValueLayoutTest, DeserializeReusesTheSlotsString) {
  Value slot = Value::Str(std::string(100, 'a'));
  const char* buffer = slot.AsStr().data();
  std::string buf;
  Value::Str(std::string(60, 'b')).Serialize(&buf);
  size_t pos = 0;
  ASSERT_TRUE(Value::Deserialize(buf.data(), buf.size(), &pos, &slot));
  EXPECT_EQ(slot.AsStr(), std::string(60, 'b'));
  EXPECT_EQ(slot.AsStr().data(), buffer);
}

// NULL < numbers < strings; INT and REAL compare numerically, INT 1 equal
// to REAL 1.0, whichever side the INT is on.
TEST(ValueLayoutTest, CompareOrdersAcrossTypes) {
  const std::vector<Value> ordered = {
      Value::Null(),   Value::Int(-5), Value::Real(-4.5), Value::Int(1),
      Value::Real(1.5), Value::Int(2), Value::Str(""),    Value::Str("a")};
  for (size_t i = 0; i < ordered.size(); ++i) {
    for (size_t j = 0; j < ordered.size(); ++j) {
      int want = i < j ? -1 : (i > j ? 1 : 0);
      EXPECT_EQ(ordered[i].Compare(ordered[j]), want)
          << ordered[i].ToString() << " vs " << ordered[j].ToString();
    }
  }
  EXPECT_EQ(Value::Int(1).Compare(Value::Real(1.0)), 0);
  EXPECT_EQ(Value::Real(1.0).Compare(Value::Int(1)), 0);
  EXPECT_LT(Value::Int(INT64_MIN).Compare(Value::Int(INT64_MAX)), 0);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int(5).ToString(), "5");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Str("x").ToString(), "'x'");
}

// A REAL prints in the shortest form that reads back as the same double, so
// two different values never print alike; an integral one keeps ".0".
TEST(ValueTest, RealToStringRoundTrips) {
  EXPECT_EQ(Value::Real(9007199254740992.0).ToString(), "9007199254740992.0");
  EXPECT_EQ(Value::Real(9007199254740994.0).ToString(), "9007199254740994.0");
  EXPECT_EQ(Value::Real(2.0).ToString(), "2.0");
  EXPECT_EQ(Value::Real(297.5).ToString(), "297.5");
  EXPECT_EQ(Value::Real(0.1).ToString(), "0.1");
  EXPECT_EQ(Value::Real(1.0 / 3).ToString(), "0.3333333333333333");
  EXPECT_EQ(Value::Real(-0.0).ToString(), "-0.0");
  EXPECT_EQ(Value::Real(1e300).ToString(), "1e+300");
  EXPECT_EQ(Value::Real(std::numeric_limits<double>::infinity()).ToString(),
            "inf");
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = (rng.NextDouble() - 0.5) * std::pow(10.0, rng.Uniform(-20, 20));
    std::string text = Value::Real(d).ToString();
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), d) << text;
  }
}

}  // namespace
}  // namespace systemr
