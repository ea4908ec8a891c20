// SQL-equality keys agree with Value::Compare == 0, the `=` of the
// expression evaluator (types/sql_key.h).

#include "types/sql_key.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace eslev {
namespace {

std::string Key(const Value& v) {
  std::string out;
  EXPECT_TRUE(AppendSqlKey(v, &out)) << v.ToString();
  return out;
}

TEST(SqlKeyTest, NumericsJoinAcrossIntAndDouble) {
  EXPECT_EQ(Key(Value::Int(1)), Key(Value::Double(1.0)));
  EXPECT_NE(Key(Value::Int(1)), Key(Value::Double(1.5)));
  EXPECT_EQ(SqlKeyHash(Value::Int(1)), SqlKeyHash(Value::Double(1.0)));
  EXPECT_EQ(SqlKeyHash(Value::Time(7)), SqlKeyHash(Value::Int(7)));
  EXPECT_TRUE(SqlEquals(Value::Int(1), Value::Double(1.0)));
}

TEST(SqlKeyTest, LargeIntegersShareTheDoubleCompareWidensTo) {
  // 2^53 + 1 and 2^53 are distinct INTs but the same double, and DOUBLE
  // 2^53 compares equal to both: one key must hold all three.
  const int64_t big = int64_t{1} << 53;
  EXPECT_EQ(*Value::Int(big + 1).Compare(Value::Double(9007199254740992.0)),
            0);
  EXPECT_EQ(Key(Value::Int(big)), Key(Value::Int(big + 1)));
  EXPECT_EQ(Key(Value::Int(big + 1)),
            Key(Value::Double(9007199254740992.0)));
  EXPECT_EQ(Key(Value::Int(5)), Key(Value::Time(5)));
}

TEST(SqlKeyTest, NullMatchesNothing) {
  std::string out = "x";
  EXPECT_FALSE(AppendSqlKey(Value::Null(), &out));
  EXPECT_EQ(out, "x");
  EXPECT_FALSE(SqlEquals(Value::Null(), Value::Null()));
  EXPECT_FALSE(SqlEquals(Value::Int(1), Value::Null()));
}

TEST(SqlKeyTest, SignedZeroAndNanFollowCompare) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(*Value::Double(-0.0).Compare(Value::Double(0.0)), 0);
  EXPECT_EQ(Key(Value::Double(-0.0)), Key(Value::Double(0.0)));
  EXPECT_EQ(*Value::Double(nan).Compare(Value::Double(-nan)), 0);
  EXPECT_EQ(Key(Value::Double(nan)), Key(Value::Double(-nan)));
  // NaN sorts above every number instead of equalling all of them.
  EXPECT_EQ(*Value::Double(nan).Compare(Value::Double(5.0)), 1);
  EXPECT_EQ(*Value::Int(5).Compare(Value::Double(nan)), -1);
  EXPECT_FALSE(SqlEquals(Value::Double(nan), Value::Int(5)));
}

TEST(SqlKeyTest, IncomparableTypesNeverEqual) {
  EXPECT_FALSE(SqlKeyComparable(TypeId::kString, TypeId::kInt64));
  EXPECT_TRUE(SqlKeyComparable(TypeId::kInt64, TypeId::kDouble));
  EXPECT_TRUE(SqlKeyComparable(TypeId::kTimestamp, TypeId::kInt64));
  EXPECT_FALSE(SqlEquals(Value::String("1"), Value::Int(1)));
  EXPECT_NE(Key(Value::String("1")), Key(Value::Int(1)));
}

TEST(SqlKeyTest, CompositeKeysKeepColumnBoundariesAndStopAtNull) {
  auto schema =
      Schema::Make({{"a", TypeId::kString}, {"b", TypeId::kString}});
  const std::vector<size_t> cols = {0, 1};
  const auto encode = [&](Value a, Value b, std::string* out) {
    return EncodeSqlKey(*MakeTuple(schema, {std::move(a), std::move(b)}, 0),
                        cols, out);
  };
  std::string ab_c, a_bc, with_null;
  EXPECT_TRUE(encode(Value::String("ab"), Value::String("c"), &ab_c));
  EXPECT_TRUE(encode(Value::String("a"), Value::String("bc"), &a_bc));
  EXPECT_NE(ab_c, a_bc);  // string lengths are part of the encoding
  EXPECT_FALSE(encode(Value::String("a"), Value::Null(), &with_null));
  std::string empty = "stale";
  EXPECT_TRUE(EncodeSqlKey(
      *MakeTuple(schema, {Value::Null(), Value::Null()}, 0), {}, &empty));
  EXPECT_EQ(empty, "");
}

}  // namespace
}  // namespace eslev
