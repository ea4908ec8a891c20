#include "types/sql_key.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

namespace eslev {

namespace {

bool IsNumeric(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble ||
         t == TypeId::kTimestamp;
}

void AppendBytes(const void* p, size_t n, std::string* out) {
  out->append(static_cast<const char*>(p), n);
}

// Compare treats -0.0 == 0.0 and NaN == NaN: give each one value.
double CanonicalDouble(double d) {
  if (d == 0) return 0;
  return std::isnan(d) ? std::numeric_limits<double>::quiet_NaN() : d;
}

void AppendDouble(double d, std::string* out) {
  d = CanonicalDouble(d);
  out->push_back('D');
  AppendBytes(&d, sizeof(d), out);
}

}  // namespace

bool SqlKeyComparable(TypeId a, TypeId b) {
  return a == b || (IsNumeric(a) && IsNumeric(b));
}

bool AppendSqlKey(const Value& v, std::string* out) {
  switch (v.type()) {
    case TypeId::kNull:
      return false;
    case TypeId::kBool:
      out->push_back(v.bool_value() ? 'T' : 'F');
      return true;
    case TypeId::kString: {
      const std::string& s = v.string_value();
      const uint32_t n = static_cast<uint32_t>(s.size());
      out->push_back('S');
      AppendBytes(&n, sizeof(n), out);
      out->append(s);
      return true;
    }
    case TypeId::kDouble:
      AppendDouble(v.double_value(), out);
      return true;
    case TypeId::kInt64:
      AppendDouble(static_cast<double>(v.int_value()), out);
      return true;
    case TypeId::kTimestamp:
      AppendDouble(static_cast<double>(v.time_value()), out);
      return true;
  }
  return false;
}

bool EncodeSqlKey(const Tuple& tuple, const std::vector<size_t>& columns,
                  std::string* out) {
  out->clear();
  for (const size_t c : columns) {
    if (!AppendSqlKey(tuple.value(c), out)) return false;
  }
  return true;
}

size_t SqlKeyHash(const Value& v) {
  switch (v.type()) {
    case TypeId::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case TypeId::kBool:
      return std::hash<bool>{}(v.bool_value());
    case TypeId::kString:
      return std::hash<std::string>{}(v.string_value());
    case TypeId::kInt64:
    case TypeId::kTimestamp:
    case TypeId::kDouble: {
      // The whole numeric family hashes as the double Compare widens to.
      const double d = v.type() == TypeId::kDouble
                           ? v.double_value()
                           : static_cast<double>(v.type() == TypeId::kInt64
                                                     ? v.int_value()
                                                     : v.time_value());
      return std::hash<double>{}(CanonicalDouble(d));
    }
  }
  return 0;
}

bool SqlEquals(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return false;
  if (!SqlKeyComparable(a.type(), b.type())) return false;
  Result<int> cmp = a.Compare(b);
  return cmp.ok() && *cmp == 0;
}

}  // namespace eslev
