// SQL-equality keys: a byte encoding of one or more values under which
// two rows share a key whenever SQL `=` could hold between them.
//
// Value::operator== and Value::Hash are equality of *representation*
// (INT 1 differs from DOUBLE 1.0); the expression evaluator's `=` uses
// Value::Compare, where numerics compare across INT/DOUBLE/TIMESTAMP.
// Hash indexes (Table::ScanEq) and keyed operator state must agree with
// the evaluator, so both derive their keys from this one encoding.

#ifndef ESLEV_TYPES_SQL_KEY_H_
#define ESLEV_TYPES_SQL_KEY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "types/tuple.h"
#include "types/value.h"

namespace eslev {

/// \brief Whether `=` between columns of declared types `a` and `b` is
/// accepted by Value::Compare without a TypeError: the same type, or
/// both in the numeric family (INT, DOUBLE, TIMESTAMP).
bool SqlKeyComparable(TypeId a, TypeId b);

/// \brief Append `v`'s encoding to `out`. Returns false (and appends
/// nothing) for NULL, which SQL `=` never matches.
///
/// Every numeric (INT, DOUBLE, TIMESTAMP) encodes as the double Compare
/// widens it to, whatever type its column declares: Compare == 0 then
/// always means equal encodings, so a key never separates two values the
/// evaluator's `=` could join, even when a column holds a runtime type
/// other than its declared one. The converse fails only for integers
/// beyond 2^53, which can share a double; a key is therefore a filter
/// whose candidates must still be checked, and only a key over
/// non-numeric columns is exact (EqualityKey::exact).
bool AppendSqlKey(const Value& v, std::string* out);

/// \brief Encode `tuple`'s key over the column indices `columns` into
/// `out` (cleared first). Returns false when any key value is NULL: no
/// row can match it. An empty column list encodes every tuple to the
/// same empty key.
bool EncodeSqlKey(const Tuple& tuple, const std::vector<size_t>& columns,
                  std::string* out);

/// \brief Hash agreeing with Compare == 0: every numeric hashes as the
/// double Compare widens it to (a string hashes as std::hash does).
/// Table indexes verify bucket hits with SqlEquals; shard routing uses it
/// so that values SQL `=` joins meet on one shard.
size_t SqlKeyHash(const Value& v);

/// \brief SQL `=` as a boolean: false when either side is NULL or the
/// types are not comparable, else Compare == 0.
bool SqlEquals(const Value& a, const Value& b);

}  // namespace eslev

#endif  // ESLEV_TYPES_SQL_KEY_H_
