// Partition-key heuristic shared by ShardedEngine (routing), the static
// analyzer (shard-fallback lint rule) and the cost model (per-shard vs
// coordinator cost split). The paper's RFID queries all correlate on tag
// identity, so a stream's natural partition key is its first
// tag-identity column, falling back to column 0.

#ifndef ESLEV_PLAN_PARTITIONING_H_
#define ESLEV_PLAN_PARTITIONING_H_

#include <string>
#include <string_view>
#include <vector>

#include "plan/catalog.h"
#include "sql/ast.h"
#include "types/schema.h"
#include "types/sql_key.h"

namespace eslev {

/// \brief True when `name` names a tag-identity column
/// (case-insensitive).
bool IsTagColumn(std::string_view name);

/// \brief The column index a stream with `schema` partitions on by
/// default: the first tag-identity column, else 0.
size_t DefaultPartitionKeyIndex(const Schema& schema);

/// \brief One partition-relevant FROM position: its alias and its
/// stream's schema (which names the partition key). A view into the
/// query's AST and the catalog, which outlive the analysis.
struct PartitionPos {
  std::string_view alias;  // compared case-insensitively with qualifiers
  const Schema* schema;
};

/// \brief The position of `ref` over a stream with `schema`.
PartitionPos PartitionPosOf(const TableRef& ref, const SchemaPtr& schema);

/// \brief Resolve every FROM entry (or SEQ argument) that maps to a
/// stream. Returns false when any entry is unresolvable (unknown
/// alias/stream): callers then stay silent rather than guessing.
bool ResolvePartitionPositions(const std::vector<const TableRef*>& refs,
                               const Catalog& catalog,
                               std::vector<PartitionPos>* out);

/// \brief Union-find over positions, linked by `a.key_a = b.key_b`
/// conjuncts on the respective partition keys. Returns true when all
/// positions end up in one component — the condition for hash-routing
/// the query's streams independently per shard.
bool PartitionKeyLinked(const std::vector<PartitionPos>& positions,
                        const std::vector<const Expr*>& conjuncts);

/// \brief Columns equated across every position of one operator
/// (DESIGN.md §18): two tuples can only pair when their keys are equal,
/// so operator state can be partitioned on them.
struct EqualityKey {
  /// columns[p] are position p's key column indices, one per slot.
  std::vector<std::vector<size_t>> columns;
  /// Slot names as spelled at position 0 (EXPLAIN "keyed on (...)").
  std::vector<std::string> names;
  /// The `a.x = b.y` conjuncts between key columns: equal exact keys
  /// make every one of them true.
  std::vector<const Expr*> implied;
  /// No slot is numeric, so equal keys mean Compare == 0 on every slot
  /// (a numeric key widens to double, where integers beyond 2^53
  /// collide; see AppendSqlKey).
  bool exact = true;

  bool empty() const { return names.empty(); }
};

/// \brief Union-find over the (position, column) pairs joined by
/// `a.x = b.y` conjuncts between distinct positions whose declared types
/// Value::Compare accepts (SqlKeyComparable). Each component holding a
/// column of every position becomes one key slot. Empty when fewer than
/// two positions or no component spans them all.
EqualityKey FindEqualityKey(const std::vector<PartitionPos>& positions,
                            const std::vector<const Expr*>& conjuncts);

/// \brief Whether ShardedEngine can run a query hash-partitioned, or
/// must fall back to routing its source streams to a single shard.
enum class PartitionVerdict {
  kPartitionable,  // every position key-linked: shards run independently
  kSingleShard,    // pairing can cross partition keys: one shard only
  kUndecided,      // unresolvable aliases / multi-SEQ shapes: no claim
};

/// \brief Whether a correlated [NOT] EXISTS of `outer` over the stream
/// subquery `sub` (whose single FROM entry is `inner`) sees only the
/// outer tuple's partition: it must correlate on the partition key over
/// a RANGE window (a ROWS window counts tuples of every key).
bool ExistsPartitionable(const PartitionPos& outer, const PartitionPos& inner,
                         const SelectStmt& sub);
/// \brief The same, resolving both streams in `catalog`; subqueries
/// that do not read one stream are always local.
bool ExistsPartitionable(const Catalog& catalog, const TableRef& outer,
                         const SelectStmt& sub);

/// \brief Whether `seq` over `positions` (one per argument, in order)
/// may run hash-partitioned: every position key-linked, and no pairing
/// defined on the joint history of all keys (CONSECUTIVE, EXCEPTION_SEQ's
/// default, or a negated argument).
bool SeqPartitionable(const SeqExpr& seq,
                      const std::vector<PartitionPos>& positions,
                      const std::vector<const Expr*>& conjuncts);

/// \brief Classify one SELECT body (the analysis behind the
/// shard-fallback lint rule, the cost model's sharding split and
/// in-operator keying): SEQ positions, multi-stream joins, and correlated
/// EXISTS subqueries must all correlate on the partition key to stay
/// partitionable. A SEQ in CONSECUTIVE mode (EXCEPTION_SEQ's default) or
/// with a negated argument is kSingleShard: adjacency and negation are
/// defined on the joint history of every key, and a negated argument can
/// carry no key join.
PartitionVerdict ClassifyPartitioning(
    const Catalog& catalog, const SelectStmt& select,
    const std::vector<const Expr*>& conjuncts,
    const std::vector<const SeqExpr*>& seqs);

}  // namespace eslev

#endif  // ESLEV_PLAN_PARTITIONING_H_
