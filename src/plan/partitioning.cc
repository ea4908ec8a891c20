#include "plan/partitioning.h"

#include <algorithm>
#include <numeric>

#include "common/string_util.h"
#include "plan/planner.h"

namespace eslev {

bool IsTagColumn(std::string_view name) {
  for (std::string_view tag : {"tag_id", "tagid", "tid", "epc", "tag"}) {
    if (AsciiEqualsIgnoreCase(name, tag)) return true;
  }
  return false;
}

size_t DefaultPartitionKeyIndex(const Schema& schema) {
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    if (IsTagColumn(schema.field(i).name)) return i;
  }
  return 0;
}

PartitionPos PartitionPosOf(const TableRef& ref, const SchemaPtr& schema) {
  return {ref.alias, schema.get()};
}

bool ResolvePartitionPositions(const std::vector<const TableRef*>& refs,
                               const Catalog& catalog,
                               std::vector<PartitionPos>* out) {
  for (const TableRef* ref : refs) {
    const Stream* stream = catalog.FindStream(ref->name);
    if (stream == nullptr) return false;
    out->push_back(PartitionPosOf(*ref, stream->schema()));
  }
  return true;
}

namespace {

// Union-find with path halving over dense node ids.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : root_(n) {
    std::iota(root_.begin(), root_.end(), size_t{0});
  }
  size_t Find(size_t i) {
    while (root_[i] != i) i = root_[i] = root_[root_[i]];
    return i;
  }
  void Unite(size_t a, size_t b) { root_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> root_;
};

// The two plain column references of an `a.x = b.y` conjunct, or false.
bool ColumnEquality(const Expr& c, const ColumnRefExpr** l,
                    const ColumnRefExpr** r) {
  if (c.kind != ExprKind::kBinary) return false;
  const auto& b = static_cast<const BinaryExpr&>(c);
  if (b.op != BinaryOp::kEq || b.lhs->kind != ExprKind::kColumnRef ||
      b.rhs->kind != ExprKind::kColumnRef) {
    return false;
  }
  *l = static_cast<const ColumnRefExpr*>(b.lhs.get());
  *r = static_cast<const ColumnRefExpr*>(b.rhs.get());
  return !(*l)->previous && !(*r)->previous;
}

template <typename Positions>
int PositionOf(const Positions& positions, const std::string& qualifier) {
  for (size_t i = 0; i < positions.size(); ++i) {
    if (AsciiEqualsIgnoreCase(positions[i].alias, qualifier)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool IsNumericType(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble ||
         t == TypeId::kTimestamp;
}

}  // namespace

bool PartitionKeyLinked(const std::vector<PartitionPos>& positions,
                        const std::vector<const Expr*>& conjuncts) {
  if (positions.size() < 2) return true;
  const auto is_key = [&positions](int pos, const std::string& column) {
    const Schema& schema = *positions[static_cast<size_t>(pos)].schema;
    return AsciiEqualsIgnoreCase(
        column, schema.field(DefaultPartitionKeyIndex(schema)).name);
  };
  UnionFind uf(positions.size());
  for (const Expr* c : conjuncts) {
    const ColumnRefExpr* l = nullptr;
    const ColumnRefExpr* r = nullptr;
    if (!ColumnEquality(*c, &l, &r)) continue;
    const int li = PositionOf(positions, l->qualifier);
    const int ri = PositionOf(positions, r->qualifier);
    if (li < 0 || ri < 0 || li == ri) continue;
    if (!is_key(li, l->column) || !is_key(ri, r->column)) continue;
    uf.Unite(static_cast<size_t>(li), static_cast<size_t>(ri));
  }
  const size_t first = uf.Find(0);
  for (size_t i = 1; i < positions.size(); ++i) {
    if (uf.Find(i) != first) return false;
  }
  return true;
}

EqualityKey FindEqualityKey(const std::vector<PartitionPos>& positions,
                            const std::vector<const Expr*>& conjuncts) {
  EqualityKey key;
  if (positions.size() < 2) return key;
  // Node id of (position p, column i) is base[p] + i.
  std::vector<size_t> base(positions.size() + 1, 0);
  for (size_t p = 0; p < positions.size(); ++p) {
    base[p + 1] = base[p] + positions[p].schema->num_fields();
  }
  const auto type_of = [&](size_t node) {
    const size_t p = static_cast<size_t>(
        std::upper_bound(base.begin(), base.end(), node) - base.begin() - 1);
    return positions[p].schema->field(node - base[p]).type;
  };
  UnionFind uf(base.back());
  struct Edge {
    const Expr* conjunct;
    size_t a, b;
  };
  std::vector<Edge> edges;
  edges.reserve(conjuncts.size());
  for (const Expr* c : conjuncts) {
    const ColumnRefExpr* l = nullptr;
    const ColumnRefExpr* r = nullptr;
    if (!ColumnEquality(*c, &l, &r)) continue;
    const int li = PositionOf(positions, l->qualifier);
    const int ri = PositionOf(positions, r->qualifier);
    if (li < 0 || ri < 0 || li == ri) continue;
    const int lc = positions[static_cast<size_t>(li)].schema->FindField(
        l->column);
    const int rc = positions[static_cast<size_t>(ri)].schema->FindField(
        r->column);
    if (lc < 0 || rc < 0) continue;
    const size_t a = base[static_cast<size_t>(li)] + static_cast<size_t>(lc);
    const size_t b = base[static_cast<size_t>(ri)] + static_cast<size_t>(rc);
    if (!SqlKeyComparable(type_of(a), type_of(b))) continue;
    uf.Unite(a, b);
    edges.push_back({c, a, b});
  }
  if (edges.empty()) return key;

  // One slot per component spanning every position, in position-0
  // column order; each position keys on its first column in it.
  // (At most one slot per edge, so edges.size() bounds every list.)
  key.columns.resize(positions.size());
  for (auto& cols : key.columns) cols.reserve(edges.size());
  key.names.reserve(edges.size());
  key.implied.reserve(edges.size());
  std::vector<size_t> chosen;  // node ids of key columns
  chosen.reserve(edges.size() * positions.size());
  std::vector<size_t> seen_roots;
  seen_roots.reserve(positions[0].schema->num_fields());
  std::vector<size_t> slot;  // the component's column per position
  slot.reserve(positions.size());
  for (size_t c0 = 0; c0 < positions[0].schema->num_fields(); ++c0) {
    const size_t root = uf.Find(c0);
    if (std::find(seen_roots.begin(), seen_roots.end(), root) !=
        seen_roots.end()) {
      continue;
    }
    seen_roots.push_back(root);
    slot.clear();
    bool numeric = false;
    for (size_t p = 0; p < positions.size(); ++p) {
      for (size_t n = base[p]; n < base[p + 1]; ++n) {
        if (uf.Find(n) != root) continue;
        numeric |= IsNumericType(type_of(n));
        if (slot.size() == p) slot.push_back(n);
      }
      if (slot.size() != p + 1) break;  // position p not in component
    }
    if (slot.size() != positions.size()) continue;
    if (numeric) key.exact = false;
    for (size_t p = 0; p < positions.size(); ++p) {
      key.columns[p].push_back(slot[p] - base[p]);
    }
    key.names.push_back(positions[0].schema->field(c0).name);
    chosen.insert(chosen.end(), slot.begin(), slot.end());
  }
  if (key.names.empty()) {
    key.columns.clear();
    return key;
  }
  const auto is_chosen = [&chosen](size_t n) {
    return std::find(chosen.begin(), chosen.end(), n) != chosen.end();
  };
  for (const Edge& e : edges) {
    if (is_chosen(e.a) && is_chosen(e.b)) key.implied.push_back(e.conjunct);
  }
  return key;
}

namespace {

/// Preorder walk collecting every EXISTS subquery of `expr` (one level
/// is enough: the planner supports a single subquery nesting depth).
void CollectExists(const Expr& expr, std::vector<const ExistsExpr*>* out) {
  switch (expr.kind) {
    case ExprKind::kExists:
      out->push_back(static_cast<const ExistsExpr*>(&expr));
      return;
    case ExprKind::kUnary:
      CollectExists(*static_cast<const UnaryExpr&>(expr).operand, out);
      return;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      CollectExists(*b.lhs, out);
      CollectExists(*b.rhs, out);
      return;
    }
    case ExprKind::kFuncCall: {
      for (const ExprPtr& a : static_cast<const FuncCallExpr&>(expr).args) {
        CollectExists(*a, out);
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace

PartitionVerdict ClassifyPartitioning(
    const Catalog& catalog, const SelectStmt& select,
    const std::vector<const Expr*>& conjuncts,
    const std::vector<const SeqExpr*>& seqs) {
  // SEQ queries: every position must be key-linked, and the pairing
  // must not be defined on the joint history of all keys.
  if (seqs.size() == 1 && !select.from.empty()) {
    const SeqExpr& seq = *seqs[0];
    std::vector<const TableRef*> refs;
    for (const SeqArg& arg : seq.args) {
      const TableRef* found = nullptr;
      for (const TableRef& ref : select.from) {
        if (AsciiEqualsIgnoreCase(ref.alias, arg.stream)) {
          found = &ref;
          break;
        }
      }
      if (found == nullptr) return PartitionVerdict::kUndecided;
      refs.push_back(found);
    }
    std::vector<PartitionPos> positions;
    if (!ResolvePartitionPositions(refs, catalog, &positions)) {
      return PartitionVerdict::kUndecided;
    }
    return SeqPartitionable(seq, positions, conjuncts)
               ? PartitionVerdict::kPartitionable
               : PartitionVerdict::kSingleShard;
  }
  if (!seqs.empty()) return PartitionVerdict::kUndecided;

  // Multi-stream joins (windowed self-joins, Example 8 shapes).
  std::vector<const TableRef*> stream_refs;
  for (const TableRef& ref : select.from) {
    if (catalog.FindStream(ref.name) != nullptr) {
      stream_refs.push_back(&ref);
    }
  }
  if (stream_refs.size() >= 2) {
    std::vector<PartitionPos> positions;
    if (!ResolvePartitionPositions(stream_refs, catalog, &positions)) {
      return PartitionVerdict::kUndecided;
    }
    return PartitionKeyLinked(positions, conjuncts)
               ? PartitionVerdict::kPartitionable
               : PartitionVerdict::kSingleShard;
  }

  // Correlated [NOT] EXISTS against a stream: the subquery must
  // correlate with the outer stream on the partition key, or the
  // anti-join sees only the local shard's slice.
  if (stream_refs.size() != 1 || select.where == nullptr) {
    return PartitionVerdict::kPartitionable;
  }
  std::vector<const ExistsExpr*> exists;
  CollectExists(*select.where, &exists);
  for (const ExistsExpr* e : exists) {
    if (!ExistsPartitionable(catalog, *stream_refs[0], *e->subquery)) {
      return PartitionVerdict::kSingleShard;
    }
  }
  return PartitionVerdict::kPartitionable;
}

bool ExistsPartitionable(const PartitionPos& outer, const PartitionPos& inner,
                         const SelectStmt& sub) {
  // A ROWS window holds the last N tuples of every key: a shard's slice
  // would reach further back.
  const TableRef& ref = sub.from[0];
  if (ref.window && ref.window->row_based) return false;
  std::vector<const Expr*> sub_conjuncts;
  FlattenConjuncts(sub.where.get(), &sub_conjuncts);
  return PartitionKeyLinked({outer, inner}, sub_conjuncts);
}

bool ExistsPartitionable(const Catalog& catalog, const TableRef& outer,
                         const SelectStmt& sub) {
  if (sub.from.size() != 1) return true;
  std::vector<PartitionPos> positions;
  if (!ResolvePartitionPositions({&outer, &sub.from[0]}, catalog,
                                 &positions)) {
    return true;
  }
  return ExistsPartitionable(positions[0], positions[1], sub);
}

bool SeqPartitionable(const SeqExpr& seq,
                      const std::vector<PartitionPos>& positions,
                      const std::vector<const Expr*>& conjuncts) {
  // A negated argument can only carry per-position conditions, so it is
  // never key-linked, and its interval check spans every key.
  for (const SeqArg& arg : seq.args) {
    if (arg.negated) return false;
  }
  const PairingMode mode = seq.seq_kind == SeqKind::kSeq || seq.mode_explicit
                               ? seq.mode
                               : PairingMode::kConsecutive;  // EXCEPTION_SEQ
  return mode != PairingMode::kConsecutive &&
         PartitionKeyLinked(positions, conjuncts);
}

}  // namespace eslev
