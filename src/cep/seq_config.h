// Shared configuration types for the temporal sequence operators
// (SEQ, EXCEPTION_SEQ, CLEVEL_SEQ — paper §3.1).

#ifndef ESLEV_CEP_SEQ_CONFIG_H_
#define ESLEV_CEP_SEQ_CONFIG_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cep/pairing_mode.h"
#include "expr/bound_expr.h"
#include "recovery/codec.h"
#include "sql/ast.h"
#include "types/schema.h"
#include "types/sql_key.h"

namespace eslev {

/// \brief One argument position of a sequence operator. Position index ==
/// binder slot == operator input port.
///
/// A negated position (`SEQ(A, !B, C)`) contributes no tuple to matches;
/// instead, a match is rejected when any qualifying tuple of that stream
/// arrived strictly between its neighbouring matched positions.
struct SeqPosition {
  std::string alias;
  SchemaPtr schema;
  bool star = false;
  bool negated = false;
};

/// \brief A WHERE conjunct referencing exactly two positions, used to
/// qualify candidate pairings during matching (e.g. `C1.tagid=C4.tagid`).
struct PairwiseConstraint {
  size_t pos_a = 0;  // earlier position
  size_t pos_b = 0;  // later position (bound first during matching)
  BoundExprPtr expr;
  /// An exact key equality (`a.k = b.k` on SeqOperatorConfig::key
  /// columns): true for every pair within one non-NULL key partition.
  /// Still evaluated; read by RecentPurgeIsExact.
  bool implied_by_key = false;
};

/// \brief Resolved window for a sequence operator: `OVER [len PRECEDING
/// Ei]` bounds positions at or before the anchor to `anchor.ts - len`;
/// FOLLOWING bounds positions at or after the anchor to `anchor.ts + len`.
struct SeqWindow {
  Duration length = 0;
  WindowDirection direction = WindowDirection::kPreceding;
  size_t anchor = 0;  // position index
};

/// \brief Full configuration of a SeqOperator.
struct SeqOperatorConfig {
  std::vector<SeqPosition> positions;
  PairingMode mode = PairingMode::kUnrestricted;
  std::optional<SeqWindow> window;

  /// Per-position unary conjuncts; arrivals failing them are ignored.
  std::vector<BoundExprPtr> arrival_filters;  // size == positions, may be null
  /// Conjuncts over two positions, checked while pairing.
  std::vector<PairwiseConstraint> pairwise;
  /// Per-position star gates (conjuncts with `.previous.`): an arriving
  /// tuple failing the gate closes the open group and starts a new one.
  std::vector<BoundExprPtr> star_gates;  // size == positions, may be null
  /// Remaining conjuncts, checked on complete matches.
  std::vector<BoundExprPtr> final_checks;

  /// Output row: expressions over the position slots (+ star groups).
  std::vector<BoundExprPtr> projection;
  SchemaPtr out_schema;

  /// When >= 0, emit one output row per tuple of this starred position
  /// (the paper's multiple-return star queries, footnote 4).
  int per_tuple_star = -1;

  /// Equality key (DESIGN.md §18): key[p] are position p's key columns,
  /// slot-aligned across positions. Empty = one partition. When set, a
  /// trigger searches only the history entries of its own key.
  std::vector<std::vector<size_t>> key;
};

/// \brief Configuration of an ExceptionSeqOperator. Levels: a terminal
/// event carries completion level k == number of positions completed;
/// exceptions have k < n, a completed sequence has k == n.
///
/// Star positions are supported everywhere except the final position
/// (the paper allows "repeating star sequences" in EXCEPTION_SEQ but a
/// trailing star has no completion point to level against): a starred
/// position accepts one or more tuples, gated by its star gate; a gate
/// failure, like any wrong tuple, is a violation.
struct ExceptionSeqConfig {
  std::vector<SeqPosition> positions;
  /// CONSECUTIVE (default, the paper's workflow example) or RECENT
  /// (the paper's replacement example).
  PairingMode mode = PairingMode::kConsecutive;
  std::optional<SeqWindow> window;  // FOLLOWING windows define deadlines

  std::vector<BoundExprPtr> arrival_filters;
  std::vector<BoundExprPtr> star_gates;  // size == positions, may be null
  std::vector<PairwiseConstraint> pairwise;

  std::vector<BoundExprPtr> projection;
  SchemaPtr out_schema;

  /// Emit a terminal event when the level satisfies this comparison
  /// (lowered from `CLEVEL_SEQ(...) <op> k`; EXCEPTION_SEQ means `< n`).
  BinaryOp level_op = BinaryOp::kLt;
  int64_t level_rhs = 0;  // set to n for EXCEPTION_SEQ
};

/// \brief Format tag leading every SEQ / EXCEPTION_SEQ checkpoint blob.
/// Writers always emit 0, the history matcher's layout. Tag 1 marks state
/// written by the compiled-automaton backend removed in DESIGN.md §14.
inline constexpr uint8_t kSeqCheckpointTag = 0;
inline constexpr uint8_t kRemovedAutomatonCheckpointTag = 1;

/// \brief Reads the tag byte and rejects anything but kSeqCheckpointTag
/// before the caller decodes the rest, so a foreign layout is refused
/// instead of misread.
inline Status ReadSeqCheckpointTag(BinaryDecoder* dec,
                                   const char* operator_name) {
  ESLEV_ASSIGN_OR_RETURN(uint8_t tag, dec->GetU8());
  if (tag == kSeqCheckpointTag) return Status::OK();
  if (tag == kRemovedAutomatonCheckpointTag) {
    return Status::IoError(
        std::string(operator_name) +
        " checkpoint was written by the removed compiled-automaton SEQ "
        "backend (tag 1) and cannot be restored");
  }
  return Status::IoError(std::string(operator_name) +
                         " checkpoint: unknown tag " +
                         std::to_string(static_cast<int>(tag)));
}

}  // namespace eslev

#endif  // ESLEV_CEP_SEQ_CONFIG_H_
