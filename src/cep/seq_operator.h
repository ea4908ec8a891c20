// SeqOperator: the paper's SEQ temporal event operator (§3.1.1-3.1.2).
//
// Detects sequences of tuples across n argument streams under a Tuple
// Pairing Mode, with optional sliding windows anchored at any position
// and star (repeating) arguments.
//
// Semantics implemented (see DESIGN.md §5 for the full discussion):
//  * Sequence order is strict: position i+1's tuple must arrive after
//    position i's, compared by (timestamp, arrival index).
//  * The final position triggers matching on arrival; final-position
//    tuples are never stored (they cannot participate in later events).
//  * UNRESTRICTED enumerates all qualifying combinations; RECENT emits at
//    most one event per trigger using the most recent qualifying tuples;
//    CHRONICLE uses the earliest qualifying tuples and consumes them;
//    CONSECUTIVE requires the tuples to be adjacent on the joint history
//    of the participating streams.
//  * Star positions accumulate *groups*: the open group extends while
//    the position's star gate (`.previous.` conjuncts) passes; a failing
//    arrival closes the group and opens a new one (Figure 1(b)'s
//    inter-product gap). Matching always uses the longest group
//    available (the paper's longest-match rule); a trailing star emits
//    online, once per arrival.
//  * History purging: final position never stored; CHRONICLE removes
//    consumed tuples; CONSECUTIVE keeps only the current partial run;
//    RECENT prunes entries that can no longer be the most recent
//    qualifying choice (only when that is exact: no pairwise
//    constraints beyond the key equalities, no negation, no window bound
//    that can make the search backtrack); windowed operators evict
//    expired entries.
//  * Keyed history (DESIGN.md §18): with SeqOperatorConfig::key set, each
//    position's history is partitioned on the key and a trigger searches
//    only its own key's entries — the same search, over the only entries
//    that can satisfy the key equalities.

#ifndef ESLEV_CEP_SEQ_OPERATOR_H_
#define ESLEV_CEP_SEQ_OPERATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cep/seq_config.h"
#include "stream/operator.h"
#include "stream/window_buffer.h"

namespace eslev {

/// \brief Whether RECENT may purge its history (PurgeRecent) without
/// changing any emission. The purge keeps per position only what a
/// most-recent-first search selects when it never backtracks past its
/// first candidate at a later position. Pairwise constraints, negated
/// positions, and a window bound checked against an anchor that is not
/// the trigger can each force such a backtrack, so each turns it off —
/// except exact key equalities, which hold throughout the one key
/// partition a keyed search walks (the purge then runs per partition).
/// The cost model prices RECENT state with the same license (§16).
bool RecentPurgeIsExact(const SeqOperatorConfig& config);

class SeqOperator : public Operator {
 public:
  /// \brief Validates the configuration (e.g. a usable window anchor,
  /// at most one per-tuple star) and builds the operator.
  static Result<std::unique_ptr<SeqOperator>> Make(SeqOperatorConfig config);

  /// \brief The validated configuration the operator runs — positions,
  /// pairing mode, window. Read by the cost model (DESIGN.md §16).
  const SeqOperatorConfig& config() const { return config_; }

  /// \brief Port == position index.
  Status ProcessTuple(size_t port, const Tuple& tuple) override;
  /// \brief Native batch path (DESIGN.md §13): a columnar arrival-filter
  /// pre-pass over the run, per-tuple in-order history/matching (the
  /// joint history is order-dependent), and match emissions collected
  /// into one output batch.
  Status ProcessBatch(size_t port, const TupleBatch& batch) override;
  Status ProcessHeartbeat(Timestamp now) override;

  /// \brief Total tuples retained across all positions — the state-size
  /// metric behind the paper's purging claims (bench E6).
  size_t history_size() const;

  uint64_t matches_emitted() const { return matches_emitted_; }

  /// \brief Tuples ever admitted to the joint history (final-position
  /// triggers are never stored and do not count).
  uint64_t tuples_stored() const { return tuples_stored_; }
  /// \brief Tuples removed from the history by any purge path: window
  /// eviction, RECENT pruning, CHRONICLE consumption, or CONSECUTIVE run
  /// resets. Invariant: tuples_stored() - tuples_purged() == history_size().
  uint64_t tuples_purged() const { return tuples_purged_; }
  /// \brief Tuples in still-open (accumulating) star groups.
  size_t open_star_length() const;

  /// \brief Whether the history is partitioned on an equality key.
  bool keyed() const { return !config_.key.empty(); }

  void AppendStats(OperatorStatList* out) const override;

  /// \brief Checkpoint the joint-tuple history (all pairing modes), the
  /// CONSECUTIVE run, and the arrival/match/purge counters.
  Status SaveState(BinaryEncoder* enc) const override;
  Status RestoreState(BinaryDecoder* dec) override;
  /// \brief Rejects any checkpoint tag but kSeqCheckpointTag.
  Status ValidateStateFormat(const std::string& blob) const override;

 private:
  // A history entry: one tuple for plain positions, a group for stars.
  struct Entry {
    std::vector<Tuple> tuples;
    uint64_t first_seq = 0;
    uint64_t last_seq = 0;
    bool open = false;  // star group still accumulating

    Timestamp first_ts() const { return tuples.front().ts(); }
    Timestamp last_ts() const { return tuples.back().ts(); }
  };
  struct EntrySeq {
    uint64_t operator()(const Entry& e) const { return e.first_seq; }
  };
  // One position's history: a deque per key plus the arrival order.
  using History = KeyedDeque<Entry, EntrySeq>;

  explicit SeqOperator(SeqOperatorConfig config);

  // (ts, seq) strict ordering between entry boundaries.
  static bool Before(Timestamp ts_a, uint64_t seq_a, Timestamp ts_b,
                     uint64_t seq_b) {
    return ts_a < ts_b || (ts_a == ts_b && seq_a < seq_b);
  }

  Result<bool> PassesArrivalFilter(size_t pos, const Tuple& tuple);
  Result<bool> PassesStarGate(size_t pos, const Tuple& tuple,
                              const Tuple& previous);
  // Evaluate a pairwise constraint with both endpoints bound.
  Result<bool> PassesPairwise(const PairwiseConstraint& c, const Entry& ea,
                              const Entry& eb);
  // All pairwise constraints between `pos` (candidate entry) and already
  // chosen later positions.
  Result<bool> PairwiseOkWithChosen(
      size_t pos, const Entry& candidate,
      const std::vector<const Entry*>& chosen);

  bool WindowOk(size_t pos, const Entry& entry,
                const std::vector<const Entry*>& chosen) const;

  // Mode-specific match triggers; `trigger` is the just-completed entry
  // for the final position.
  Status MatchUnrestricted(const Entry& trigger);
  Status MatchRecent(const Entry& trigger);
  Status MatchChronicle(const Entry& trigger);
  Status HandleConsecutive(size_t pos, const Tuple& tuple, uint64_t seq);

  Status EnumerateFrom(int pos, std::vector<const Entry*>* chosen);
  Status EmitMatch(const std::vector<const Entry*>& chosen);
  // Emit() or, under ProcessBatch, append to the pending output batch.
  Status EmitOut(const Tuple& tuple);
  // ProcessTuple minus port check, seq assignment, and arrival filter —
  // the shared tail of the tuple and batch paths.
  Status ProcessArrival(size_t port, const Tuple& tuple, uint64_t seq);

  // Encode `tuple`'s key at `pos` into key_. False (key_ empty) for a
  // NULL key, which no entry can pair with; unkeyed shapes always get
  // the one empty key.
  bool EncodeKey(size_t pos, const Tuple& tuple);
  // Point parts_ at every position's partition for key_.
  void BindPartitions();
  // The bound partition's entries at `pos` (empty if none).
  const std::deque<Entry>& Candidates(size_t pos) const;

  // Store under key_ (EncodeKey first).
  Status StoreArrival(size_t pos, const Tuple& tuple, uint64_t seq);
  void EvictByWindow(Timestamp now);
  void PurgeRecent();

  // Negative events: nearest bound (non-negated, chosen) neighbours.
  const Entry* NextChosen(const std::vector<const Entry*>& chosen,
                          size_t pos) const;
  const Entry* PrevChosen(const std::vector<const Entry*>& chosen,
                          int pos) const;
  // True iff no stored tuple of any negated position falls strictly
  // between its neighbouring chosen entries.
  bool NegationOk(const std::vector<const Entry*>& chosen) const;

  SeqOperatorConfig config_;
  size_t n_;  // number of positions
  bool last_is_star_;
  bool recent_exact_purge_;  // PurgeRecent drops nothing a search needs
  std::vector<History> history_;            // per position
  std::string key_;                         // the current arrival's key
  std::vector<History::Partition*> parts_;  // key_'s partition per position
  std::vector<size_t> matchable_;           // the non-negated positions
  // CONSECUTIVE state: the current partial run, one entry per filled
  // non-negated position (history_ is unused in that mode).
  std::vector<Entry> run_;
  uint64_t arrival_seq_ = 0;
  uint64_t matches_emitted_ = 0;
  uint64_t tuples_stored_ = 0;
  uint64_t tuples_purged_ = 0;
  RowScratch scratch_;
  TupleBatch* batch_out_ = nullptr;            // non-null inside ProcessBatch
  std::vector<unsigned char> batch_selection_;  // arrival-filter pre-pass
};

}  // namespace eslev

#endif  // ESLEV_CEP_SEQ_OPERATOR_H_
