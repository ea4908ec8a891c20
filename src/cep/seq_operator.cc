#include "cep/seq_operator.h"

#include <algorithm>
#include <functional>

namespace eslev {

Result<std::unique_ptr<SeqOperator>> SeqOperator::Make(
    SeqOperatorConfig config) {
  const size_t n = config.positions.size();
  if (n < 2) {
    return Status::Invalid("SEQ requires at least two positions");
  }
  if (config.arrival_filters.empty()) config.arrival_filters.resize(n);
  if (config.star_gates.empty()) config.star_gates.resize(n);
  if (config.arrival_filters.size() != n || config.star_gates.size() != n) {
    return Status::Invalid("filter/gate vectors must match position count");
  }
  if (config.window && config.window->anchor >= n) {
    return Status::Invalid("window anchor out of range");
  }
  size_t stars = 0;
  size_t matchable = 0;
  for (const auto& p : config.positions) {
    if (p.star) ++stars;
    if (p.star && p.negated) {
      return Status::Invalid("a SEQ argument cannot be both negated and "
                             "starred");
    }
    if (!p.negated) ++matchable;
  }
  if (config.positions.front().negated || config.positions.back().negated) {
    return Status::Invalid(
        "the first and last SEQ arguments cannot be negated (a negative "
        "event needs neighbours to bound its interval)");
  }
  if (matchable < 2) {
    return Status::Invalid("SEQ requires at least two non-negated "
                           "arguments");
  }
  if (config.mode == PairingMode::kConsecutive) {
    // Adjacency on the joint history already implies nothing occurred in
    // between, so negation is redundant there; supported anyway via the
    // run-interruption rule in HandleConsecutive.
  }
  if (config.per_tuple_star >= 0) {
    if (static_cast<size_t>(config.per_tuple_star) >= n ||
        !config.positions[config.per_tuple_star].star) {
      return Status::Invalid("per_tuple_star must name a starred position");
    }
    if (stars > 1) {
      return Status::Invalid(
          "multiple-return is only allowed with a single star argument "
          "(paper footnote 4)");
    }
  }
  for (const auto& c : config.pairwise) {
    if (c.pos_a >= c.pos_b || c.pos_b >= n) {
      return Status::Invalid("malformed pairwise constraint");
    }
    if (c.implied_by_key && config.key.empty()) {
      return Status::Invalid("key-implied constraint without a key");
    }
  }
  if (!config.key.empty()) {
    // A keyed search must never need an entry of another key: no joint
    // history (CONSECUTIVE, negation) and no star groups.
    if (config.key.size() != n || config.mode == PairingMode::kConsecutive ||
        stars > 0 || matchable != n) {
      return Status::Invalid(
          "a keyed SEQ needs a key column per position, no star or "
          "negated argument, and a mode other than CONSECUTIVE");
    }
    for (size_t p = 0; p < n; ++p) {
      const auto& cols = config.key[p];
      if (cols.empty() || cols.size() != config.key[0].size()) {
        return Status::Invalid("SEQ key slots differ between positions");
      }
      for (const size_t c : cols) {
        if (c >= config.positions[p].schema->num_fields()) {
          return Status::Invalid("SEQ key column out of range");
        }
      }
    }
  }
  if (!config.out_schema || config.projection.empty()) {
    return Status::Invalid("SEQ operator requires a projection");
  }
  return std::unique_ptr<SeqOperator>(new SeqOperator(std::move(config)));
}

bool RecentPurgeIsExact(const SeqOperatorConfig& config) {
  for (const PairwiseConstraint& c : config.pairwise) {
    if (!c.implied_by_key) return false;
  }
  for (const SeqPosition& p : config.positions) {
    if (p.negated) return false;
  }
  if (!config.window) return true;
  const SeqWindow& w = *config.window;
  if (w.anchor + 1 == config.positions.size()) return true;
  // A FOLLOWING bound is checked during the search only on the anchor
  // itself, which a single-tuple entry always passes.
  return w.direction == WindowDirection::kFollowing &&
         !config.positions[w.anchor].star;
}

SeqOperator::SeqOperator(SeqOperatorConfig config)
    : config_(std::move(config)),
      n_(config_.positions.size()),
      last_is_star_(config_.positions.back().star),
      recent_exact_purge_(RecentPurgeIsExact(config_)),
      history_(n_),
      parts_(n_, nullptr),
      scratch_(n_) {
  for (size_t p = 0; p < n_; ++p) {
    if (!config_.positions[p].negated) matchable_.push_back(p);
  }
}

const SeqOperator::Entry* SeqOperator::NextChosen(
    const std::vector<const Entry*>& chosen, size_t pos) const {
  for (size_t i = pos + 1; i < n_; ++i) {
    if (chosen[i] != nullptr) return chosen[i];
  }
  return nullptr;
}

const SeqOperator::Entry* SeqOperator::PrevChosen(
    const std::vector<const Entry*>& chosen, int pos) const {
  for (int i = pos - 1; i >= 0; --i) {
    if (chosen[i] != nullptr) return chosen[i];
  }
  return nullptr;
}

bool SeqOperator::NegationOk(const std::vector<const Entry*>& chosen) const {
  for (size_t i = 0; i < n_; ++i) {
    if (!config_.positions[i].negated) continue;
    // The interval runs between the nearest non-negated positions. A
    // partial binding checks it only once both ends are bound: CHRONICLE
    // binds left to right, so the nearest *bound* later position may lie
    // beyond the real right neighbour.
    size_t l = i;
    size_t r = i;
    while (config_.positions[l].negated) --l;
    while (config_.positions[r].negated) ++r;
    const Entry* left = chosen[l];
    const Entry* right = chosen[r];
    if (left == nullptr || right == nullptr) continue;
    for (const Entry& e : Candidates(i)) {
      if (Before(left->last_ts(), left->last_seq, e.first_ts(),
                 e.first_seq) &&
          Before(e.last_ts(), e.last_seq, right->first_ts(),
                 right->first_seq)) {
        return false;  // the forbidden event occurred in between
      }
    }
  }
  return true;
}

size_t SeqOperator::history_size() const {
  // A plain position's entries are single tuples; only star groups
  // (never keyed) need walking.
  size_t total = 0;
  for (size_t p = 0; p < n_; ++p) {
    if (!config_.positions[p].star) {
      total += history_[p].size();
      continue;
    }
    history_[p].ForEachItem(
        [&total](const Entry& e) { total += e.tuples.size(); });
  }
  for (const auto& e : run_) total += e.tuples.size();
  return total;
}

bool SeqOperator::EncodeKey(size_t pos, const Tuple& tuple) {
  if (!keyed()) {
    key_.clear();
    return true;
  }
  if (EncodeSqlKey(tuple, config_.key[pos], &key_)) return true;
  key_.clear();  // never a keyed probe's key
  return false;
}

void SeqOperator::BindPartitions() {
  // The last position is stored only as a trailing star's group.
  const size_t stored = last_is_star_ ? n_ : n_ - 1;
  for (size_t p = 0; p < stored; ++p) parts_[p] = history_[p].Find(key_);
}

const std::deque<SeqOperator::Entry>& SeqOperator::Candidates(
    size_t pos) const {
  static const std::deque<Entry> kNone;
  return parts_[pos] == nullptr ? kNone : parts_[pos]->items;
}

Result<bool> SeqOperator::PassesArrivalFilter(size_t pos, const Tuple& tuple) {
  if (!config_.arrival_filters[pos]) return true;
  scratch_.Clear();
  scratch_.SetTuple(pos, &tuple);
  return EvalPredicate(*config_.arrival_filters[pos], scratch_.Row());
}

Result<bool> SeqOperator::PassesStarGate(size_t pos, const Tuple& tuple,
                                         const Tuple& previous) {
  if (!config_.star_gates[pos]) return true;
  scratch_.Clear();
  scratch_.SetTuple(pos, &tuple);
  scratch_.SetPrevious(pos, &previous);
  return EvalPredicate(*config_.star_gates[pos], scratch_.Row());
}

Result<bool> SeqOperator::PassesPairwise(const PairwiseConstraint& c,
                                         const Entry& ea, const Entry& eb) {
  scratch_.Clear();
  scratch_.SetTuple(c.pos_a, &ea.tuples.back());
  scratch_.SetTuple(c.pos_b, &eb.tuples.back());
  if (config_.positions[c.pos_a].star) {
    scratch_.SetStarGroup(c.pos_a, &ea.tuples);
  }
  if (config_.positions[c.pos_b].star) {
    scratch_.SetStarGroup(c.pos_b, &eb.tuples);
  }
  return EvalPredicate(*c.expr, scratch_.Row());
}

Result<bool> SeqOperator::PairwiseOkWithChosen(
    size_t pos, const Entry& candidate,
    const std::vector<const Entry*>& chosen) {
  for (const auto& c : config_.pairwise) {
    const Entry* ea = nullptr;
    const Entry* eb = nullptr;
    if (c.pos_a == pos && chosen[c.pos_b] != nullptr) {
      ea = &candidate;
      eb = chosen[c.pos_b];
    } else if (c.pos_b == pos && chosen[c.pos_a] != nullptr) {
      ea = chosen[c.pos_a];
      eb = &candidate;
    } else {
      continue;
    }
    ESLEV_ASSIGN_OR_RETURN(bool ok, PassesPairwise(c, *ea, *eb));
    if (!ok) return false;
  }
  return true;
}

bool SeqOperator::WindowOk(size_t pos, const Entry& entry,
                           const std::vector<const Entry*>& chosen) const {
  if (!config_.window) return true;
  const SeqWindow& w = *config_.window;
  const Entry* anchor =
      pos == w.anchor ? &entry : chosen[w.anchor];
  if (anchor == nullptr) return true;  // verified again at emission
  const bool preceding_side =
      w.direction == WindowDirection::kPreceding ||
      w.direction == WindowDirection::kPrecedingAndFollowing;
  const bool following_side =
      w.direction == WindowDirection::kFollowing ||
      w.direction == WindowDirection::kPrecedingAndFollowing;
  if (preceding_side && pos <= w.anchor &&
      entry.first_ts() < anchor->last_ts() - w.length) {
    return false;
  }
  if (following_side && pos >= w.anchor &&
      entry.last_ts() > anchor->first_ts() + w.length) {
    return false;
  }
  return true;
}

Status SeqOperator::ProcessTuple(size_t port, const Tuple& tuple) {
  if (port >= n_) {
    return Status::ExecutionError("SEQ port out of range");
  }
  const uint64_t seq = arrival_seq_++;
  ESLEV_ASSIGN_OR_RETURN(bool pass, PassesArrivalFilter(port, tuple));
  if (!pass) return Status::OK();
  return ProcessArrival(port, tuple, seq);
}

Status SeqOperator::ProcessArrival(size_t port, const Tuple& tuple,
                                   uint64_t seq) {
  EvictByWindow(tuple.ts());
  // A NULL key satisfies no key equality: the tuple is kept (under the
  // empty key, which no keyed trigger probes) but never searched for.
  const bool matchable = EncodeKey(port, tuple);

  if (config_.positions[port].negated &&
      config_.mode != PairingMode::kConsecutive) {
    // A forbidden event: record it for interval checks; it never
    // participates in matching directly.
    return StoreArrival(port, tuple, seq);
  }

  if (config_.mode == PairingMode::kConsecutive) {
    return HandleConsecutive(port, tuple, seq);
  }

  if (port == n_ - 1) {
    if (last_is_star_) {
      // Trailing star (never keyed): accumulate and emit online, once
      // per arrival.
      ESLEV_RETURN_NOT_OK(StoreArrival(port, tuple, seq));
      BindPartitions();
      const Entry& group = parts_[port]->items.back();
      switch (config_.mode) {
        case PairingMode::kRecent:
          ESLEV_RETURN_NOT_OK(MatchRecent(group));
          break;
        case PairingMode::kChronicle:
          ESLEV_RETURN_NOT_OK(MatchChronicle(group));
          break;
        default:
          ESLEV_RETURN_NOT_OK(MatchUnrestricted(group));
          break;
      }
      return Status::OK();
    }
    if (!matchable) return Status::OK();
    BindPartitions();
    Entry trigger;
    trigger.tuples.push_back(tuple);
    trigger.first_seq = trigger.last_seq = seq;
    switch (config_.mode) {
      case PairingMode::kRecent:
        return MatchRecent(trigger);
      case PairingMode::kChronicle:
        return MatchChronicle(trigger);
      default:
        return MatchUnrestricted(trigger);
    }
  }

  ESLEV_RETURN_NOT_OK(StoreArrival(port, tuple, seq));
  if (config_.mode == PairingMode::kRecent && recent_exact_purge_) {
    BindPartitions();
    PurgeRecent();
  }
  return Status::OK();
}

Status SeqOperator::ProcessBatch(size_t port, const TupleBatch& batch) {
  if (port >= n_) {
    return Status::ExecutionError("SEQ port out of range");
  }
  // Columnar pre-pass: arrival filters are pure single-position
  // predicates, so evaluating one expression tree across the whole run
  // up front accepts exactly the tuples the inline check would.
  batch_selection_.assign(batch.size(), 1);
  if (config_.arrival_filters[port]) {
    for (size_t i = 0; i < batch.size(); ++i) {
      ESLEV_ASSIGN_OR_RETURN(bool pass, PassesArrivalFilter(port, batch[i]));
      if (!pass) batch_selection_[i] = 0;
    }
  }
  // History mutation and matching are order-dependent: run them per tuple
  // in arrival order, collecting emissions into one output batch.
  // Rejected tuples still consume an arrival sequence number, exactly as
  // in ProcessTuple.
  TupleBatch out;
  batch_out_ = &out;
  Status st = Status::OK();
  for (size_t i = 0; i < batch.size(); ++i) {
    const uint64_t seq = arrival_seq_++;
    if (!batch_selection_[i]) continue;
    st = ProcessArrival(port, batch[i], seq);
    if (!st.ok()) break;
  }
  batch_out_ = nullptr;
  ESLEV_RETURN_NOT_OK(st);
  return EmitBatch(out);
}

Status SeqOperator::EmitOut(const Tuple& tuple) {
  if (batch_out_ != nullptr) {
    batch_out_->Add(tuple);
    return Status::OK();
  }
  return Emit(tuple);
}

size_t SeqOperator::open_star_length() const {
  size_t total = 0;
  for (size_t p = 0; p < n_; ++p) {
    if (!config_.positions[p].star) continue;  // only groups stay open
    history_[p].ForEachItem([&total](const Entry& e) {
      if (e.open) total += e.tuples.size();
    });
  }
  for (const auto& e : run_) {
    if (e.open) total += e.tuples.size();
  }
  return total;
}

void SeqOperator::AppendStats(OperatorStatList* out) const {
  out->push_back({"retained_history", static_cast<int64_t>(history_size())});
  out->push_back({"tuples_stored", static_cast<int64_t>(tuples_stored_)});
  out->push_back({"tuples_purged", static_cast<int64_t>(tuples_purged_)});
  out->push_back({"matches", static_cast<int64_t>(matches_emitted_)});
  out->push_back(
      {"open_star_length", static_cast<int64_t>(open_star_length())});
  if (keyed()) {
    // Distinct keys retained at the busiest position.
    size_t partitions = 0;
    for (const History& h : history_) {
      partitions = std::max(partitions, h.partitions());
    }
    out->push_back({"key_partitions", static_cast<int64_t>(partitions)});
  }
}

Status SeqOperator::StoreArrival(size_t pos, const Tuple& tuple,
                                 uint64_t seq) {
  ++tuples_stored_;
  if (config_.positions[pos].star) {
    History::Partition* part = history_[pos].Find(key_);
    if (part != nullptr && part->items.back().open) {
      Entry& group = part->items.back();
      ESLEV_ASSIGN_OR_RETURN(
          bool same_group, PassesStarGate(pos, tuple, group.tuples.back()));
      if (same_group) {
        group.tuples.push_back(tuple);
        group.last_seq = seq;
        return Status::OK();
      }
      group.open = false;  // gap: close (Figure 1(b))
    }
    Entry fresh;
    fresh.tuples.push_back(tuple);
    fresh.first_seq = fresh.last_seq = seq;
    fresh.open = true;
    history_[pos].PushBack(key_, std::move(fresh));
    return Status::OK();
  }
  Entry e;
  e.tuples.push_back(tuple);
  e.first_seq = e.last_seq = seq;
  history_[pos].PushBack(key_, std::move(e));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// UNRESTRICTED
// ---------------------------------------------------------------------------

Status SeqOperator::MatchUnrestricted(const Entry& trigger) {
  std::vector<const Entry*> chosen(n_, nullptr);
  chosen[n_ - 1] = &trigger;
  return EnumerateFrom(static_cast<int>(n_) - 2, &chosen);
}

Status SeqOperator::EnumerateFrom(int pos, std::vector<const Entry*>* chosen) {
  if (pos < 0) {
    return EmitMatch(*chosen);
  }
  if (config_.positions[pos].negated) {
    return EnumerateFrom(pos - 1, chosen);
  }
  const Entry& next = *NextChosen(*chosen, static_cast<size_t>(pos));
  for (const Entry& e : Candidates(static_cast<size_t>(pos))) {
    if (!Before(e.last_ts(), e.last_seq, next.first_ts(), next.first_seq)) {
      continue;
    }
    if (!WindowOk(pos, e, *chosen)) continue;
    ESLEV_ASSIGN_OR_RETURN(bool ok, PairwiseOkWithChosen(pos, e, *chosen));
    if (!ok) continue;
    (*chosen)[pos] = &e;
    if (!NegationOk(*chosen)) {  // forbidden event inside a bound interval
      (*chosen)[pos] = nullptr;
      continue;
    }
    ESLEV_RETURN_NOT_OK(EnumerateFrom(pos - 1, chosen));
    (*chosen)[pos] = nullptr;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// RECENT
// ---------------------------------------------------------------------------

Status SeqOperator::MatchRecent(const Entry& trigger) {
  std::vector<const Entry*> chosen(n_, nullptr);
  chosen[n_ - 1] = &trigger;

  // Most-recent-first depth-first search. Plain greedy selection is not
  // enough: qualification can chain through an earlier position (the
  // paper's Example 6 writes C1.tagid=C2.tagid AND C1.tagid=C3.tagid,
  // so whether a C3 candidate "qualifies" only becomes checkable once
  // C1 is bound). Backtracking restores the paper's intent — the most
  // recent combination that satisfies all qualifying conditions.
  std::function<Result<bool>(int)> dfs = [&](int pos) -> Result<bool> {
    if (pos < 0) return true;
    if (config_.positions[pos].negated) return dfs(pos - 1);
    const Entry& next = *NextChosen(chosen, static_cast<size_t>(pos));
    const auto& dq = Candidates(static_cast<size_t>(pos));
    for (auto it = dq.rbegin(); it != dq.rend(); ++it) {
      const Entry& e = *it;
      if (!Before(e.last_ts(), e.last_seq, next.first_ts(),
                  next.first_seq)) {
        continue;
      }
      if (!WindowOk(pos, e, chosen)) continue;
      ESLEV_ASSIGN_OR_RETURN(bool ok, PairwiseOkWithChosen(pos, e, chosen));
      if (!ok) continue;
      chosen[pos] = &e;
      if (!NegationOk(chosen)) {
        chosen[pos] = nullptr;
        continue;
      }
      ESLEV_ASSIGN_OR_RETURN(bool done, dfs(pos - 1));
      if (done) return true;
      chosen[pos] = nullptr;
    }
    return false;
  };
  ESLEV_ASSIGN_OR_RETURN(bool found, dfs(static_cast<int>(n_) - 2));
  if (!found) return Status::OK();  // no event
  return EmitMatch(chosen);
}

// ---------------------------------------------------------------------------
// CHRONICLE
// ---------------------------------------------------------------------------

Status SeqOperator::MatchChronicle(const Entry& trigger) {
  std::vector<const Entry*> chosen(n_, nullptr);
  chosen[n_ - 1] = &trigger;

  // Depth-first search choosing the earliest qualifying entries, forward
  // from position 0.
  std::vector<size_t> pick(n_, 0);
  bool found = false;
  std::function<Result<bool>(size_t)> dfs =
      [&](size_t pos) -> Result<bool> {
    if (pos == n_ - 1) return true;
    if (config_.positions[pos].negated) return dfs(pos + 1);
    const auto& dq = Candidates(pos);
    for (size_t i = 0; i < dq.size(); ++i) {
      const Entry& e = dq[i];
      // Order: after the previous chosen entry, before the trigger.
      if (const Entry* prev_entry = PrevChosen(chosen, static_cast<int>(pos))) {
        const Entry& prev = *prev_entry;
        if (!Before(prev.last_ts(), prev.last_seq, e.first_ts(),
                    e.first_seq)) {
          continue;
        }
      }
      if (!Before(e.last_ts(), e.last_seq, trigger.first_ts(),
                  trigger.first_seq)) {
        continue;  // deque is time-ordered; later ones fail too
      }
      if (!WindowOk(pos, e, chosen)) continue;
      ESLEV_ASSIGN_OR_RETURN(bool ok, PairwiseOkWithChosen(pos, e, chosen));
      if (!ok) continue;
      chosen[pos] = &e;
      if (!NegationOk(chosen)) {
        chosen[pos] = nullptr;
        continue;
      }
      pick[pos] = i;
      ESLEV_ASSIGN_OR_RETURN(bool done, dfs(pos + 1));
      if (done) return true;
      chosen[pos] = nullptr;
    }
    return false;
  };
  ESLEV_ASSIGN_OR_RETURN(found, dfs(0));
  if (!found) return Status::OK();

  const uint64_t emitted_before = matches_emitted_;
  ESLEV_RETURN_NOT_OK(EmitMatch(chosen));
  if (matches_emitted_ == emitted_before) {
    // Final checks rejected the earliest combination: per CHRONICLE, the
    // tuples are not consumed and no event is produced for this trigger.
    return Status::OK();
  }
  // Consume: each tuple participates in at most one event. Negated
  // positions contributed no tuple and are not consumed.
  for (size_t pos = 0; pos + 1 < n_; ++pos) {
    if (config_.positions[pos].negated) continue;
    tuples_purged_ += parts_[pos]->items[pick[pos]].tuples.size();
    history_[pos].Erase(parts_[pos], pick[pos]);
  }
  if (last_is_star_ && parts_[n_ - 1] != nullptr) {
    // A consumed trailing group cannot participate again.
    for (const Entry& e : parts_[n_ - 1]->items) {
      tuples_purged_ += e.tuples.size();
    }
    history_[n_ - 1].Retain(parts_[n_ - 1], {});
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CONSECUTIVE
// ---------------------------------------------------------------------------

Status SeqOperator::HandleConsecutive(size_t pos, const Tuple& tuple,
                                      uint64_t seq) {
  // run_[k] binds position matchable_[k]: negated positions carry no
  // tuple, so the run skips them and any arrival on them interrupts it.
  auto purge_run = [&]() {
    for (const Entry& e : run_) tuples_purged_ += e.tuples.size();
    run_.clear();
  };
  auto start_new_run = [&]() {
    purge_run();
    if (pos == 0) {
      Entry e;
      e.tuples.push_back(tuple);
      e.first_seq = e.last_seq = seq;
      e.open = config_.positions[0].star;
      ++tuples_stored_;
      run_.push_back(std::move(e));
    }
  };
  auto run_chosen = [&]() {
    std::vector<const Entry*> chosen(n_, nullptr);
    for (size_t k = 0; k < run_.size(); ++k) {
      chosen[matchable_[k]] = &run_[k];
    }
    return chosen;
  };

  if (config_.positions[pos].negated) {
    // The forbidden event occurred on the joint history: any active run
    // is no longer a run of adjacent tuples.
    purge_run();
    return Status::OK();
  }

  if (run_.empty()) {
    start_new_run();
    return Status::OK();
  }

  const size_t cur = matchable_[run_.size() - 1];
  // Same-position arrival on an open star group: try to extend.
  if (pos == cur && config_.positions[cur].star && run_.back().open) {
    Entry& group = run_.back();
    ESLEV_ASSIGN_OR_RETURN(bool same_group,
                           PassesStarGate(pos, tuple, group.tuples.back()));
    if (same_group) {
      group.tuples.push_back(tuple);
      group.last_seq = seq;
      ++tuples_stored_;
      if (cur == n_ - 1) {
        // Trailing star completes on every arrival.
        ESLEV_RETURN_NOT_OK(EmitMatch(run_chosen()));
      }
      return Status::OK();
    }
    start_new_run();
    return Status::OK();
  }

  // Expected next position.
  if (run_.size() < matchable_.size() && pos == matchable_[run_.size()]) {
    Entry cand;
    cand.tuples.push_back(tuple);
    cand.first_seq = cand.last_seq = seq;
    cand.open = config_.positions[pos].star;
    const Entry& prev = run_.back();
    bool ok = Before(prev.last_ts(), prev.last_seq, cand.first_ts(),
                     cand.first_seq);
    if (ok) {
      const std::vector<const Entry*> chosen = run_chosen();
      if (!WindowOk(pos, cand, chosen)) ok = false;
      if (ok) {
        ESLEV_ASSIGN_OR_RETURN(ok, PairwiseOkWithChosen(pos, cand, chosen));
      }
    }
    if (!ok) {
      start_new_run();
      return Status::OK();
    }
    ++tuples_stored_;
    run_.push_back(std::move(cand));
    if (pos == n_ - 1) {
      ESLEV_RETURN_NOT_OK(EmitMatch(run_chosen()));
      if (!config_.positions[pos].star) {
        purge_run();  // completed; trailing star keeps accumulating
      }
    }
    return Status::OK();
  }

  // Any other arrival interrupts the run.
  start_new_run();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Emission and purging
// ---------------------------------------------------------------------------

Status SeqOperator::EmitMatch(const std::vector<const Entry*>& chosen) {
  // Full window verification (prunes during search may have lacked the
  // anchor binding). Negated positions carry no entry.
  for (size_t pos = 0; pos < n_; ++pos) {
    if (chosen[pos] == nullptr) continue;
    if (!WindowOk(pos, *chosen[pos], chosen)) return Status::OK();
  }
  if (!NegationOk(chosen)) return Status::OK();
  scratch_.Clear();
  for (size_t pos = 0; pos < n_; ++pos) {
    if (chosen[pos] == nullptr) continue;
    scratch_.SetTuple(pos, &chosen[pos]->tuples.back());
    if (config_.positions[pos].star) {
      scratch_.SetStarGroup(pos, &chosen[pos]->tuples);
    }
  }
  for (const auto& check : config_.final_checks) {
    ESLEV_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*check, scratch_.Row()));
    if (!ok) return Status::OK();
  }
  ++matches_emitted_;
  const Timestamp out_ts = chosen[n_ - 1]->last_ts();

  auto project_and_emit = [&]() -> Status {
    std::vector<Value> values;
    values.reserve(config_.projection.size());
    for (const auto& e : config_.projection) {
      ESLEV_ASSIGN_OR_RETURN(Value v, e->Eval(scratch_.Row()));
      values.push_back(std::move(v));
    }
    ESLEV_ASSIGN_OR_RETURN(
        Tuple out, MakeTuple(config_.out_schema, std::move(values), out_ts));
    return EmitOut(out);
  };

  if (config_.per_tuple_star >= 0) {
    const size_t star_pos = static_cast<size_t>(config_.per_tuple_star);
    for (const Tuple& member : chosen[star_pos]->tuples) {
      scratch_.SetTuple(star_pos, &member);
      ESLEV_RETURN_NOT_OK(project_and_emit());
    }
    return Status::OK();
  }
  return project_and_emit();
}

void SeqOperator::EvictByWindow(Timestamp now) {
  if (!config_.window) return;
  const SeqWindow& w = *config_.window;
  const bool preceding_last =
      (w.direction == WindowDirection::kPreceding ||
       w.direction == WindowDirection::kPrecedingAndFollowing) &&
      w.anchor == n_ - 1;
  if (!preceding_last) return;
  for (History& h : history_) {
    while (const Entry* e = h.Front()) {
      if (e->open || e->last_ts() >= now - w.length) break;
      tuples_purged_ += e->tuples.size();
      h.PopFront();
    }
  }
}

void SeqOperator::PurgeRecent() {
  // Exact retained-set computation when qualification within the bound
  // key partition is purely time-order (each other key's partition was
  // purged when it last grew; RecentPurgeIsExact rules out negation):
  // position n-1 triggers arrive in the future, so retained(n-2) needs
  // only its most recent entry; retained(i) needs, for each retained
  // entry r at i+1, the most recent entry ending before r starts — plus
  // the most recent entry overall (for future arrivals at i+1).
  //
  // Nothing can drop while every position holds at most one entry (the
  // common case of a keyed history).
  if (std::all_of(parts_.begin(), parts_.end() - 1,
                  [](const History::Partition* p) {
                    return p == nullptr || p->items.size() <= 1;
                  })) {
    return;
  }
  std::vector<std::vector<size_t>> keep(n_);
  // Bounds for position i come from retained entries at position i+1.
  std::vector<const Entry*> bounds;  // entries at pos+1 to stay matchable
  for (int pos = static_cast<int>(n_) - 2; pos >= 0; --pos) {
    const auto& dq = Candidates(static_cast<size_t>(pos));
    std::vector<size_t> retained;
    if (!dq.empty()) {
      // Most recent overall (serves all future next-position arrivals).
      retained.push_back(dq.size() - 1);
      for (const Entry* b : bounds) {
        // Most recent entry ending before b begins.
        for (size_t i = dq.size(); i-- > 0;) {
          if (Before(dq[i].last_ts(), dq[i].last_seq, b->first_ts(),
                     b->first_seq)) {
            retained.push_back(i);
            break;
          }
        }
      }
      // An open star group is still accumulating and must survive.
      for (size_t i = 0; i < dq.size(); ++i) {
        if (dq[i].open) retained.push_back(i);
      }
      std::sort(retained.begin(), retained.end());
      retained.erase(std::unique(retained.begin(), retained.end()),
                     retained.end());
    }
    keep[pos] = retained;
    bounds.clear();
    for (size_t idx : retained) bounds.push_back(&dq[idx]);
  }
  for (size_t pos = 0; pos + 1 < n_; ++pos) {
    if (parts_[pos] == nullptr) continue;
    size_t dropped = 0;
    for (const Entry& e : parts_[pos]->items) dropped += e.tuples.size();
    history_[pos].Retain(parts_[pos], keep[pos]);
    for (const Entry& e : parts_[pos]->items) dropped -= e.tuples.size();
    tuples_purged_ += dropped;
  }
}

Status SeqOperator::ProcessHeartbeat(Timestamp now) {
  EvictByWindow(now);
  return EmitHeartbeat(now);
}

Status SeqOperator::SaveState(BinaryEncoder* enc) const {
  enc->PutU8(kSeqCheckpointTag);
  const auto put_entry = [enc](const Entry& e) {
    enc->PutU32(static_cast<uint32_t>(e.tuples.size()));
    for (const Tuple& t : e.tuples) enc->PutTuple(t);
    enc->PutU64(e.first_seq);
    enc->PutU64(e.last_seq);
    enc->PutBool(e.open);
  };
  enc->PutU64(arrival_seq_);
  enc->PutU64(matches_emitted_);
  enc->PutU64(tuples_stored_);
  enc->PutU64(tuples_purged_);
  enc->PutU32(static_cast<uint32_t>(history_.size()));
  for (const History& position : history_) {
    enc->PutU32(static_cast<uint32_t>(position.size()));
    position.ForEachInOrder([&put_entry](const Entry& e) {
      put_entry(e);
      return true;
    });
  }
  enc->PutU32(static_cast<uint32_t>(run_.size()));
  for (const Entry& e : run_) put_entry(e);
  return Status::OK();
}

Status SeqOperator::ValidateStateFormat(const std::string& blob) const {
  BinaryDecoder dec(blob);
  return ReadSeqCheckpointTag(&dec, "SEQ");
}

Status SeqOperator::RestoreState(BinaryDecoder* dec) {
  ESLEV_RETURN_NOT_OK(ReadSeqCheckpointTag(dec, "SEQ"));
  const auto get_entry = [dec](Entry* e) -> Status {
    ESLEV_ASSIGN_OR_RETURN(uint32_t ntuples, dec->GetU32());
    if (ntuples == 0) {
      return Status::IoError("SEQ checkpoint: empty history entry");
    }
    e->tuples.reserve(ntuples);
    for (uint32_t i = 0; i < ntuples; ++i) {
      ESLEV_ASSIGN_OR_RETURN(Tuple t, dec->GetTuple());
      e->tuples.push_back(std::move(t));
    }
    ESLEV_ASSIGN_OR_RETURN(e->first_seq, dec->GetU64());
    ESLEV_ASSIGN_OR_RETURN(e->last_seq, dec->GetU64());
    ESLEV_ASSIGN_OR_RETURN(e->open, dec->GetBool());
    return Status::OK();
  };
  ESLEV_ASSIGN_OR_RETURN(arrival_seq_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(matches_emitted_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(tuples_stored_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(tuples_purged_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(uint32_t npos, dec->GetU32());
  if (npos != n_) {
    return Status::IoError("SEQ checkpoint: position count mismatch (file " +
                           std::to_string(npos) + ", plan " +
                           std::to_string(n_) + ")");
  }
  // Entries were saved in arrival order; re-deriving each one's key
  // rebuilds the partitions.
  for (size_t pos = 0; pos < n_; ++pos) {
    history_[pos].Clear();
    ESLEV_ASSIGN_OR_RETURN(uint32_t nentries, dec->GetU32());
    for (uint32_t i = 0; i < nentries; ++i) {
      Entry e;
      ESLEV_RETURN_NOT_OK(get_entry(&e));
      EncodeKey(pos, e.tuples.back());
      history_[pos].PushBack(key_, std::move(e));
    }
  }
  std::fill(parts_.begin(), parts_.end(), nullptr);
  run_.clear();
  ESLEV_ASSIGN_OR_RETURN(uint32_t nrun, dec->GetU32());
  if (nrun > matchable_.size()) {
    return Status::IoError("SEQ checkpoint: run longer than position count");
  }
  for (uint32_t i = 0; i < nrun; ++i) {
    Entry e;
    ESLEV_RETURN_NOT_OK(get_entry(&e));
    run_.push_back(std::move(e));
  }
  return Status::OK();
}

}  // namespace eslev
