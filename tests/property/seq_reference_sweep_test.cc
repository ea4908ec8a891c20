// SEQ reference sweep: the history matcher (src/cep/seq_operator.cc)
// against a brute-force matcher written from the paper's §3.1.1
// definitions and the semantics list of DESIGN.md §5.
//
// The reference never searches incrementally. For every arrival on the
// last position (the trigger) it enumerates *every* order-respecting
// binding of the earlier positions to arrivals of the joint history,
// keeps the ones satisfying the pairwise tag equalities and the negation
// rule, and only then applies the pairing mode as a selection policy:
//   UNRESTRICTED  every binding (each checked against the full window);
//   RECENT        the binding whose latest stored position is most
//                 recent, ties broken by the next-latest position, ...;
//   CHRONICLE     the binding whose earliest position is earliest, ties
//                 broken by the next position, over unconsumed arrivals;
//                 an emitted binding consumes its arrivals;
//   CONSECUTIVE   the arrivals directly preceding the trigger on the
//                 joint history, one per non-negated position in order.
// Windows follow the DESIGN.md §5 selection rule for RECENT and
// CHRONICLE: selection sees only the window bounds of positions bound no
// earlier than the anchor in the mode's search order; the selected
// binding is emitted only if it also passes every other window bound.
//
// Shapes: 2-4 positions, all four modes, tag-joined or unconstrained,
// no window or a window anchored at each non-negated position, negated
// middle positions, heartbeats interleaved. Each shape runs on Engine at
// batch sizes 1/7/64 and, when tag-joined, on ShardedEngine with 2 and 4
// shards. Stars and EXCEPTION_SEQ are out of scope here; their unit,
// walkthrough, property, batch, shard and recovery suites cover them.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "cep/pairing_mode.h"
#include "core/engine.h"
#include "core/sharded_engine.h"

namespace eslev {
namespace {

constexpr size_t kNone = std::numeric_limits<size_t>::max();
const size_t kBatchSizes[] = {1, 7, 64};

// One event of a trace: an arrival on position `pos`'s stream, or a
// heartbeat (pos < 0) delivered through AdvanceTime.
struct Event {
  int pos;
  int tag;
  Timestamp ts;
};

struct Shape {
  size_t npos = 2;
  std::vector<bool> negated;  // one per position; never first or last
  PairingMode mode = PairingMode::kUnrestricted;
  bool tag_joined = false;  // S1.tagid = Si.tagid for every matchable i
  bool windowed = false;
  WindowDirection direction = WindowDirection::kPreceding;
  size_t anchor = 0;
  Duration length = 0;

  size_t last() const { return npos - 1; }
  std::vector<size_t> Matchable() const {
    std::vector<size_t> out;
    for (size_t p = 0; p < npos; ++p) {
      if (!negated[p]) out.push_back(p);
    }
    return out;
  }
};

// An emission: the first position's tag, then the tagtime of every
// non-negated position in order (the trigger's last).
using Row = std::vector<int64_t>;

// ---- the reference ---------------------------------------------------------

class Reference {
 public:
  Reference(const Shape& shape, const std::vector<Event>& trace)
      : s_(shape), matchable_(shape.Matchable()) {
    // Heartbeats carry no tuple: the joint history is the arrivals.
    for (const Event& e : trace) {
      if (e.pos >= 0) history_.push_back(e);
    }
  }

  std::vector<Row> Run() {
    std::vector<Row> out;
    consumed_.assign(history_.size(), false);
    for (size_t j = 0; j < history_.size(); ++j) {
      if (static_cast<size_t>(history_[j].pos) != s_.last()) continue;
      if (s_.mode == PairingMode::kConsecutive) {
        std::vector<size_t> b;
        if (AdjacentBinding(j, &b) && Qualifies(b) && AllWindowsHold(b)) {
          out.push_back(RowOf(b));
        }
        continue;
      }
      std::vector<std::vector<size_t>> bindings;
      std::vector<size_t> b(s_.npos, kNone);
      b[s_.last()] = j;
      Enumerate(matchable_.size() - 1, &b, &bindings);
      if (s_.mode == PairingMode::kUnrestricted) {
        for (const auto& c : bindings) {
          if (AllWindowsHold(c)) out.push_back(RowOf(c));
        }
        continue;
      }
      const std::vector<size_t>* selected = nullptr;
      for (const auto& c : bindings) {
        if (!VisibleWindowsHold(c)) continue;
        if (selected == nullptr || Prefer(c, *selected)) selected = &c;
      }
      if (selected == nullptr || !AllWindowsHold(*selected)) continue;
      out.push_back(RowOf(*selected));
      if (s_.mode == PairingMode::kChronicle) {
        for (size_t p : matchable_) consumed_[(*selected)[p]] = true;
      }
    }
    return out;
  }

 private:
  // Every order-respecting binding of the matchable positions before
  // `matchable_[k]` (already bound), filtered by Qualifies().
  void Enumerate(size_t k, std::vector<size_t>* b,
                 std::vector<std::vector<size_t>>* out) {
    if (k == 0) {
      if (Qualifies(*b)) out->push_back(*b);
      return;
    }
    const size_t p = matchable_[k - 1];
    const size_t next = (*b)[matchable_[k]];
    for (size_t i = 0; i < next; ++i) {
      if (static_cast<size_t>(history_[i].pos) != p) continue;
      if (s_.mode == PairingMode::kChronicle && consumed_[i]) continue;
      (*b)[p] = i;
      Enumerate(k - 1, b, out);
    }
    (*b)[p] = kNone;
  }

  // CONSECUTIVE: the matchable positions, in order, on the arrivals that
  // directly precede trigger `j` (any other arrival in between, negated
  // streams included, breaks adjacency).
  bool AdjacentBinding(size_t j, std::vector<size_t>* b) const {
    const size_t k = matchable_.size();
    if (j + 1 < k) return false;
    b->assign(s_.npos, kNone);
    for (size_t i = 0; i < k; ++i) {
      const size_t idx = j + 1 - k + i;
      if (static_cast<size_t>(history_[idx].pos) != matchable_[i]) {
        return false;
      }
      (*b)[matchable_[i]] = idx;
    }
    return true;
  }

  // Pairwise tag equalities and the negation rule: a binding is rejected
  // when an arrival of a negated position lies strictly between that
  // position's neighbouring bound positions.
  bool Qualifies(const std::vector<size_t>& b) const {
    if (s_.tag_joined) {
      for (size_t p : matchable_) {
        if (history_[b[p]].tag != history_[b[0]].tag) return false;
      }
    }
    for (size_t q = 0; q < s_.npos; ++q) {
      if (!s_.negated[q]) continue;
      size_t left = q;
      while (s_.negated[left]) --left;
      size_t right = q;
      while (s_.negated[right]) ++right;
      for (size_t i = b[left] + 1; i < b[right]; ++i) {
        if (static_cast<size_t>(history_[i].pos) == q) return false;
      }
    }
    return true;
  }

  // The window bound on position p, relative to the anchor's arrival.
  bool WindowHolds(const std::vector<size_t>& b, size_t p) const {
    const Timestamp anchor = history_[b[s_.anchor]].ts;
    const Timestamp t = history_[b[p]].ts;
    const bool preceding = s_.direction != WindowDirection::kFollowing;
    const bool following = s_.direction != WindowDirection::kPreceding;
    if (preceding && p <= s_.anchor && t < anchor - s_.length) return false;
    if (following && p >= s_.anchor && t > anchor + s_.length) return false;
    return true;
  }

  bool AllWindowsHold(const std::vector<size_t>& b) const {
    if (!s_.windowed) return true;
    for (size_t p : matchable_) {
      if (!WindowHolds(b, p)) return false;
    }
    return true;
  }

  // DESIGN.md §5: selection sees the bound on position p only when the
  // anchor is bound no later than p in the mode's search order. RECENT
  // binds the trigger, then positions last to first; CHRONICLE binds
  // the trigger, then positions first to last.
  bool Visible(size_t p) const {
    if (s_.anchor == s_.last()) return true;
    if (s_.mode == PairingMode::kRecent) return p <= s_.anchor;
    return p != s_.last() && p >= s_.anchor;  // CHRONICLE
  }

  bool VisibleWindowsHold(const std::vector<size_t>& b) const {
    if (!s_.windowed) return true;
    for (size_t p : matchable_) {
      if (Visible(p) && !WindowHolds(b, p)) return false;
    }
    return true;
  }

  // RECENT prefers the later arrival at the latest position where two
  // bindings differ; CHRONICLE the earlier one at the earliest.
  bool Prefer(const std::vector<size_t>& a,
              const std::vector<size_t>& b) const {
    if (s_.mode == PairingMode::kRecent) {
      for (size_t k = matchable_.size(); k-- > 0;) {
        const size_t p = matchable_[k];
        if (a[p] != b[p]) return a[p] > b[p];
      }
      return false;
    }
    for (size_t p : matchable_) {
      if (a[p] != b[p]) return a[p] < b[p];
    }
    return false;
  }

  Row RowOf(const std::vector<size_t>& b) const {
    Row row = {history_[b[0]].tag};
    for (size_t p : matchable_) row.push_back(history_[b[p]].ts);
    return row;
  }

  const Shape& s_;
  const std::vector<size_t> matchable_;
  std::vector<Event> history_;
  std::vector<bool> consumed_;
};

std::vector<Row> ReferenceRows(const Shape& shape,
                               const std::vector<Event>& trace) {
  return Reference(shape, trace).Run();
}

// ---- comparison ------------------------------------------------------------

std::string RowText(const Row& row) {
  std::string out = "(tag" + std::to_string(row[0]);
  for (size_t i = 1; i < row.size(); ++i) {
    out += ", " + std::to_string(row[i] / kSecond) + "s";
  }
  return out + ")";
}

// Emissions are compared in trigger order; bindings that share a trigger
// timestamp (UNRESTRICTED, or triggers at one instant) compare as a set.
std::vector<Row> Canonical(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.back() != b.back()) return a.back() < b.back();
    return a < b;
  });
  return rows;
}

// Empty when the two emission lists agree; otherwise the first
// difference.
std::string Diff(const std::vector<Row>& actual,
                 const std::vector<Row>& expected) {
  const std::vector<Row> a = Canonical(actual);
  const std::vector<Row> e = Canonical(expected);
  for (size_t i = 0; i < std::max(a.size(), e.size()); ++i) {
    if (i < a.size() && i < e.size() && a[i] == e[i]) continue;
    return "emission " + std::to_string(i) + ": matcher " +
           (i < a.size() ? RowText(a[i]) : std::string("<none>")) +
           ", reference " +
           (i < e.size() ? RowText(e[i]) : std::string("<none>")) + " (" +
           std::to_string(a.size()) + " vs " + std::to_string(e.size()) +
           " emissions)";
  }
  return "";
}

// ---- the engines -----------------------------------------------------------

std::string StreamName(size_t p) { return "S" + std::to_string(p + 1); }

std::string Ddl(const Shape& s) {
  std::string ddl;
  for (size_t p = 0; p < s.npos; ++p) {
    ddl += "CREATE STREAM " + StreamName(p) + "(readerid, tagid, tagtime);\n";
  }
  return ddl;
}

std::string Query(const Shape& s) {
  std::string select = "S1.tagid";
  std::string from;
  std::string args;
  for (size_t p = 0; p < s.npos; ++p) {
    if (!s.negated[p]) select += ", " + StreamName(p) + ".tagtime";
    from += (p == 0 ? "" : ", ") + StreamName(p);
    args += (p == 0 ? "" : ", ") + std::string(s.negated[p] ? "!" : "") +
            StreamName(p);
  }
  std::string where = "SEQ(" + args + ")";
  if (s.windowed) {
    const char* dir = s.direction == WindowDirection::kPreceding ? "PRECEDING"
                      : s.direction == WindowDirection::kFollowing
                          ? "FOLLOWING"
                          : "PRECEDING AND FOLLOWING";
    where += " OVER [" + std::to_string(s.length / kSecond) + " SECONDS " +
             dir + " " + StreamName(s.anchor) + "]";
  }
  where += std::string(" MODE ") + PairingModeToString(s.mode);
  if (s.tag_joined) {
    for (size_t p : s.Matchable()) {
      if (p > 0) where += " AND S1.tagid = " + StreamName(p) + ".tagid";
    }
  }
  return "SELECT " + select + " FROM " + from + " WHERE " + where;
}

Row RowOfTuple(const Tuple& t) {
  const std::string tag = t.value(0).string_value();
  Row row = {std::stoll(tag.substr(3))};
  for (size_t i = 1; i < t.values().size(); ++i) {
    row.push_back(t.value(i).time_value());
  }
  return row;
}

std::vector<Value> Values(const Event& e) {
  return {Value::String("r"), Value::String("tag" + std::to_string(e.tag)),
          Value::Time(e.ts)};
}

// Registers the shape's query on `engine`, feeds it the trace and
// returns the emissions (Engine or ShardedEngine).
template <typename EngineT>
std::vector<Row> Drive(EngineT& engine, const Shape& s,
                       const std::vector<Event>& trace) {
  EXPECT_TRUE(engine.ExecuteScript(Ddl(s)).ok());
  auto q = engine.RegisterQuery(Query(s));
  EXPECT_TRUE(q.ok()) << q.status() << "\n" << Query(s);
  if (!q.ok()) return {};
  std::vector<Row> rows;
  EXPECT_TRUE(engine
                  .Subscribe(q->output_stream,
                             [&](const Tuple& t) {
                               rows.push_back(RowOfTuple(t));
                             })
                  .ok());
  for (const Event& e : trace) {
    const Status st =
        e.pos < 0 ? engine.AdvanceTime(e.ts)
                  : engine.Push(StreamName(static_cast<size_t>(e.pos)),
                                Values(e), e.ts);
    EXPECT_TRUE(st.ok()) << st;
  }
  EXPECT_TRUE(engine.AdvanceTime(trace.back().ts + Minutes(10)).ok());
  if constexpr (std::is_same_v<EngineT, ShardedEngine>) {
    EXPECT_TRUE(engine.Flush().ok());
    engine.DrainOutputs();
  }
  return rows;
}

std::vector<Row> RunEngine(const Shape& s, const std::vector<Event>& trace,
                           size_t batch_size) {
  EngineOptions options;
  options.batch_size = batch_size;
  options.honor_batch_env = false;  // the sweep matrix is explicit
  Engine engine(options);
  std::vector<Row> rows = Drive(engine, s, trace);
  // One Engine emits in trigger order.
  EXPECT_TRUE(std::is_sorted(
      rows.begin(), rows.end(),
      [](const Row& a, const Row& b) { return a.back() < b.back(); }));
  return rows;
}

std::vector<Row> RunSharded(const Shape& s, const std::vector<Event>& trace,
                            size_t num_shards, size_t batch_size) {
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.engine.batch_size = batch_size;
  options.engine.honor_batch_env = false;
  ShardedEngine engine(options);
  return Drive(engine, s, trace);
}

// ---- traces and shapes -----------------------------------------------------

// Passed as `num_tags`: every arrival gets its own tag.
constexpr int kDistinctTags = -1;

// Whole-second steps of 0-2 s (equal timestamps exercise the arrival
// tie-break and inclusive window edges), with ~8% heartbeats.
std::vector<Event> MakeTrace(std::mt19937& rng, size_t npos,
                             size_t num_events, int num_tags) {
  std::uniform_int_distribution<int> pick_pos(0, static_cast<int>(npos) - 1);
  std::uniform_int_distribution<int> pick_tag(0, std::max(num_tags, 1) - 1);
  std::uniform_int_distribution<int> step(0, 2);
  std::uniform_int_distribution<int> pct(0, 99);
  std::vector<Event> trace;
  Timestamp now = Seconds(1);
  for (size_t i = 0; i < num_events; ++i) {
    if (pct(rng) < 8) {
      now += Seconds(step(rng) + 1);
      trace.push_back({-1, 0, now});
      continue;
    }
    const int pos = pick_pos(rng);
    const int tag = num_tags == kDistinctTags ? static_cast<int>(i)
                                              : pick_tag(rng);
    trace.push_back({pos, tag, now});
    now += Seconds(step(rng));
  }
  return trace;
}

// Negation patterns for n positions: none, or any non-empty set of
// middle positions.
std::vector<std::vector<bool>> NegationPatterns(size_t npos) {
  std::vector<std::vector<bool>> out;
  const size_t middle = npos - 2;
  for (size_t mask = 1; mask < (size_t{1} << middle); ++mask) {
    std::vector<bool> neg(npos, false);
    for (size_t i = 0; i < middle; ++i) neg[i + 1] = (mask >> i) & 1;
    out.push_back(neg);
  }
  return out;
}

// No window, plus one window per non-negated anchor and direction (a
// PRECEDING bound at the first position or a FOLLOWING bound at the last
// constrains nothing but the anchor itself).
std::vector<Shape> WithWindows(const Shape& base, std::mt19937& rng) {
  std::vector<Shape> out = {base};
  std::uniform_int_distribution<int> len(2, 6);
  for (size_t a : base.Matchable()) {
    for (WindowDirection dir :
         {WindowDirection::kPreceding, WindowDirection::kFollowing,
          WindowDirection::kPrecedingAndFollowing}) {
      const bool has_preceding = dir != WindowDirection::kFollowing;
      const bool has_following = dir != WindowDirection::kPreceding;
      if ((a == 0 && has_preceding) || (a == base.last() && has_following)) {
        continue;
      }
      Shape s = base;
      s.windowed = true;
      s.anchor = a;
      s.direction = dir;
      s.length = Seconds(len(rng));
      out.push_back(s);
    }
  }
  return out;
}

class SeqReferenceSweepTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  // Runs one shape over a fresh trace on every engine configuration.
  void Check(const Shape& s, size_t num_events, int num_tags) {
    const std::vector<Event> trace = MakeTrace(rng_, s.npos, num_events,
                                               num_tags);
    const std::vector<Row> expected = ReferenceRows(s, trace);
    emissions_ += expected.size();
    for (size_t batch_size : kBatchSizes) {
      const std::string diff = Diff(RunEngine(s, trace, batch_size), expected);
      EXPECT_EQ(diff, "") << Query(s) << "\nEngine batch_size " << batch_size
                          << ", seed " << GetParam();
    }
    if (!s.tag_joined) return;
    for (size_t shards : {2u, 4u}) {
      const size_t batch_size = kBatchSizes[shards == 2 ? 1 : 2];
      const std::string diff =
          Diff(RunSharded(s, trace, shards, batch_size), expected);
      EXPECT_EQ(diff, "") << Query(s) << "\nShardedEngine " << shards
                          << " shards, seed " << GetParam();
    }
  }

  static Shape Base(size_t npos, PairingMode mode, bool tag_joined) {
    Shape s;
    s.npos = npos;
    s.negated.assign(npos, false);
    s.mode = mode;
    s.tag_joined = tag_joined;
    return s;
  }

  std::mt19937 rng_{GetParam() * 2654435761u + 17};
  size_t emissions_ = 0;
};

const PairingMode kModes[] = {PairingMode::kUnrestricted, PairingMode::kRecent,
                              PairingMode::kChronicle,
                              PairingMode::kConsecutive};

TEST_P(SeqReferenceSweepTest, AllPairingModes) {
  for (PairingMode mode : kModes) {
    for (size_t npos = 2; npos <= 4; ++npos) {
      Check(Base(npos, mode, /*tag_joined=*/true), 80, 3);
    }
  }
  EXPECT_GT(emissions_, 0u);
}

TEST_P(SeqReferenceSweepTest, PairingModesWithoutConstraints) {
  // Unconstrained UNRESTRICTED output grows with the product of the
  // per-position counts, so these traces are shorter.
  for (PairingMode mode : kModes) {
    for (size_t npos = 2; npos <= 4; ++npos) {
      Check(Base(npos, mode, /*tag_joined=*/false), 40, 1);
    }
  }
  EXPECT_GT(emissions_, 0u);
}

TEST_P(SeqReferenceSweepTest, WindowedSeq) {
  for (PairingMode mode : kModes) {
    for (size_t npos = 2; npos <= 4; ++npos) {
      for (bool joined : {true, false}) {
        for (const Shape& s : WithWindows(Base(npos, mode, joined), rng_)) {
          if (!s.windowed) continue;
          Check(s, joined ? 80 : 40, joined ? 3 : 1);
        }
      }
    }
  }
  EXPECT_GT(emissions_, 0u);
}

TEST_P(SeqReferenceSweepTest, NegatedPositions) {
  for (PairingMode mode : kModes) {
    for (size_t npos = 3; npos <= 4; ++npos) {
      for (const std::vector<bool>& neg : NegationPatterns(npos)) {
        for (bool joined : {true, false}) {
          Shape base = Base(npos, mode, joined);
          base.negated = neg;
          for (const Shape& s : WithWindows(base, rng_)) {
            Check(s, joined ? 80 : 40, joined ? 3 : 1);
          }
        }
      }
    }
  }
  EXPECT_GT(emissions_, 0u);
}

TEST_P(SeqReferenceSweepTest, TagJoinedSingleAndDistinctKeys) {
  // The keyed history's extremes (DESIGN.md §18): one key holds every
  // entry in a single partition; all-distinct keys never pair.
  for (PairingMode mode : {PairingMode::kUnrestricted, PairingMode::kRecent,
                           PairingMode::kChronicle}) {
    for (size_t npos = 2; npos <= 4; ++npos) {
      for (const Shape& s : WithWindows(Base(npos, mode, true), rng_)) {
        Check(s, 60, 1);
        Check(s, 60, kDistinctTags);
      }
    }
  }
  EXPECT_GT(emissions_, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqReferenceSweepTest,
                         ::testing::Values(1u, 2u, 3u));

// ---- self-checks of the reference and the comparison ----------------------

// §3.1.1's joint tuple history [t1:C1, t2:C1, t3:C2, t4:C3, t5:C3,
// t6:C2, t7:C4] and the paper's outcome under each mode.
TEST(SeqReferenceSelfCheckTest, PaperWalkthrough) {
  const std::vector<Event> trace = {
      {0, 0, Seconds(1)}, {0, 0, Seconds(2)}, {1, 0, Seconds(3)},
      {2, 0, Seconds(4)}, {2, 0, Seconds(5)}, {1, 0, Seconds(6)},
      {3, 0, Seconds(7)}};
  const auto row = [](int a, int b, int c, int d) {
    return Row{0, Seconds(a), Seconds(b), Seconds(c), Seconds(d)};
  };
  Shape s;
  s.npos = 4;
  s.negated.assign(4, false);

  s.mode = PairingMode::kUnrestricted;
  EXPECT_EQ(Canonical(ReferenceRows(s, trace)),
            (std::vector<Row>{row(1, 3, 4, 7), row(1, 3, 5, 7),
                              row(2, 3, 4, 7), row(2, 3, 5, 7)}));
  s.mode = PairingMode::kRecent;
  EXPECT_EQ(ReferenceRows(s, trace), (std::vector<Row>{row(2, 3, 5, 7)}));
  s.mode = PairingMode::kChronicle;
  EXPECT_EQ(ReferenceRows(s, trace), (std::vector<Row>{row(1, 3, 4, 7)}));
  s.mode = PairingMode::kConsecutive;
  EXPECT_TRUE(ReferenceRows(s, trace).empty());

  // The engine agrees on the same history.
  for (PairingMode mode : kModes) {
    s.mode = mode;
    EXPECT_EQ(Diff(RunEngine(s, trace, 1), ReferenceRows(s, trace)), "")
        << PairingModeToString(mode);
  }
}

// The sweep's comparison is not vacuous: one emission removed from, or
// added to, a correct result is reported.
TEST(SeqReferenceSelfCheckTest, ComparisonCatchesOneRemovedOrAddedEmission) {
  std::mt19937 rng(7);
  Shape s;
  s.npos = 2;
  s.negated.assign(2, false);
  s.tag_joined = true;
  for (PairingMode mode : kModes) {
    s.mode = mode;
    const std::vector<Event> trace = MakeTrace(rng, s.npos, 80, 2);
    const std::vector<Row> actual = RunEngine(s, trace, 1);
    const std::vector<Row> expected = ReferenceRows(s, trace);
    ASSERT_GE(expected.size(), 2u) << PairingModeToString(mode);
    EXPECT_EQ(Diff(actual, expected), "") << PairingModeToString(mode);

    std::vector<Row> removed = expected;
    removed.erase(removed.begin() + static_cast<long>(removed.size() / 2));
    EXPECT_NE(Diff(actual, removed), "") << PairingModeToString(mode);

    std::vector<Row> added = expected;
    added.push_back(expected.front());
    EXPECT_NE(Diff(actual, added), "") << PairingModeToString(mode);
  }
}

}  // namespace
}  // namespace eslev
