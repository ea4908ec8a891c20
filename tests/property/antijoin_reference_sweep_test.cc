// Anti-join reference sweep: the windowed NOT EXISTS operator
// (src/exec/windowed_not_exists.cc) against a brute-force evaluation of
// the paper's NOT EXISTS semantics (Example 1, §2.2).
//
// The reference keeps no index. For every arrival on the outer stream it
// walks every inner arrival that came before it — within RANGE L of its
// timestamp (inclusive), or among the last N inner arrivals for ROWS N —
// and emits the outer tuple iff none satisfies the subquery predicate
// under SQL rules: `=` is false when either side is NULL and compares
// INT with DOUBLE by value. Same-stream queries make every arrival the
// outer tuple first and an inner candidate afterwards, so a tuple never
// rejects itself.
//
// Axes: key shape (one equality, two equalities, an equality plus a
// residual inequality, no equality) x RANGE/ROWS x same-stream/two
// streams x INT keys or INT-against-DOUBLE keys (two streams), with NULL
// keys and heartbeats in every trace. Each case runs on Engine at batch
// sizes 1/7/64 and on ShardedEngine with 1/2/4 shards, and once more on
// each with a checkpoint/restore at the midpoint.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "core/engine.h"
#include "core/sharded_engine.h"

namespace eslev {
namespace {

enum class KeyShape { kOne, kTwo, kKeyAndResidual, kNone };

struct Case {
  KeyShape key = KeyShape::kOne;
  bool rows = false;         // ROWS N instead of RANGE L seconds
  bool same_stream = true;   // Example 1's self-anti-join
  bool mixed_types = false;  // inner tag DOUBLE, outer tag INT
  uint32_t seed = 0;
};

const char* KeyName(KeyShape k) {
  switch (k) {
    case KeyShape::kOne:
      return "one_key";
    case KeyShape::kTwo:
      return "two_keys";
    case KeyShape::kKeyAndResidual:
      return "key_and_residual";
    case KeyShape::kNone:
      return "no_key";
  }
  return "?";
}

std::string CaseName(const Case& c) {
  return std::string(KeyName(c.key)) + (c.rows ? "_rows" : "_range") +
         (c.same_stream ? "_same_stream" : "_two_streams") +
         (c.mixed_types ? "_int_vs_double" : "") + "_seed" +
         std::to_string(c.seed);
}

void PrintTo(const Case& c, std::ostream* os) { *os << CaseName(c); }

std::vector<Case> AllCases() {
  std::vector<Case> out;
  uint32_t seed = 1;
  for (KeyShape key : {KeyShape::kOne, KeyShape::kTwo,
                       KeyShape::kKeyAndResidual, KeyShape::kNone}) {
    for (bool rows : {false, true}) {
      for (int streams = 0; streams < 3; ++streams) {
        Case c;
        c.key = key;
        c.rows = rows;
        c.same_stream = streams == 0;
        c.mixed_types = streams == 2;
        c.seed = seed++;
        out.push_back(c);
      }
    }
  }
  return out;
}

// One trace event: an arrival on the outer (0) or inner (1) stream, or a
// heartbeat (-1). A NULL tag is tag < 0.
struct Event {
  int stream;
  int64_t reader;
  int64_t tag;
  int64_t val;
  Timestamp ts;
};

// ---- the reference ---------------------------------------------------------

bool SqlEq(int64_t a, int64_t b, bool nullable) {
  return !(nullable && (a < 0 || b < 0)) && a == b;
}

bool Predicate(KeyShape key, const Event& inner, const Event& outer) {
  const bool tag_eq = SqlEq(inner.tag, outer.tag, /*nullable=*/true);
  switch (key) {
    case KeyShape::kOne:
      return tag_eq;
    case KeyShape::kTwo:
      return SqlEq(inner.reader, outer.reader, false) && tag_eq;
    case KeyShape::kKeyAndResidual:
      return tag_eq && inner.val < outer.val;
    case KeyShape::kNone:
      return inner.val < outer.val;
  }
  return false;
}

// An emission: "reader|tag|val@ts" of the outer tuple.
using Row = std::string;

Row RowOf(int64_t reader, const std::string& tag, int64_t val, Timestamp ts) {
  return std::to_string(reader) + "|" + tag + "|" + std::to_string(val) +
         "@" + std::to_string(ts);
}

Row RowOf(const Event& e) {
  return RowOf(e.reader, e.tag < 0 ? "NULL" : std::to_string(e.tag), e.val,
               e.ts);
}

constexpr int64_t kRangeSeconds = 2;
constexpr int64_t kRows = 4;

std::vector<Row> ReferenceRows(const Case& c,
                               const std::vector<Event>& trace) {
  std::vector<Row> out;
  std::vector<const Event*> inner;  // inner arrivals so far, in order
  for (const Event& e : trace) {
    if (e.stream < 0) continue;
    if (e.stream == 0) {
      const size_t first =
          c.rows && inner.size() > static_cast<size_t>(kRows)
              ? inner.size() - static_cast<size_t>(kRows)
              : 0;
      bool exists = false;
      for (size_t i = first; i < inner.size() && !exists; ++i) {
        if (!c.rows && inner[i]->ts < e.ts - Seconds(kRangeSeconds)) continue;
        exists = Predicate(c.key, *inner[i], e);
      }
      if (!exists) out.push_back(RowOf(e));
    }
    if (c.same_stream || e.stream == 1) inner.push_back(&e);
  }
  return out;
}

std::string Diff(std::vector<Row> actual, std::vector<Row> expected) {
  std::sort(actual.begin(), actual.end());
  std::sort(expected.begin(), expected.end());
  for (size_t i = 0; i < std::max(actual.size(), expected.size()); ++i) {
    if (i < actual.size() && i < expected.size() &&
        actual[i] == expected[i]) {
      continue;
    }
    return "emission " + std::to_string(i) + ": operator " +
           (i < actual.size() ? actual[i] : std::string("<none>")) +
           ", reference " +
           (i < expected.size() ? expected[i] : std::string("<none>")) +
           " (" + std::to_string(actual.size()) + " vs " +
           std::to_string(expected.size()) + " emissions)";
  }
  return "";
}

// ---- traces ----------------------------------------------------------------

// Half-second steps of 0-1 (ties exercise arrival order and the
// inclusive RANGE edge), ~10% NULL tags, ~5% heartbeats.
std::vector<Event> MakeTrace(const Case& c, size_t num_events) {
  std::mt19937 rng(c.seed * 2654435761u + 7);
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<int64_t> tag(0, 5);
  std::uniform_int_distribution<int64_t> small(0, 1);
  std::uniform_int_distribution<int64_t> val(0, 9);
  std::vector<Event> trace;
  Timestamp now = Seconds(1);
  for (size_t i = 0; i < num_events; ++i) {
    if (pct(rng) < 5) {
      now += Seconds(1);
      trace.push_back({-1, 0, 0, 0, now});
      continue;
    }
    Event e;
    e.stream = c.same_stream ? 0 : static_cast<int>(small(rng));
    e.reader = small(rng);
    e.tag = pct(rng) < 10 ? -1 : tag(rng);
    e.val = val(rng);
    e.ts = now;
    trace.push_back(e);
    now += Milliseconds(500) * small(rng);
  }
  return trace;
}

// ---- the engines -----------------------------------------------------------

std::string Ddl(const Case& c) {
  std::string ddl = "CREATE STREAM a(reader INT, tag INT, val INT);\n";
  if (!c.same_stream) {
    ddl += std::string("CREATE STREAM b(reader INT, tag ") +
           (c.mixed_types ? "DOUBLE" : "INT") + ", val INT);\n";
  }
  return ddl;
}

std::string Query(const Case& c) {
  std::string where;
  switch (c.key) {
    case KeyShape::kOne:
      where = "i.tag = o.tag";
      break;
    case KeyShape::kTwo:
      where = "i.reader = o.reader AND i.tag = o.tag";
      break;
    case KeyShape::kKeyAndResidual:
      where = "i.tag = o.tag AND i.val < o.val";
      break;
    case KeyShape::kNone:
      where = "i.val < o.val";
      break;
  }
  const std::string window =
      c.rows ? "ROWS " + std::to_string(kRows) + " PRECEDING CURRENT"
             : "RANGE " + std::to_string(kRangeSeconds) +
                   " SECONDS PRECEDING CURRENT";
  return std::string("SELECT * FROM a AS o WHERE NOT EXISTS (SELECT * FROM "
                     "TABLE(") +
         (c.same_stream ? "a" : "b") + " OVER (" + window + ")) AS i WHERE " +
         where + ")";
}

std::vector<Value> Values(const Case& c, const Event& e) {
  Value tag = Value::Null();
  if (e.tag >= 0) {
    tag = c.mixed_types && e.stream == 1
              ? Value::Double(static_cast<double>(e.tag))
              : Value::Int(e.tag);
  }
  return {Value::Int(e.reader), tag, Value::Int(e.val)};
}

template <typename EngineT>
void Setup(EngineT& engine, const Case& c, std::vector<Row>* rows) {
  ASSERT_TRUE(engine.ExecuteScript(Ddl(c)).ok());
  auto q = engine.RegisterQuery(Query(c));
  ASSERT_TRUE(q.ok()) << q.status() << "\n" << Query(c);
  ASSERT_TRUE(engine
                  .Subscribe(q->output_stream,
                             [rows](const Tuple& t) {
                               rows->push_back(RowOf(
                                   t.value(0).int_value(),
                                   t.value(1).ToString(),
                                   t.value(2).int_value(), t.ts()));
                             })
                  .ok());
}

template <typename EngineT>
void Feed(EngineT& engine, const Case& c, const std::vector<Event>& trace,
          size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    const Event& e = trace[i];
    const Status st =
        e.stream < 0 ? engine.AdvanceTime(e.ts)
                     : engine.Push(e.stream == 0 ? "a" : "b", Values(c, e),
                                   e.ts);
    ASSERT_TRUE(st.ok()) << st;
  }
}

template <typename EngineT>
void Finish(EngineT& engine, const std::vector<Event>& trace) {
  ASSERT_TRUE(engine.AdvanceTime(trace.back().ts + Minutes(10)).ok());
  if constexpr (std::is_same_v<EngineT, ShardedEngine>) {
    ASSERT_TRUE(engine.Flush().ok());
    engine.DrainOutputs();
  }
}

std::unique_ptr<Engine> MakeEngine(size_t batch_size) {
  EngineOptions options;
  options.batch_size = batch_size;
  options.honor_batch_env = false;  // the sweep matrix is explicit
  return std::make_unique<Engine>(options);
}

std::unique_ptr<ShardedEngine> MakeSharded(size_t shards) {
  ShardedEngineOptions options;
  options.num_shards = shards;
  options.engine.honor_batch_env = false;
  return std::make_unique<ShardedEngine>(options);
}

// Feeds the whole trace; with `restore_dir`, checkpoints after the first
// half and finishes on a fresh engine restored from it.
template <typename EngineT, typename Make>
std::vector<Row> Drive(Make make, const Case& c, const std::vector<Event>& trace,
                     const std::string& restore_dir = "") {
  std::vector<Row> rows;
  auto engine = make();
  Setup(*engine, c, &rows);
  size_t resume = 0;
  if (!restore_dir.empty()) {
    resume = trace.size() / 2;
    Feed(*engine, c, trace, 0, resume);
    if constexpr (std::is_same_v<EngineT, ShardedEngine>) {
      EXPECT_TRUE(engine->Flush().ok());
      engine->DrainOutputs();
    }
    std::filesystem::remove_all(restore_dir);
    std::filesystem::create_directories(restore_dir);
    EXPECT_TRUE(engine->Checkpoint(restore_dir).ok());
    if constexpr (std::is_same_v<EngineT, ShardedEngine>) {
      engine->DrainOutputs();
    }
    engine = make();
    Setup(*engine, c, &rows);
    const Status restored = engine->Restore(restore_dir);
    EXPECT_TRUE(restored.ok()) << restored;
  }
  Feed(*engine, c, trace, resume, trace.size());
  Finish(*engine, trace);
  return rows;
}

class AntiJoinReferenceSweepTest : public ::testing::TestWithParam<Case> {};

TEST_P(AntiJoinReferenceSweepTest, MatchesBruteForceNotExists) {
  const Case& c = GetParam();
  const std::vector<Event> trace = MakeTrace(c, 160);
  const std::vector<Row> expected = ReferenceRows(c, trace);
  ASSERT_FALSE(expected.empty());
  {
    // A tag equality over a RANGE window runs keyed (DESIGN.md §18); a
    // ROWS window or no tag equality keeps one partition.
    Engine engine;
    ASSERT_TRUE(engine.ExecuteScript(Ddl(c)).ok());
    auto plan = engine.Explain(Query(c));
    ASSERT_TRUE(plan.ok()) << plan.status();
    const bool keyed = c.key != KeyShape::kNone && !c.rows;
    EXPECT_EQ(plan->find("keyed on (") != std::string::npos, keyed) << *plan;
  }
  for (size_t batch_size : {1u, 7u, 64u}) {
    const std::vector<Row> got =
        Drive<Engine>([&] { return MakeEngine(batch_size); }, c, trace);
    EXPECT_EQ(Diff(got, expected), "")
        << Query(c) << "\nEngine batch_size " << batch_size;
    // One Engine emits in outer arrival order.
    EXPECT_EQ(got, expected) << "Engine batch_size " << batch_size;
  }
  for (size_t shards : {1u, 2u, 4u}) {
    EXPECT_EQ(Diff(Drive<ShardedEngine>([&] { return MakeSharded(shards); }, c,
                                      trace),
                   expected),
              "")
        << Query(c) << "\nShardedEngine " << shards << " shards";
  }
  const std::string dir =
      ::testing::TempDir() + "antijoin_sweep_" + CaseName(c);
  EXPECT_EQ(Diff(Drive<Engine>([] { return MakeEngine(7); }, c, trace, dir),
                 expected),
            "")
      << Query(c) << "\nEngine batch_size 7, restored at the midpoint";
  EXPECT_EQ(Diff(Drive<ShardedEngine>([] { return MakeSharded(2); }, c, trace,
                                    dir),
                 expected),
            "")
      << Query(c) << "\nShardedEngine 2 shards, restored at the midpoint";
  std::filesystem::remove_all(dir);
}

// No name generator: ctest names the cases by PrintTo, e.g.
// Sweep/AntiJoinReferenceSweepTest.MatchesBruteForceNotExists/one_key_range_same_stream_seed1.
INSTANTIATE_TEST_SUITE_P(Sweep, AntiJoinReferenceSweepTest,
                         ::testing::ValuesIn(AllCases()));

// ---- self-checks of the reference and the comparison ----------------------

// Example 1: a reading repeated within 1 s by the same reader is a
// duplicate; here the window is 2 s.
TEST(AntiJoinReferenceSelfCheckTest, DuplicateFilterWalkthrough) {
  Case c;
  c.key = KeyShape::kTwo;
  const std::vector<Event> trace = {
      {0, 1, 7, 0, Seconds(1)},  // first read: kept
      {0, 1, 7, 0, Seconds(2)},  // same reader and tag 1 s later: dropped
      {0, 2, 7, 0, Seconds(2)},  // another reader: kept
      {0, 1, 7, 0, Seconds(5)},  // 3 s after the last copy: kept
      {0, 1, -1, 0, Seconds(5)},  // NULL tag equals nothing: kept
      {0, 1, -1, 0, Seconds(5)},  // ... not even another NULL
  };
  EXPECT_EQ(ReferenceRows(c, trace),
            (std::vector<Row>{RowOf(trace[0]), RowOf(trace[2]),
                              RowOf(trace[3]), RowOf(trace[4]),
                              RowOf(trace[5])}));
}

TEST(AntiJoinReferenceSelfCheckTest, ComparisonCatchesOneRemovedOrAddedEmission) {
  Case c;
  c.seed = 3;
  const std::vector<Event> trace = MakeTrace(c, 80);
  const std::vector<Row> expected = ReferenceRows(c, trace);
  ASSERT_GE(expected.size(), 2u);
  std::vector<Row> removed = expected;
  removed.erase(removed.begin() + 1);
  EXPECT_NE(Diff(removed, expected), "");
  std::vector<Row> added = expected;
  added.push_back(expected.front());
  EXPECT_NE(Diff(added, expected), "");
  EXPECT_EQ(Diff(expected, expected), "");
}

}  // namespace
}  // namespace eslev
