// Regression: RECENT matching with join conditions chained through an
// earlier position (the paper's Example 6 writes C1.tagid=C2.tagid AND
// C1.tagid=C3.tagid AND C1.tagid=C4.tagid). A greedy backward pass picks
// the most recent C3 regardless of tag and then fails at C1; the correct
// result needs most-recent-first backtracking.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "rfid/workloads.h"

namespace eslev {
namespace {

TEST(SeqRecentRegressionTest, ChainedJoinConditionsBacktrack) {
  rfid::QualityCheckWorkloadOptions options;
  options.num_products = 10;
  options.drop_rate = 0;
  auto w = rfid::MakeQualityCheckWorkload(options);

  Engine engine;
  ASSERT_TRUE(engine.ExecuteScript(R"sql(
    CREATE STREAM C1(readerid, tagid, tagtime);
    CREATE STREAM C2(readerid, tagid, tagtime);
    CREATE STREAM C3(readerid, tagid, tagtime);
    CREATE STREAM C4(readerid, tagid, tagtime);
  )sql")
                  .ok());
  auto q = engine.RegisterQuery(R"sql(
    SELECT C4.tagid FROM C1, C2, C3, C4
    WHERE SEQ(C1, C2, C3, C4) OVER [30 MINUTES PRECEDING C4] MODE RECENT
      AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid AND C1.tagid=C4.tagid
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  size_t events = 0;
  ASSERT_TRUE(
      engine.Subscribe(q->output_stream, [&](const Tuple&) { ++events; })
          .ok());
  for (const auto& e : w.events) {
    ASSERT_TRUE(engine.PushTuple(e.stream, e.tuple).ok());
  }
  // Interleaved products: every product still completes under RECENT.
  EXPECT_EQ(events, w.expected_events);
  EXPECT_EQ(events, 10u);
}

// Regression (found by the reference sweep): RECENT without pairwise
// constraints purged every B but the latest. A window anchored at B
// bounds A against that B, so when the latest B has no A in range the
// search falls back to an older B, which the purge had already dropped.
TEST(SeqRecentRegressionTest, MiddleAnchoredWindowKeepsOlderAnchors) {
  Engine engine;
  ASSERT_TRUE(engine.ExecuteScript(R"sql(
    CREATE STREAM A(readerid, tagid, tagtime);
    CREATE STREAM B(readerid, tagid, tagtime);
    CREATE STREAM C(readerid, tagid, tagtime);
  )sql")
                  .ok());
  auto q = engine.RegisterQuery(R"sql(
    SELECT A.tagtime, B.tagtime, C.tagtime FROM A, B, C
    WHERE SEQ(A, B, C) OVER [10 SECONDS PRECEDING B] MODE RECENT
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> events;
  ASSERT_TRUE(engine
                  .Subscribe(q->output_stream,
                             [&](const Tuple& t) { events.push_back(t); })
                  .ok());
  const auto push = [&](const std::string& stream, Timestamp ts) {
    ASSERT_TRUE(engine
                    .Push(stream,
                          {Value::String("r"), Value::String("x"),
                           Value::Time(ts)},
                          ts)
                    .ok());
  };
  push("A", Seconds(1));
  push("B", Seconds(5));
  push("B", Seconds(100));  // no A within 10 s before it
  push("C", Seconds(101));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].value(1).time_value(), Seconds(5));
}

}  // namespace
}  // namespace eslev
