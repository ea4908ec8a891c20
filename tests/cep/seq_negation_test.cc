// Negative events in SEQ — completing the core operator set the paper
// cites from [17] (conjunction, negation, sequence, star).
// SEQ(A, !B, C): an A followed by a C with no (qualifying) B in between.

#include <gtest/gtest.h>

#include "core/engine.h"

namespace eslev {
namespace {

class SeqNegationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .ExecuteScript(R"sql(
      CREATE STREAM A(readerid, tagid, tagtime);
      CREATE STREAM B(readerid, tagid, tagtime);
      CREATE STREAM C(readerid, tagid, tagtime);
      CREATE STREAM D(readerid, tagid, tagtime);
    )sql")
                    .ok());
  }

  void Push(const std::string& stream, const std::string& tag,
            Timestamp ts) {
    ASSERT_TRUE(engine_
                    .Push(stream,
                          {Value::String("r"), Value::String(tag),
                           Value::Time(ts)},
                          ts)
                    .ok());
  }

  Engine engine_;
};

TEST_F(SeqNegationTest, InterveningEventSuppressesMatch) {
  auto q = engine_.RegisterQuery(R"sql(
    SELECT A.tagtime, C.tagtime FROM A, B, C
    WHERE SEQ(A, !B, C)
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> events;
  ASSERT_TRUE(engine_.Subscribe(q->output_stream, [&](const Tuple& t) {
                       events.push_back(t);
                     }).ok());

  Push("A", "a1", Seconds(1));
  Push("C", "c1", Seconds(2));  // A@1 -> C@2, no B: match
  ASSERT_EQ(events.size(), 1u);

  Push("A", "a2", Seconds(3));
  Push("B", "b1", Seconds(4));  // forbidden event in between
  Push("C", "c2", Seconds(5));
  // A@3..C@5 blocked by B@4; A@1..C@5 also blocked (B@4 in between).
  EXPECT_EQ(events.size(), 1u);

  Push("A", "a3", Seconds(6));
  Push("C", "c3", Seconds(7));  // A@6 -> C@7 clean
  // UNRESTRICTED also pairs A@3 and A@1 with C@7 — both contain B@4.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].value(0).time_value(), Seconds(6));
}

TEST_F(SeqNegationTest, RecentModePicksCleanPair) {
  auto q = engine_.RegisterQuery(R"sql(
    SELECT A.tagtime, C.tagtime FROM A, B, C
    WHERE SEQ(A, !B, C) MODE RECENT
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> events;
  ASSERT_TRUE(engine_.Subscribe(q->output_stream, [&](const Tuple& t) {
                       events.push_back(t);
                     }).ok());
  Push("A", "a1", Seconds(1));
  Push("B", "b1", Seconds(2));
  Push("C", "c1", Seconds(3));
  // Most recent A is a1, but B intervenes: RECENT's qualifying choice
  // fails — no event (negation is checked on the chosen combination).
  EXPECT_TRUE(events.empty());
  Push("A", "a2", Seconds(4));
  Push("C", "c2", Seconds(5));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].value(0).time_value(), Seconds(4));
}

TEST_F(SeqNegationTest, ArrivalFilterQualifiesForbiddenEvents) {
  // Only B readings with the same tag forbid the pair... tag conditions
  // on negated args are restricted to per-position form, so use a
  // constant filter: only 'alarm' B readings count.
  auto q = engine_.RegisterQuery(R"sql(
    SELECT A.tagtime, C.tagtime FROM A, B, C
    WHERE SEQ(A, !B, C) AND B.tagid = 'alarm'
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> events;
  ASSERT_TRUE(engine_.Subscribe(q->output_stream, [&](const Tuple& t) {
                       events.push_back(t);
                     }).ok());
  Push("A", "a1", Seconds(1));
  Push("B", "noise", Seconds(2));  // filtered out: does not forbid
  Push("C", "c1", Seconds(3));
  ASSERT_EQ(events.size(), 1u);
  Push("A", "a2", Seconds(4));
  Push("B", "alarm", Seconds(5));  // qualifies: forbids
  Push("C", "c2", Seconds(6));
  EXPECT_EQ(events.size(), 1u);
}

TEST_F(SeqNegationTest, ChronicleConsumesOnlyMatchedPositions) {
  auto q = engine_.RegisterQuery(R"sql(
    SELECT A.tagtime, C.tagtime FROM A, B, C
    WHERE SEQ(A, !B, C) MODE CHRONICLE
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> events;
  ASSERT_TRUE(engine_.Subscribe(q->output_stream, [&](const Tuple& t) {
                       events.push_back(t);
                     }).ok());
  Push("A", "a1", Seconds(1));
  Push("B", "b1", Seconds(2));
  Push("A", "a2", Seconds(3));
  Push("C", "c1", Seconds(4));
  // Earliest A (a1) is blocked by b1; chronicle backtracks to a2.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].value(0).time_value(), Seconds(3));
  // a1 was NOT consumed (it never matched) — but it stays blocked by b1
  // for any later C as well.
  Push("C", "c2", Seconds(5));
  EXPECT_EQ(events.size(), 1u);
}

// Regression (found by the reference sweep): CHRONICLE binds positions
// left to right, and the interval of a negated position was checked as
// soon as its left neighbour bound, against the trigger instead of the
// still-unbound right neighbour. A B after C then blocked A for good.
TEST_F(SeqNegationTest, ChronicleChecksNegationOnlyBetweenItsNeighbours) {
  auto q = engine_.RegisterQuery(R"sql(
    SELECT A.tagtime, C.tagtime, D.tagtime FROM A, B, C, D
    WHERE SEQ(A, !B, C, D) MODE CHRONICLE
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> events;
  ASSERT_TRUE(engine_.Subscribe(q->output_stream, [&](const Tuple& t) {
                       events.push_back(t);
                     }).ok());
  Push("A", "a1", Seconds(1));
  Push("C", "c1", Seconds(2));
  Push("B", "b1", Seconds(3));  // after C: outside A..C
  Push("D", "d1", Seconds(4));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].value(0).time_value(), Seconds(1));
  EXPECT_EQ(events[0].value(1).time_value(), Seconds(2));
}

// Regression (found by the reference sweep): under CONSECUTIVE the run
// indexed positions directly, so after A it waited for the negated B
// and SEQ(A, !B, C) never matched. Adjacency on the joint history already
// excludes a B in between; an adjacent A, C pair must match.
TEST_F(SeqNegationTest, ConsecutiveRunSkipsNegatedPosition) {
  auto q = engine_.RegisterQuery(R"sql(
    SELECT A.tagtime, C.tagtime FROM A, B, C
    WHERE SEQ(A, !B, C) MODE CONSECUTIVE
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> events;
  ASSERT_TRUE(engine_.Subscribe(q->output_stream, [&](const Tuple& t) {
                       events.push_back(t);
                     }).ok());
  Push("A", "a1", Seconds(1));
  Push("C", "c1", Seconds(2));  // adjacent: match
  ASSERT_EQ(events.size(), 1u);
  Push("A", "a2", Seconds(3));
  Push("B", "b1", Seconds(4));  // interrupts the run
  Push("C", "c2", Seconds(5));
  EXPECT_EQ(events.size(), 1u);
  Push("A", "a3", Seconds(6));
  Push("C", "c3", Seconds(7));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].value(0).time_value(), Seconds(6));
}

// Regression (found by the reference sweep): RECENT without pairwise
// constraints purged every C but the latest. When B blocks the latest C,
// the most recent qualifying combination uses an older C, which the
// purge had already dropped.
TEST_F(SeqNegationTest, RecentKeepsCandidatesANegationCanForceBackTo) {
  auto q = engine_.RegisterQuery(R"sql(
    SELECT A.tagtime, C.tagtime, D.tagtime FROM A, B, C, D
    WHERE SEQ(A, !B, C, D) MODE RECENT
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> events;
  ASSERT_TRUE(engine_.Subscribe(q->output_stream, [&](const Tuple& t) {
                       events.push_back(t);
                     }).ok());
  Push("A", "a1", Seconds(1));
  Push("C", "c1", Seconds(2));
  Push("B", "b1", Seconds(3));
  Push("C", "c2", Seconds(4));  // A..c2 contains b1
  Push("D", "d1", Seconds(5));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].value(1).time_value(), Seconds(2));
}

TEST_F(SeqNegationTest, ValidationErrors) {
  // Negated first/last argument.
  EXPECT_TRUE(engine_
                  .RegisterQuery(
                      "SELECT A.tagid FROM A, B WHERE SEQ(!A, B)")
                  .status()
                  .IsInvalid());
  EXPECT_TRUE(engine_
                  .RegisterQuery(
                      "SELECT A.tagid FROM A, B WHERE SEQ(A, !B)")
                  .status()
                  .IsInvalid());
  // Negated + starred.
  EXPECT_TRUE(engine_
                  .RegisterQuery(
                      "SELECT A.tagid FROM A, B, C WHERE SEQ(A, !B*, C)")
                  .status()
                  .IsParseError());
  // Projecting a negated argument.
  EXPECT_TRUE(engine_
                  .RegisterQuery(
                      "SELECT B.tagid FROM A, B, C WHERE SEQ(A, !B, C)")
                  .status()
                  .IsBindError());
  // Cross-position condition involving a negated argument.
  EXPECT_TRUE(engine_
                  .RegisterQuery(
                      "SELECT A.tagid FROM A, B, C WHERE SEQ(A, !B, C) "
                      "AND A.tagid = B.tagid")
                  .status()
                  .IsBindError());
  // EXCEPTION_SEQ rejects negation.
  EXPECT_TRUE(engine_
                  .RegisterQuery(
                      "SELECT A.tagid FROM A, B, C WHERE "
                      "EXCEPTION_SEQ(A, !B, C)")
                  .status()
                  .IsNotImplemented());
}

TEST_F(SeqNegationTest, SelectStarSkipsNegatedArguments) {
  auto q = engine_.RegisterQuery(
      "SELECT * FROM A, B, C WHERE SEQ(A, !B, C)");
  ASSERT_TRUE(q.ok()) << q.status();
  Stream* out = engine_.FindStream(q->output_stream);
  ASSERT_TRUE(out != nullptr);
  // Only A's and C's columns appear (3 + 3).
  EXPECT_EQ(out->schema()->num_fields(), 6u);
}

TEST_F(SeqNegationTest, WindowedNegation) {
  // The forbidden check composes with windows: a B outside the chosen
  // pair's interval does not forbid.
  auto q = engine_.RegisterQuery(R"sql(
    SELECT A.tagtime, C.tagtime FROM A, B, C
    WHERE SEQ(A, !B, C) OVER [10 SECONDS PRECEDING C] MODE RECENT
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> events;
  ASSERT_TRUE(engine_.Subscribe(q->output_stream, [&](const Tuple& t) {
                       events.push_back(t);
                     }).ok());
  Push("B", "b0", Seconds(1));   // before A: irrelevant
  Push("A", "a1", Seconds(2));
  Push("C", "c1", Seconds(3));
  ASSERT_EQ(events.size(), 1u);
  Push("A", "a2", Seconds(20));
  Push("B", "b1", Seconds(21));
  Push("C", "c2", Seconds(22));  // blocked
  EXPECT_EQ(events.size(), 1u);
}

}  // namespace
}  // namespace eslev
