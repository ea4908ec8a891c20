#include "stream/stream.h"

#include <gtest/gtest.h>

#include "exec/basic_ops.h"
#include "stream/window_buffer.h"

namespace eslev {
namespace {

SchemaPtr TestSchema() {
  return Schema::Make(
      {{"tag", TypeId::kString}, {"ts_col", TypeId::kTimestamp}});
}

Tuple T(const SchemaPtr& s, const std::string& tag, Timestamp ts) {
  return *MakeTuple(s, {Value::String(tag), Value::Time(ts)}, ts);
}

TEST(StreamTest, PushFansOutToOperatorsAndCallbacks) {
  auto schema = TestSchema();
  Stream s("readings", schema);
  CollectOperator sink;
  s.Subscribe(&sink);
  int callback_count = 0;
  s.SubscribeCallback([&](const Tuple&) { ++callback_count; });

  ASSERT_TRUE(s.Push(T(schema, "a", 1)).ok());
  ASSERT_TRUE(s.Push(T(schema, "b", 2)).ok());
  EXPECT_EQ(sink.tuples().size(), 2u);
  EXPECT_EQ(callback_count, 2);
  EXPECT_EQ(s.tuples_pushed(), 2u);
}

TEST(StreamTest, PushValidatesArity) {
  Stream s("readings", TestSchema());
  Tuple wrong(TestSchema(), {Value::String("a")}, 0);
  EXPECT_TRUE(s.Push(wrong).IsInvalid());
}

TEST(StreamTest, SubscriptionOrderIsDeliveryOrder) {
  auto schema = TestSchema();
  Stream s("readings", schema);
  std::vector<int> order;
  CallbackOperator first([&](const Tuple&) { order.push_back(1); });
  CallbackOperator second([&](const Tuple&) { order.push_back(2); });
  s.Subscribe(&first);
  s.Subscribe(&second);
  ASSERT_TRUE(s.Push(T(schema, "a", 1)).ok());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(StreamTest, RetentionKeepsRecentWindow) {
  auto schema = TestSchema();
  Stream s("locations", schema);
  s.SetRetention(Seconds(10));
  for (int i = 0; i <= 20; ++i) {
    ASSERT_TRUE(s.Push(T(schema, "t", Seconds(i))).ok());
  }
  // Retained: ts in [20s - 10s, 20s].
  EXPECT_EQ(s.retained().size(), 11u);
  EXPECT_EQ(s.retained().front().ts(), Seconds(10));

  // Heartbeats trim further without arrivals.
  ASSERT_TRUE(s.Heartbeat(Seconds(25)).ok());
  EXPECT_EQ(s.retained().size(), 6u);
}

TEST(StreamTest, NoRetentionByDefault) {
  auto schema = TestSchema();
  Stream s("r", schema);
  ASSERT_TRUE(s.Push(T(schema, "t", 1)).ok());
  EXPECT_TRUE(s.retained().empty());
}

TEST(StreamInsertOperatorTest, ForwardsIntoStream) {
  auto schema = TestSchema();
  Stream out("derived", schema);
  CollectOperator sink;
  out.Subscribe(&sink);
  StreamInsertOperator insert(&out);
  ASSERT_TRUE(insert.OnTuple(0, T(schema, "x", 5)).ok());
  EXPECT_EQ(sink.tuples().size(), 1u);
  EXPECT_EQ(out.tuples_pushed(), 1u);
}

// ---------------------------------------------------------------------------
// WindowBuffer
// ---------------------------------------------------------------------------

TEST(WindowBufferTest, TimeWindowInclusiveBound) {
  auto schema = TestSchema();
  WindowBuffer w(false, Seconds(10));
  w.Add(T(schema, "a", Seconds(0)));
  w.Add(T(schema, "b", Seconds(5)));
  w.Add(T(schema, "c", Seconds(10)));  // 0 is exactly 10s old: kept
  EXPECT_EQ(w.size(), 3u);
  w.Add(T(schema, "d", Seconds(11)));  // 0 is now 11s old: evicted
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.front().value(0).string_value(), "b");
}

TEST(WindowBufferTest, HeartbeatEviction) {
  auto schema = TestSchema();
  WindowBuffer w(false, Seconds(1));
  w.Add(T(schema, "a", Seconds(1)));
  EXPECT_EQ(w.size(), 1u);
  w.EvictAt(Seconds(3));
  EXPECT_TRUE(w.empty());
}

TEST(WindowBufferTest, RowWindow) {
  auto schema = TestSchema();
  WindowBuffer w(true, 3);
  for (int i = 0; i < 5; ++i) w.Add(T(schema, "t", i));
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.front().ts(), 2);
  // Time advance does not evict row windows.
  w.EvictAt(Seconds(100));
  EXPECT_EQ(w.size(), 3u);
}

TEST(WindowBufferTest, Clear) {
  auto schema = TestSchema();
  WindowBuffer w(false, Seconds(1));
  w.Add(T(schema, "a", 0));
  w.Clear();
  EXPECT_TRUE(w.empty());
}

// Keyed buffers partition on the tag column but evict in the shared
// arrival order, exactly like the unkeyed buffer.
std::vector<std::string> Tags(const WindowBuffer& w) {
  std::vector<std::string> out;
  w.ForEach([&out](const Tuple& t) {
    out.push_back(t.value(0).string_value());
    return true;
  });
  return out;
}

std::string TagKey(const std::string& tag) {
  std::string key;
  AppendSqlKey(Value::String(tag), &key);
  return key;
}

TEST(WindowBufferTest, KeyedRangeWindowEvictsInArrivalOrder) {
  auto schema = TestSchema();
  WindowBuffer w(false, Seconds(10), {0});
  w.Add(T(schema, "a", Seconds(0)));
  w.Add(T(schema, "b", Seconds(5)));
  w.Add(T(schema, "a", Seconds(8)));
  EXPECT_EQ(w.key_partitions(), 2u);
  ASSERT_NE(w.Partition(TagKey("a")), nullptr);
  EXPECT_EQ(w.Partition(TagKey("a"))->size(), 2u);
  EXPECT_EQ(w.Partition(TagKey("c")), nullptr);
  EXPECT_EQ(Tags(w), (std::vector<std::string>{"a", "b", "a"}));
  w.EvictAt(Seconds(16));  // evicts a@0 and b@5
  EXPECT_EQ(Tags(w), (std::vector<std::string>{"a"}));
  EXPECT_EQ(w.key_partitions(), 1u);
  EXPECT_EQ(w.Partition(TagKey("b")), nullptr);
  EXPECT_EQ(w.front().ts(), Seconds(8));
}

TEST(WindowBufferTest, KeyedRowWindowCountsAcrossKeys) {
  auto schema = TestSchema();
  WindowBuffer w(true, 2, {0});
  w.Add(T(schema, "a", 1));
  w.Add(T(schema, "b", 2));
  w.Add(T(schema, "c", 3));  // the window holds 2 rows over all keys
  EXPECT_EQ(Tags(w), (std::vector<std::string>{"b", "c"}));
  EXPECT_EQ(w.Partition(TagKey("a")), nullptr);
}

TEST(WindowBufferTest, KeyedAssignRebuildsTheIndex) {
  auto schema = TestSchema();
  WindowBuffer w(false, Seconds(10), {0});
  w.Assign({T(schema, "x", 1), T(schema, "y", 2), T(schema, "x", 3)});
  EXPECT_EQ(w.size(), 3u);
  ASSERT_NE(w.Partition(TagKey("x")), nullptr);
  EXPECT_EQ(w.Partition(TagKey("x"))->back().ts(), 3);
  EXPECT_EQ(Tags(w), (std::vector<std::string>{"x", "y", "x"}));
}

TEST(WindowBufferTest, NullKeysOccupyTheWindowButMatchNoKey) {
  auto schema = TestSchema();
  WindowBuffer w(false, Seconds(10), {0});
  w.Add(*MakeTuple(schema, {Value::Null(), Value::Time(1)}, 1));
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.Partition(TagKey("")), nullptr);
}

}  // namespace
}  // namespace eslev
