// Cross-key queries on a sharded engine: a query whose matches pair
// tuples of different partition keys routes its sources to one shard, and
// that routing never changes under queries that already hold state placed
// by the hash routing (sharded_engine.h).

#include "core/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace eslev {
namespace {

constexpr const char* kDdl = R"sql(
  CREATE STREAM readings(reader_id, tag_id, read_time);
  CREATE STREAM exits(reader_id, tag_id, read_time);
  CREATE STREAM cleaned(reader_id, tag_id, read_time);
)sql";

// Example 1's duplicate filter: keyed on (reader_id, tag_id), so it runs
// hash-partitioned.
constexpr const char* kDedup = R"sql(
  INSERT INTO cleaned
  SELECT * FROM readings AS r1
  WHERE NOT EXISTS
    (SELECT * FROM TABLE( readings OVER
        (RANGE 1 seconds PRECEDING CURRENT)) AS r2
     WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)
)sql";

// Adjacency on the joint history of every tag: a single-shard query.
constexpr const char* kConsecutive = R"sql(
  SELECT readings.tag_id, exits.read_time FROM readings, exits
  WHERE SEQ(readings, exits) MODE CONSECUTIVE
    AND readings.tag_id = exits.tag_id
)sql";

struct Event {
  std::string stream;
  std::string reader;
  std::string tag;
  Timestamp ts;
};

// Readings of 12 tags with re-reads inside the dedup window, and an exit
// after most readings, so CONSECUTIVE pairs exist for many tags.
std::vector<Event> Trace() {
  std::vector<Event> out;
  uint64_t x = 12345;
  Timestamp ts = Seconds(1);
  for (int i = 0; i < 240; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::string tag = "tag" + std::to_string((x >> 33) % 12);
    const std::string reader = "rd" + std::to_string((x >> 40) % 2);
    out.push_back({"readings", reader, tag, ts});
    ts += Milliseconds(150);
    if ((x >> 45) % 3 != 0) {
      out.push_back({"exits", "gate", tag, ts});
      ts += Milliseconds(150);
    }
  }
  return out;
}

std::vector<Value> Values(const Event& e) {
  return {Value::String(e.reader), Value::String(e.tag), Value::Time(e.ts)};
}

std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Both pipelines on one Engine, the CONSECUTIVE query registered before
// event `split` (0 = before any event).
struct Reference {
  std::vector<std::string> cleaned;
  std::vector<std::string> pairs;
};

Reference RunEngine(const std::vector<Event>& trace, size_t split,
                    bool with_consecutive) {
  Reference out;
  Engine engine;
  EXPECT_TRUE(engine.ExecuteScript(kDdl).ok());
  EXPECT_TRUE(engine.RegisterQuery(kDedup).ok());
  EXPECT_TRUE(engine
                  .Subscribe("cleaned",
                             [&out](const Tuple& t) {
                               out.cleaned.push_back(t.ToString());
                             })
                  .ok());
  for (size_t i = 0; i <= trace.size(); ++i) {
    if (i == split && with_consecutive) {
      Result<QueryInfo> info = engine.RegisterQuery(kConsecutive);
      EXPECT_TRUE(info.ok()) << info.status().ToString();
      EXPECT_TRUE(engine
                      .Subscribe(info->output_stream,
                                 [&out](const Tuple& t) {
                                   out.pairs.push_back(t.ToString());
                                 })
                      .ok());
    }
    if (i == trace.size()) break;
    EXPECT_TRUE(
        engine.Push(trace[i].stream, Values(trace[i]), trace[i].ts).ok());
  }
  return out;
}

class ShardedCrossKeyTest : public ::testing::Test {
 protected:
  ShardedCrossKeyTest() : engine_(Options()) {}

  static ShardedEngineOptions Options() {
    ShardedEngineOptions options;
    options.num_shards = 4;
    return options;
  }

  void SetUpDedup() {
    ASSERT_TRUE(engine_.ExecuteScript(kDdl).ok());
    ASSERT_TRUE(engine_.RegisterQuery(kDedup).ok());
    ASSERT_TRUE(engine_
                    .Subscribe("cleaned",
                               [this](const Tuple& t) {
                                 cleaned_.push_back(t.ToString());
                               })
                    .ok());
  }

  Result<QueryInfo> RegisterConsecutive() {
    Result<QueryInfo> info = engine_.RegisterQuery(kConsecutive);
    if (info.ok()) {
      EXPECT_TRUE(engine_
                      .Subscribe(info->output_stream,
                                 [this](const Tuple& t) {
                                   pairs_.push_back(t.ToString());
                                 })
                      .ok());
    }
    return info;
  }

  void Push(const std::vector<Event>& trace, size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      ASSERT_TRUE(
          engine_.Push(trace[i].stream, Values(trace[i]), trace[i].ts).ok());
    }
    ASSERT_TRUE(engine_.Flush().ok());
    engine_.DrainOutputs();
  }

  // Shards that received tuples since `before` was taken.
  size_t BusyShardsSince(const std::vector<uint64_t>& before) {
    const std::vector<uint64_t> now = engine_.shard_tuple_counts();
    size_t busy = 0;
    for (size_t i = 0; i < now.size(); ++i) busy += now[i] > before[i];
    return busy;
  }

  ShardedEngine engine_;
  std::vector<std::string> cleaned_;
  std::vector<std::string> pairs_;
};

TEST_F(ShardedCrossKeyTest, MidStreamRegistrationNextToRunningDedupFails) {
  const std::vector<Event> trace = Trace();
  const size_t split = trace.size() / 2;
  SetUpDedup();
  Push(trace, 0, split);

  // Re-routing `readings` to shard 0 now would leave the dedup's windows
  // on the shards the hash picked.
  Result<QueryInfo> info = RegisterConsecutive();
  ASSERT_FALSE(info.ok());
  EXPECT_TRUE(info.status().IsInvalid()) << info.status().ToString();
  EXPECT_NE(info.status().message().find("readings"), std::string::npos)
      << info.status().ToString();
  EXPECT_NE(info.status().message().find("SetSingleShard"),
            std::string::npos);

  // The query is gone again, and the stream still hash-partitions.
  const std::vector<uint64_t> before = engine_.shard_tuple_counts();
  Push(trace, split, trace.size());
  EXPECT_GE(BusyShardsSince(before), 2u);
  EXPECT_TRUE(pairs_.empty());
  EXPECT_EQ(Sorted(cleaned_),
            Sorted(RunEngine(trace, split, /*with_consecutive=*/false)
                       .cleaned));
}

TEST_F(ShardedCrossKeyTest, PinnedBeforeStreamingRegistersMidStream) {
  const std::vector<Event> trace = Trace();
  const size_t split = trace.size() / 2;
  SetUpDedup();
  ASSERT_TRUE(engine_.SetSingleShard("readings").ok());
  ASSERT_TRUE(engine_.SetSingleShard("exits").ok());
  Push(trace, 0, split);

  Result<QueryInfo> info = RegisterConsecutive();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  Push(trace, split, trace.size());

  const Reference ref = RunEngine(trace, split, /*with_consecutive=*/true);
  ASSERT_FALSE(ref.pairs.empty());
  EXPECT_EQ(Sorted(cleaned_), Sorted(ref.cleaned));
  EXPECT_EQ(Sorted(pairs_), Sorted(ref.pairs));
}

TEST_F(ShardedCrossKeyTest, RegisteredBeforeStreamingPinsAndMatchesEngine) {
  const std::vector<Event> trace = Trace();
  SetUpDedup();
  ASSERT_TRUE(RegisterConsecutive().ok());
  const std::vector<uint64_t> before = engine_.shard_tuple_counts();
  Push(trace, 0, trace.size());
  EXPECT_EQ(BusyShardsSince(before), 1u);

  const Reference ref = RunEngine(trace, 0, /*with_consecutive=*/true);
  ASSERT_FALSE(ref.pairs.empty());
  EXPECT_EQ(Sorted(cleaned_), Sorted(ref.cleaned));
  EXPECT_EQ(Sorted(pairs_), Sorted(ref.pairs));
}

TEST_F(ShardedCrossKeyTest, PinOutlivesTheQueryOnlyWhileOthersHoldState) {
  // Both streams while the CONSECUTIVE query runs, then readings only, so
  // the shard counts show where `readings` is routed.
  const std::vector<Event> full = Trace();
  const size_t first = full.size() / 3;
  std::vector<Event> trace(full.begin(), full.begin() + first);
  for (size_t i = first; i < full.size(); ++i) {
    if (full[i].stream == "readings") trace.push_back(full[i]);
  }
  const size_t second = first + (trace.size() - first) / 2;
  SetUpDedup();
  Result<QueryInfo> info = RegisterConsecutive();
  ASSERT_TRUE(info.ok());
  Push(trace, 0, first);

  // The dedup's windows now sit on shard 0: the pin stays.
  ASSERT_TRUE(engine_.UnregisterQuery(info->id).ok());
  std::vector<uint64_t> before = engine_.shard_tuple_counts();
  Push(trace, first, second);
  EXPECT_EQ(BusyShardsSince(before), 1u);
  EXPECT_EQ(Sorted(cleaned_),
            Sorted(RunEngine({trace.begin(), trace.begin() + second}, 0,
                             /*with_consecutive=*/false)
                       .cleaned));

  // With no reader left, the stream goes back to hash routing.
  ASSERT_TRUE(engine_.UnregisterQuery(1).ok());
  before = engine_.shard_tuple_counts();
  Push(trace, second, trace.size());
  EXPECT_GE(BusyShardsSince(before), 2u);
}

}  // namespace
}  // namespace eslev
