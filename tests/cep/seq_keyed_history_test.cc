// Keyed SEQ history (DESIGN.md §18): partitioning the history on the tag
// join changes which entries a search walks, never what it emits, and
// keeps the checkpoint bytes of the flat history.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "recovery/codec.h"
#include "tests/cep/seq_test_util.h"

namespace eslev {
namespace {

using cep_test::Reading;
using cep_test::SeqBuilder;

struct Arrival {
  size_t port;
  Tuple tuple;
};

// Three tags over C1..C3 in random order, with whole-second ties.
std::vector<Arrival> Trace(const SchemaPtr& schema, uint32_t seed,
                           size_t n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<size_t> port(0, 2);
  std::uniform_int_distribution<int> tag(0, 2);
  std::uniform_int_distribution<int> step(0, 1);
  std::vector<Arrival> out;
  Timestamp ts = Seconds(1);
  for (size_t i = 0; i < n; ++i) {
    out.push_back({port(rng), Reading(schema, "r",
                                      "tag" + std::to_string(tag(rng)), ts)});
    ts += Seconds(step(rng));
  }
  return out;
}

std::unique_ptr<SeqOperator> Make(PairingMode mode, bool keyed) {
  SeqBuilder b({"C1", "C2", "C3"});
  b.Mode(mode)
      .Window(Seconds(20), WindowDirection::kPreceding, 2)
      .Pairwise(0, 2, "C1.tagid = C3.tagid")
      .Pairwise(1, 2, "C2.tagid = C3.tagid");
  if (keyed) b.KeyedOn(1);
  return b.Build();
}

std::vector<std::string> Feed(SeqOperator* op,
                              const std::vector<Arrival>& trace, size_t from,
                              size_t to) {
  CollectOperator sink;
  op->AddSink(&sink);
  for (size_t i = from; i < to; ++i) {
    EXPECT_TRUE(op->OnTuple(trace[i].port, trace[i].tuple).ok());
  }
  std::vector<std::string> rows;
  rows.reserve(sink.tuples().size());
  for (const Tuple& t : sink.tuples()) rows.push_back(t.ToString());
  return rows;
}

std::string Blob(const SeqOperator& op) {
  BinaryEncoder enc;
  EXPECT_TRUE(op.SaveState(&enc).ok());
  return enc.TakeBuffer();
}

int64_t Stat(const SeqOperator& op, const std::string& name) {
  OperatorStatList stats;
  op.AppendStats(&stats);
  for (const auto& [n, v] : stats) {
    if (n == name) return v;
  }
  return -1;
}

TEST(SeqKeyedHistoryTest, EmitsAndCheckpointsLikeTheFlatHistory) {
  // UNRESTRICTED and CHRONICLE retain the same entries either way, so
  // even the checkpoint bytes agree.
  for (PairingMode mode : {PairingMode::kUnrestricted,
                           PairingMode::kChronicle}) {
    auto flat = Make(mode, false);
    auto keyed = Make(mode, true);
    const auto trace = Trace(cep_test::ReadingSchema(), 7, 120);
    const std::vector<std::string> rows =
        Feed(flat.get(), trace, 0, trace.size());
    EXPECT_FALSE(rows.empty());
    EXPECT_EQ(Feed(keyed.get(), trace, 0, trace.size()), rows);
    EXPECT_EQ(Blob(*keyed), Blob(*flat));
    EXPECT_EQ(keyed->history_size(), flat->history_size());
    EXPECT_EQ(Stat(*flat, "key_partitions"), -1);
    EXPECT_GE(Stat(*keyed, "key_partitions"), 1);
  }
}

TEST(SeqKeyedHistoryTest, RecentPurgesPerKeyWithoutChangingEmissions) {
  auto flat = Make(PairingMode::kRecent, false);
  auto keyed = Make(PairingMode::kRecent, true);
  EXPECT_FALSE(RecentPurgeIsExact(flat->config()));
  EXPECT_TRUE(RecentPurgeIsExact(keyed->config()));
  const auto trace = Trace(cep_test::ReadingSchema(), 11, 200);
  const std::vector<std::string> rows =
      Feed(flat.get(), trace, 0, trace.size());
  EXPECT_FALSE(rows.empty());
  EXPECT_EQ(Feed(keyed.get(), trace, 0, trace.size()), rows);
  // Per key and position, only the entries a future search can pick.
  EXPECT_LT(keyed->history_size(), flat->history_size());
  EXPECT_EQ(keyed->tuples_stored() - keyed->tuples_purged(),
            keyed->history_size());
}

TEST(SeqKeyedHistoryTest, RestoreRebuildsTheKeyIndex) {
  for (PairingMode mode : {PairingMode::kUnrestricted, PairingMode::kRecent,
                           PairingMode::kChronicle}) {
    auto whole = Make(mode, true);
    auto first = Make(mode, true);
    const auto trace = Trace(cep_test::ReadingSchema(), 23, 160);
    const size_t mid = trace.size() / 2;
    std::vector<std::string> expected = Feed(whole.get(), trace, 0,
                                             trace.size());
    std::vector<std::string> got = Feed(first.get(), trace, 0, mid);
    const std::string blob = Blob(*first);
    auto restored = Make(mode, true);
    BinaryDecoder dec(blob);
    ASSERT_TRUE(restored->RestoreState(&dec).ok());
    EXPECT_EQ(Stat(*restored, "key_partitions"),
              Stat(*first, "key_partitions"));
    const std::vector<std::string> rest =
        Feed(restored.get(), trace, mid, trace.size());
    got.insert(got.end(), rest.begin(), rest.end());
    EXPECT_EQ(got, expected);
    EXPECT_EQ(Blob(*restored), Blob(*whole));
  }
}

TEST(SeqKeyedHistoryTest, MakeRejectsShapesThatSearchAcrossKeys) {
  const auto config = [](PairingMode mode, bool star) {
    SeqOperatorConfig c;
    c.positions = {{"C1", cep_test::ReadingSchema(), star, false},
                   {"C2", cep_test::ReadingSchema(), false, false}};
    c.mode = mode;
    c.key.assign(2, {size_t{1}});
    c.projection.push_back(std::make_unique<BoundLiteral>(Value::Int(1)));
    c.out_schema = Schema::Make({{"one", TypeId::kInt64}});
    return c;
  };
  // CONSECUTIVE adjacency and star groups form on the joint history.
  EXPECT_FALSE(
      SeqOperator::Make(config(PairingMode::kConsecutive, false)).ok());
  EXPECT_FALSE(SeqOperator::Make(config(PairingMode::kRecent, true)).ok());
  EXPECT_TRUE(SeqOperator::Make(config(PairingMode::kRecent, false)).ok());
}

}  // namespace
}  // namespace eslev
