// Table hash probes (Table::ScanEq behind TableNotExistsOperator and
// StreamTableJoinOperator) must find exactly the rows the predicate they
// pre-filter accepts: SQL `=` compares INT 1 equal to DOUBLE 1.0 and
// never matches NULL.

#include <gtest/gtest.h>

#include <vector>

#include "core/engine.h"

namespace eslev {
namespace {

class TableProbeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .ExecuteScript(R"sql(
      CREATE TABLE t(k DOUBLE, v INT);
      CREATE STREAM s(k INT, v INT);
    )sql")
                    .ok());
    Table* t = engine_.FindTable("t");
    ASSERT_NE(t, nullptr);
    ASSERT_TRUE(t->Insert({Value::Double(1.0), Value::Int(10)}).ok());
    ASSERT_TRUE(t->Insert({Value::Null(), Value::Int(20)}).ok());
  }

  // Registers `sql`, pushes s.k = each key and returns the emitted v's.
  std::vector<int64_t> Run(const std::string& sql,
                           const std::vector<Value>& keys) {
    auto q = engine_.RegisterQuery(sql);
    EXPECT_TRUE(q.ok()) << q.status();
    if (!q.ok()) return {};
    std::vector<int64_t> out;
    EXPECT_TRUE(engine_
                    .Subscribe(q->output_stream,
                               [&out](const Tuple& t) {
                                 out.push_back(t.value(0).int_value());
                               })
                    .ok());
    Timestamp ts = 1;
    for (const Value& k : keys) {
      EXPECT_TRUE(engine_.Push("s", {k, Value::Int(ts)}, ts).ok());
      ++ts;
    }
    return out;
  }

  Engine engine_;
};

TEST_F(TableProbeTest, NotExistsHashProbeMatchesIntAgainstDouble) {
  const std::string sql =
      "SELECT s.v FROM s WHERE NOT EXISTS (SELECT k FROM t WHERE t.k = s.k)";
  auto plan = engine_.Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("hash probe on k"), std::string::npos) << *plan;
  // 1 = 1.0 exists; 2 has no row; a NULL key equals no row, not the
  // NULL row.
  EXPECT_EQ(Run(sql, {Value::Int(1), Value::Int(2), Value::Null()}),
            (std::vector<int64_t>{2, 3}));
}

TEST_F(TableProbeTest, StreamTableJoinHashProbeMatchesIntAgainstDouble) {
  const std::string sql = "SELECT t.v FROM s, t WHERE t.k = s.k";
  auto plan = engine_.Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("hash probe on k"), std::string::npos) << *plan;
  EXPECT_EQ(Run(sql, {Value::Int(1), Value::Int(2), Value::Null()}),
            (std::vector<int64_t>{10}));
}

TEST_F(TableProbeTest, IncomparableTypesScanInsteadOfProbing) {
  // VARCHAR = INT raises a TypeError in the predicate; a probe would
  // silently find nothing, so the planner keeps the scan.
  ASSERT_TRUE(engine_.ExecuteScript("CREATE TABLE names(k VARCHAR);").ok());
  auto plan = engine_.Explain(
      "SELECT s.v FROM s WHERE NOT EXISTS (SELECT k FROM names WHERE "
      "names.k = s.k)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->find("hash probe"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("(scan)"), std::string::npos) << *plan;
}

}  // namespace
}  // namespace eslev
