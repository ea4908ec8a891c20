// Keyed operator state (DESIGN.md §18) must pair every two tuples that
// SQL `=` pairs, whatever runtime type a column holds. INSERT INTO passes
// a projection's INT values into a DOUBLE column unconverted, while Push
// converts INT to the declared DOUBLE; both must land under one key, so
// the keyed plan emits exactly what the unkeyed scan emits.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"

namespace eslev {
namespace {

class KeyedRuntimeTypesTest : public ::testing::Test {
 protected:
  static constexpr const char* kDdl = R"sql(
    CREATE STREAM src(k INT, read_time TIMESTAMP);
    CREATE STREAM s(k DOUBLE, read_time TIMESTAMP);
    CREATE STREAM probe(k DOUBLE, read_time TIMESTAMP);
    INSERT INTO s SELECT * FROM src;
  )sql";

  static bool Keyed(const std::string& sql) {
    Engine engine;
    EXPECT_TRUE(engine.ExecuteScript(kDdl).ok());
    Result<std::string> plan = engine.Explain(sql);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return plan.ok() && plan->find("keyed on (k)") != std::string::npos;
  }

  // Registers `sql` on a fresh engine and feeds one trace; returns the
  // emitted rows.
  static std::vector<std::string> Run(const std::string& sql) {
    Engine engine;
    EXPECT_TRUE(engine.ExecuteScript(kDdl).ok());
    Result<QueryInfo> q = engine.RegisterQuery(sql);
    EXPECT_TRUE(q.ok()) << q.status();
    if (!q.ok()) return {};
    std::vector<std::string> out;
    EXPECT_TRUE(engine
                    .Subscribe(q->output_stream,
                               [&out](const Tuple& t) {
                                 out.push_back(t.ToString());
                               })
                    .ok());
    const auto push = [&engine](const std::string& stream, Value k,
                                int sec) {
      EXPECT_TRUE(engine
                      .Push(stream, {std::move(k), Value::Time(Seconds(sec))},
                            Seconds(sec))
                      .ok());
    };
    push("src", Value::Int(1), 1);       // s holds INT 1 (via INSERT INTO)
    push("s", Value::Int(2), 2);         // s holds DOUBLE 2.0 (Push converts)
    push("probe", Value::Double(1.0), 3);
    push("probe", Value::Double(2.0), 4);
    push("probe", Value::Double(3.0), 5);
    push("src", Value::Int(3), 6);
    push("probe", Value::Double(3.0), 7);
    return out;
  }
};

TEST_F(KeyedRuntimeTypesTest, NotExistsKeysInsertedIntWithPushedDouble) {
  const std::string keyed = R"sql(
    SELECT p.k FROM probe AS p WHERE NOT EXISTS
      (SELECT * FROM TABLE(s OVER (RANGE 10 seconds PRECEDING CURRENT)) AS w
       WHERE w.k = p.k))sql";
  const std::string flat = R"sql(
    SELECT p.k FROM probe AS p WHERE NOT EXISTS
      (SELECT * FROM TABLE(s OVER (RANGE 10 seconds PRECEDING CURRENT)) AS w
       WHERE w.k + 0 = p.k))sql";
  ASSERT_TRUE(Keyed(keyed));
  ASSERT_FALSE(Keyed(flat));
  const std::vector<std::string> want = Run(flat);
  ASSERT_EQ(want.size(), 1u);  // only the probe of 3.0 at 5 s
  EXPECT_EQ(Run(keyed), want);
}

TEST_F(KeyedRuntimeTypesTest, SeqKeysInsertedIntWithPushedDouble) {
  const std::string keyed = R"sql(
    SELECT s.k, probe.read_time FROM s, probe
    WHERE SEQ(s, probe) AND s.k = probe.k)sql";
  const std::string flat = R"sql(
    SELECT s.k, probe.read_time FROM s, probe
    WHERE SEQ(s, probe) AND s.k + 0 = probe.k)sql";
  ASSERT_TRUE(Keyed(keyed));
  ASSERT_FALSE(Keyed(flat));
  const std::vector<std::string> want = Run(flat);
  ASSERT_EQ(want.size(), 3u);  // 1 at 3 s, 2.0 at 4 s, 3 at 7 s
  EXPECT_EQ(Run(keyed), want);
}

}  // namespace
}  // namespace eslev
