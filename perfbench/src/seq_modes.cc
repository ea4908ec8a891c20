// seq_modes: one Engine running Example 6's SEQ(C1..C4) joined on tagid
// under each of the four pairing modes, Example 4's keyless star
// containment query (CHRONICLE) and Example 7's EXCEPTION_SEQ, whose
// deadlines expire on the reader cycles' time advances.

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "perfbench/src/harness.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/oracle.h"

namespace perfbench {
namespace {

using eslev::Engine;
using eslev::Seconds;
using eslev::Tuple;

constexpr char kDdl[] = R"sql(
  CREATE STREAM C1(readerid, tagid, tagtime);
  CREATE STREAM C2(readerid, tagid, tagtime);
  CREATE STREAM C3(readerid, tagid, tagtime);
  CREATE STREAM C4(readerid, tagid, tagtime);
  CREATE STREAM R1(readerid, tagid, tagtime);
  CREATE STREAM R2(readerid, tagid, tagtime);
  CREATE STREAM A1(staffid, tagid, tagtime);
  CREATE STREAM A2(staffid, tagid, tagtime);
  CREATE STREAM A3(staffid, tagid, tagtime);
)sql";

std::string StageQuery(const char* mode) {
  return std::string(
             "SELECT C1.tagid, C1.tagtime, C2.tagtime, C3.tagtime, C4.tagtime "
             "FROM C1, C2, C3, C4 "
             "WHERE SEQ(C1, C2, C3, C4) OVER [30 SECONDS PRECEDING C4] MODE ") +
         mode +
         " AND C1.tagid = C2.tagid AND C1.tagid = C3.tagid"
         " AND C1.tagid = C4.tagid";
}

constexpr char kStarQuery[] = R"sql(
  SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime
  FROM R1, R2
  WHERE SEQ(R1*, R2) MODE CHRONICLE
    AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
    AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS
)sql";

constexpr char kExceptionQuery[] = R"sql(
  SELECT A1.tagid, A2.tagid, A3.tagid
  FROM A1, A2, A3
  WHERE EXCEPTION_SEQ(A1, A2, A3)
  OVER [10 SECONDS FOLLOWING A1]
)sql";

struct QuerySpec {
  const char* name;        // per-layer name: cep.<name>.push_s
  const char* span;        // span name of its standalone replay
  std::string sql;
};

std::vector<QuerySpec> Queries() {
  return {
      {"unrestricted", "cep.unrestricted.push", StageQuery("UNRESTRICTED")},
      {"recent", "cep.recent.push", StageQuery("RECENT")},
      {"chronicle", "cep.chronicle.push", StageQuery("CHRONICLE")},
      {"consecutive", "cep.consecutive.push", StageQuery("CONSECUTIVE")},
      {"star", "cep.star.push", kStarQuery},
      {"exception", "cep.exception.push", kExceptionQuery},
  };
}

constexpr Pairing kModes[] = {Pairing::kUnrestricted, Pairing::kRecent,
                              Pairing::kChronicle, Pairing::kConsecutive};

// One reader cycle covers 1 s of event time.
constexpr eslev::Duration kCycle = Seconds(1);
// Standalone replays per query in the traced run.
constexpr int kReplays = 2;

std::string StageKey(const std::string& tag,
                     const std::vector<eslev::Timestamp>& times) {
  std::string key = tag;
  for (eslev::Timestamp t : times) {
    key += '|';
    key += std::to_string(t);
  }
  return key;
}

class SeqModes : public Workload {
 public:
  void Prepare(Bench& bench) override {
    SelfTestWalkthrough(bench);
    input_ = MakeSeqInput(bench.options().seed);
    const auto& events = input_.trace.events;
    cycles_ = MakeCycles(events, kCycle, /*ordered=*/true);
    // The round ends with a reader cycle that reads nothing but moves
    // time past every open deadline, so the last stalled workflow round
    // expires too.
    cycles_.push_back({events.size(), events.size(),
                       events.back().tuple.ts() + eslev::Minutes(1)});
    queries_ = Queries();

    // Example 6: the joint history of C1..C4, matched by brute force.
    std::vector<SeqArrival> history;
    std::vector<size_t> trace_index;
    for (size_t i = 0; i < events.size(); ++i) {
      const std::string& s = events[i].stream;
      if (s.size() != 2 || s[0] != 'C') continue;
      history.push_back({static_cast<size_t>(s[1] - '1'),
                         events[i].tuple.value(1).string_value(),
                         events[i].tuple.ts()});
      trace_index.push_back(i);
    }
    expected_.resize(queries_.size());
    for (size_t m = 0; m < 4; ++m) {
      for (const auto& b : BruteSeq(history, 4, kModes[m], Seconds(30),
                                    /*join=*/true)) {
        std::vector<eslev::Timestamp> times;
        for (size_t j : b) {
          times.push_back(events[trace_index[j]].tuple.value(2).time_value());
        }
        expected_[m].push_back(StageKey(history[b[0]].key, times));
      }
    }
    // Example 4: one containment event per case, counting its products.
    for (const auto& e : events) {
      if (e.stream != "R2") continue;
      const std::string& tag = e.tuple.value(1).string_value();
      const size_t c = std::stoul(tag.substr(4));  // "case<c>"
      expected_[4].push_back(tag + "|" + std::to_string(input_.case_sizes[c]) +
                             "|" + e.tuple.value(2).ToString());
    }
    // Example 7: one alert per stalled workflow round.
    expected_[5].assign(input_.expected_timeouts, "timeout");
  }

  uint64_t EventsPerRound() const override {
    return input_.trace.events.size();
  }

  void SetUp(Bench& bench) override {
    bench_ = &bench;
    out_.assign(queries_.size(), {});
    engine_ = std::make_unique<Engine>(PinnedEngineOptions());
    ScopedSpan span(&bench.tracer(), "plan.register");
    bench.Op("register", engine_->ExecuteScript(kDdl));
    for (size_t q = 0; q < queries_.size(); ++q) {
      auto info = engine_->RegisterQuery(queries_[q].sql);
      if (!bench.Op("register", info.status())) continue;
      bench.Op("register", engine_->Subscribe(
                               info->output_stream, [this, q](const Tuple& t) {
                                 bench_->AddLatencyUs(MicrosBetween(
                                     call_start_, Clock::now()));
                                 out_[q].push_back(t);
                               }));
    }
  }

  void TearDown() override { engine_.reset(); }

  void Feed(Bench& bench, bool sample_state) override {
    Tracer* tracer = &bench.tracer();
    const auto& events = input_.trace.events;
    for (const Cycle& c : cycles_) {
      const TimePoint begin = Clock::now();
      for (size_t i = c.begin; i < c.end; ++i) {
        ScopedSpan span(tracer, "core.push");
        call_start_ = Clock::now();
        bench.Op("push", engine_->PushTuple(events[i].stream, events[i].tuple));
      }
      {
        ScopedSpan span(tracer, "core.advance");
        call_start_ = Clock::now();
        bench.Op("push", engine_->AdvanceTime(c.advance));
      }
      bench.AddBusy(SecondsBetween(begin, Clock::now()));
      if (sample_state) bench.ObserveState(engine_->Metrics());
    }
    if (sample_state) final_ = engine_->Metrics();
  }

  void Check(Bench& bench, bool self_test) override {
    for (size_t q = 0; q < queries_.size(); ++q) {
      std::vector<std::string> got;
      for (const Tuple& t : out_[q]) {
        if (q < 4) {
          got.push_back(StageKey(t.value(0).string_value(),
                                 {t.value(1).time_value(),
                                  t.value(2).time_value(),
                                  t.value(3).time_value(),
                                  t.value(4).time_value()}));
        } else if (q == 4) {
          got.push_back(t.value(2).string_value() + "|" +
                        t.value(1).ToString() + "|" + t.value(3).ToString());
        } else {
          got.push_back("timeout");
        }
      }
      CheckKeys(bench, std::string("seq_modes ") + queries_[q].name,
                std::move(got), expected_[q], self_test);
    }
  }

  // Each query alone on its own Engine over the same input and cycles.
  void Replays(Bench& bench) override {
    Tracer* tracer = &bench.tracer();
    const auto& events = input_.trace.events;
    for (int r = 0; r < kReplays; ++r) {
      for (const QuerySpec& q : queries_) {
        Engine engine(PinnedEngineOptions());
        bench.Op("register", engine.ExecuteScript(kDdl));
        auto info = engine.RegisterQuery(q.sql);
        if (!bench.Op("register", info.status())) continue;
        for (const Cycle& c : cycles_) {
          for (size_t i = c.begin; i < c.end; ++i) {
            ScopedSpan span(tracer, q.span);
            bench.Op("push", engine.PushTuple(events[i].stream, events[i].tuple));
          }
          ScopedSpan span(tracer, q.span);
          bench.Op("push", engine.AdvanceTime(c.advance));
        }
        tracer->Fold();
      }
    }
  }

  void Layers(Bench& bench, std::map<std::string, Figure>* out) override {
    const Tracer& tracer = bench.tracer();
    const double rounds = bench.timed_rounds();
    (*out)["plan.register_s"].value = tracer.SelfSeconds("plan.register") / rounds;
    (*out)["core.push_s"].value = tracer.SelfSeconds("core.push") / rounds;
    (*out)["core.advance_s"].value = tracer.SelfSeconds("core.advance") / rounds;
    for (const QuerySpec& q : queries_) {
      (*out)[std::string("cep.") + q.name + ".push_s"].value =
          tracer.SelfSeconds(q.span) / kReplays;
    }
    (*out)["cep.retained_history_peak"].value = bench.Peak("retained_history");
    (*out)["cep.tuples_purged"].value =
        static_cast<double>(Bench::SumGauges(final_, ".tuples_purged"));
    (*out)["cep.active_expirations"].value =
        static_cast<double>(Bench::SumGauges(final_, ".active_expirations"));
  }

 private:
  Bench* bench_ = nullptr;
  SeqInput input_;
  std::vector<Cycle> cycles_;
  std::vector<QuerySpec> queries_;
  std::vector<std::vector<std::string>> expected_;
  std::vector<std::vector<Tuple>> out_;
  std::unique_ptr<Engine> engine_;
  TimePoint call_start_;
  eslev::MetricsSnapshot final_;
};

}  // namespace

std::unique_ptr<Workload> MakeSeqModes() { return std::make_unique<SeqModes>(); }

}  // namespace perfbench
