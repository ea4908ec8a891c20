// dedup_dense and sharded_dedup: Example 1 over E13's dense duplicate
// trace, on one Engine and on a 2-shard ShardedEngine (one producer,
// two workers). Both are checked against the brute-force dedup.
// sharded_dedup runs on demand (README: sharding versus one engine);
// dedup_dense's traced run replays it once for the sharded.* figures.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sharded_engine.h"
#include "perfbench/src/harness.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/oracle.h"

namespace perfbench {
namespace {

using eslev::Engine;
using eslev::Seconds;
using eslev::Tuple;

constexpr char kDedupScript[] = R"sql(
  CREATE STREAM readings(reader_id, tag_id, read_time);
  CREATE STREAM cleaned_readings(reader_id, tag_id, read_time);
  INSERT INTO cleaned_readings
  SELECT * FROM readings AS r1
  WHERE NOT EXISTS
    (SELECT * FROM TABLE( readings OVER
        (RANGE 1 seconds PRECEDING CURRENT)) AS r2
     WHERE r2.reader_id = r1.reader_id
       AND r2.tag_id = r1.tag_id);
)sql";

// One reader cycle covers 1 s of event time (~400 reads).
constexpr eslev::Duration kCycle = Seconds(1);

std::string Key(const Tuple& t) {
  return t.value(0).ToString() + "|" + t.value(1).ToString() + "|" +
         std::to_string(t.ts());
}

/// Input, cycles and brute-force expectation shared by both workloads.
class DedupBase : public Workload {
 public:
  void Prepare(Bench& bench) override {
    trace_ = DenseDedupTrace(bench.options().seed);
    cycles_ = MakeCycles(trace_.events, kCycle, /*ordered=*/true);
    for (size_t i : BruteDedup(trace_.events, "readings", 0, Seconds(1))) {
      expected_.push_back(Key(trace_.events[i].tuple));
    }
  }

  uint64_t EventsPerRound() const override { return trace_.events.size(); }

  void Check(Bench& bench, bool self_test) override {
    std::vector<std::string> got;
    got.reserve(out_.size());
    for (const Tuple& t : out_) got.push_back(Key(t));
    CheckKeys(bench, name() + " dedup", std::move(got), expected_, self_test);
  }

 protected:
  virtual std::string name() const = 0;

  void LayersCommon(Bench& bench, std::map<std::string, Figure>* out) {
    (*out)["plan.register_s"].value =
        bench.tracer().SelfSeconds("plan.register") / bench.timed_rounds();
    (*out)["exec.probes_per_event"].value = Bench::ProbesPerEvent(final_);
    (*out)["exec.window_buffer_peak"].value = bench.Peak("window_buffer");
  }

  eslev::rfid::Workload trace_;
  std::vector<Cycle> cycles_;
  std::vector<std::string> expected_;
  std::vector<Tuple> out_;
  eslev::MetricsSnapshot final_;  // end of the last round fed
};

// ---------------------------------------------------------------------------

class ShardedDedup : public DedupBase {
 public:
  void Prepare(Bench& bench) override {
    DedupBase::Prepare(bench);
    push_start_.resize(trace_.events.size());
    for (size_t i = 0; i < trace_.events.size(); ++i) {
      index_of_ts_[trace_.events[i].tuple.ts()] = i;
    }
  }

  void SetUp(Bench& bench) override {
    bench_ = &bench;
    out_.clear();
    eslev::ShardedEngineOptions options;
    options.num_shards = 2;
    options.engine = PinnedEngineOptions();
    // Route-level batching: reads reach a shard in batches of up to 64.
    options.engine.batch_size = 64;
    engine_ = std::make_unique<eslev::ShardedEngine>(options);
    {
      ScopedSpan span(&bench.tracer(), "plan.register");
      bench.Op("register", engine_->ExecuteScript(kDedupScript));
    }
    bench.Op("register",
             engine_->Subscribe("cleaned_readings", [this](const Tuple& t) {
               // Drained on the producer thread: arrival is the push of
               // the reading the result passes through.
               auto it = index_of_ts_.find(t.ts());
               if (it != index_of_ts_.end()) {
                 bench_->AddLatencyUs(
                     MicrosBetween(push_start_[it->second], Clock::now()));
               }
               out_.push_back(t);
             }));
  }

  void TearDown() override { engine_.reset(); }

  void Feed(Bench& bench, bool sample_state) override {
    Tracer* tracer = &bench.tracer();
    for (const Cycle& c : cycles_) {
      const TimePoint begin = Clock::now();
      for (size_t i = c.begin; i < c.end; ++i) {
        const auto& e = trace_.events[i];
        ScopedSpan span(tracer, "sharded.push");
        push_start_[i] = Clock::now();
        bench.Op("push", engine_->PushTuple(e.stream, e.tuple));
      }
      {
        // The heartbeat is routed and enqueued to every shard too.
        ScopedSpan span(tracer, "sharded.push");
        bench.Op("push", engine_->AdvanceTime(c.advance));
      }
      {
        ScopedSpan span(tracer, "sharded.flush_wait");
        bench.Op("push", engine_->Flush());
      }
      {
        ScopedSpan span(tracer, "sharded.drain");
        engine_->DrainOutputs();
      }
      bench.AddBusy(SecondsBetween(begin, Clock::now()));
      if (sample_state) {
        auto snapshot = engine_->Metrics();
        if (bench.Op("push", snapshot.status())) bench.ObserveState(*snapshot);
      }
    }
    auto snapshot = engine_->Metrics();
    if (bench.Op("push", snapshot.status())) final_ = *snapshot;
    shard_counts_ = engine_->shard_tuple_counts();
  }

  void Check(Bench& bench, bool self_test) override {
    DedupBase::Check(bench, self_test);
    std::vector<eslev::Timestamp> ts;
    ts.reserve(out_.size());
    for (const Tuple& t : out_) ts.push_back(t.ts());
    CheckOrdered(bench, "sharded_dedup merge", ts, self_test);
  }

  void Layers(Bench& bench, std::map<std::string, Figure>* out) override {
    LayersCommon(bench, out);
    ShardedLayers(bench, bench.timed_rounds(), out);
  }

  /// The sharded.* figures, from spans recorded over `rounds` rounds.
  void ShardedLayers(Bench& bench, double rounds,
                     std::map<std::string, Figure>* out) {
    (*out)["sharded.push_s"].value =
        bench.tracer().SelfSeconds("sharded.push") / rounds;
    (*out)["sharded.flush_wait_s"].value =
        bench.tracer().SelfSeconds("sharded.flush_wait") / rounds;
    (*out)["sharded.drain_s"].value =
        bench.tracer().SelfSeconds("sharded.drain") / rounds;
    double max = 0;
    double sum = 0;
    for (uint64_t n : shard_counts_) {
      max = std::max(max, static_cast<double>(n));
      sum += static_cast<double>(n);
    }
    (*out)["sharded.shard_skew"].value =
        sum > 0 ? max / (sum / static_cast<double>(shard_counts_.size())) : 0;
    const double batches = static_cast<double>(
        Bench::SumCounters(final_, "sharded.batch.batches_enqueued"));
    const double batched = static_cast<double>(
        Bench::SumCounters(final_, "sharded.batch.tuples_batched"));
    (*out)["sharded.tuples_per_route_batch"].value =
        batches > 0 ? batched / batches : 1.0;
  }

 private:
  std::string name() const override { return "sharded_dedup"; }

  Bench* bench_ = nullptr;
  std::unique_ptr<eslev::ShardedEngine> engine_;
  std::vector<TimePoint> push_start_;
  std::unordered_map<eslev::Timestamp, size_t> index_of_ts_;
  std::vector<uint64_t> shard_counts_;
};

// ---------------------------------------------------------------------------

class DedupDense : public DedupBase {
 public:
  void SetUp(Bench& bench) override {
    bench_ = &bench;
    out_.clear();
    engine_ = std::make_unique<Engine>(PinnedEngineOptions());
    {
      ScopedSpan span(&bench.tracer(), "plan.register");
      bench.Op("register", engine_->ExecuteScript(kDedupScript));
    }
    bench.Op("register",
             engine_->Subscribe("cleaned_readings", [this](const Tuple& t) {
               bench_->AddLatencyUs(MicrosBetween(call_start_, Clock::now()));
               out_.push_back(t);
             }));
  }

  void TearDown() override { engine_.reset(); }

  void Feed(Bench& bench, bool sample_state) override {
    Tracer* tracer = &bench.tracer();
    for (const Cycle& c : cycles_) {
      const TimePoint begin = Clock::now();
      for (size_t i = c.begin; i < c.end; ++i) {
        const auto& e = trace_.events[i];
        ScopedSpan span(tracer, "core.push");
        call_start_ = Clock::now();
        bench.Op("push", engine_->PushTuple(e.stream, e.tuple));
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

  // One round of the same trace through a 2-shard ShardedEngine: the
  // routing, queue and merge-drain layers, which sharded_dedup measures
  // end to end but too unsteadily to gate on a shared host.
  void Replays(Bench& bench) override {
    Tracer* tracer = &bench.tracer();
    ShardedDedup sharded;
    tracer->SetActive(false);
    sharded.Prepare(bench);
    sharded.SetUp(bench);
    tracer->SetActive(true);
    sharded.Feed(bench, /*sample_state=*/false);
    tracer->SetActive(false);
    tracer->Fold();
    sharded.Check(bench, /*self_test=*/false);
    sharded.ShardedLayers(bench, 1.0, &sharded_layers_);
    sharded.TearDown();
  }

  void Layers(Bench& bench, std::map<std::string, Figure>* out) override {
    LayersCommon(bench, out);
    const double rounds = bench.timed_rounds();
    (*out)["core.push_s"].value = bench.tracer().SelfSeconds("core.push") / rounds;
    (*out)["core.advance_s"].value =
        bench.tracer().SelfSeconds("core.advance") / rounds;
    for (const auto& [name, figure] : sharded_layers_) {
      (*out)[name].value = figure.value;
    }
  }

 private:
  std::string name() const override { return "dedup_dense"; }

  Bench* bench_ = nullptr;
  std::unique_ptr<Engine> engine_;
  TimePoint call_start_;
  std::map<std::string, Figure> sharded_layers_;
};

}  // namespace

std::unique_ptr<Workload> MakeDedupDense() {
  return std::make_unique<DedupDense>();
}
std::unique_ptr<Workload> MakeShardedDedup() {
  return std::make_unique<ShardedDedup>();
}

}  // namespace perfbench
