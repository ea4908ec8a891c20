// serve_tenants: QueryServer over an EngineHost with four tenants, the
// ingest stages cleaning a noisy input, the WAL on and one checkpoint per
// round. Tenants register Examples 1, 3 and 8 and E18's pairing query,
// some in several spellings that the plan cache shares, and unregister
// and re-register queries between reader cycles.
//
// Every tenant's deliveries are checked against the same query on a
// dedicated Engine over the clean trace, for the interval the tenant
// was subscribed; Example 1 also against the brute-force dedup and
// Example 8 against the generator's theft count.

#include <cctype>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "ingest/ingest_pipeline.h"
#include "perfbench/src/harness.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/oracle.h"
#include "recovery/wal.h"
#include "serve/serve_host.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using eslev::Engine;
using eslev::Milliseconds;
using eslev::Minutes;
using eslev::Seconds;
using eslev::Tuple;

constexpr char kDdl[] = R"sql(
  CREATE STREAM readings(reader_id, tag_id, read_time);
  CREATE STREAM epc_readings(reader_id, tid, read_time);
  CREATE STREAM tag_readings(tagid, tagtype, tagtime);
  CREATE STREAM R1(readerid, tagid, tagtime);
  CREATE STREAM R2(readerid, tagid, tagtime);
)sql";

// Source streams, by catalog key; their tuples_in counters sum to the
// number of clean events delivered so far.
const char* const kSources[] = {"readings", "epc_readings", "tag_readings",
                                "r1", "r2"};

struct Registration {
  int tenant;
  const char* name;
  std::string sql;
  bool churn;        // unregistered and re-registered between cycles
  bool time_closed;  // results are closed by time passing, not an arrival
};

std::vector<Registration> Registrations() {
  const std::string dedup_a =
      "SELECT * FROM readings AS r1 WHERE NOT EXISTS (SELECT * FROM TABLE("
      " readings OVER (RANGE 1 seconds PRECEDING CURRENT)) AS r2 WHERE"
      " r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)";
  const std::string dedup_b =
      "select *\n  from readings as r1\n where not exists (select * from"
      " table(readings over (range 1000 milliseconds preceding current)) as"
      " r2\n   where r2.reader_id = r1.reader_id and r2.tag_id = r1.tag_id)";
  const std::string dedup_c =
      "SELECT * FROM readings AS r1\nWHERE NOT EXISTS\n  (SELECT * FROM"
      " TABLE( readings OVER\n      (RANGE 1 SECONDS PRECEDING CURRENT)) AS"
      " r2\n   WHERE r2.reader_id = r1.reader_id\n     AND r2.tag_id ="
      " r1.tag_id)";
  const std::string theft_a =
      "SELECT * FROM tag_readings AS item WHERE item.tagtype = 'item' AND"
      " NOT EXISTS (SELECT * FROM tag_readings AS person OVER [5 SECONDS"
      " PRECEDING AND FOLLOWING item] WHERE person.tagtype = 'person')";
  const std::string theft_b =
      "select * from tag_readings as item\nwhere item.tagtype = 'item'\n"
      "  and not exists (select * from tag_readings as person\n"
      "    over [5000 milliseconds preceding and following item]\n"
      "    where person.tagtype = 'person')";
  const std::string pair_a =
      "SELECT R1.tagid, R2.tagtime FROM R1, R2 WHERE SEQ(R1, R2) OVER [1"
      " SECONDS PRECEDING R2] AND R1.tagid = R2.tagid";
  const std::string pair_b =
      "SELECT R1.tagid,  R2.tagtime\nFROM R1, R2\nWHERE SEQ(R1, R2) OVER"
      " [1000 MILLISECONDS PRECEDING R2]\n  AND R1.tagid = R2.tagid";
  return {
      {0, "dedup", dedup_a, false, false},
      {0, "theft", theft_a, false, true},
      {0, "pair", pair_a, false, false},
      {1, "dedup", dedup_b, true, false},
      {1, "epc20",
       "SELECT count(tid) FROM epc_readings WHERE tid LIKE '20.%.%'", false,
       false},
      {2, "dedup", dedup_c, false, false},
      {2, "serial",
       "SELECT count(tid) FROM epc_readings WHERE tid LIKE '20.%.%' AND"
       " extract_serial(tid) >= 5000",
       true, false},
      {3, "theft", theft_b, false, true},
      {3, "pair", pair_b, true, false},
      {3, "pair2",
       "SELECT R1.tagid, R1.tagtime, R2.tagtime FROM R1, R2 WHERE SEQ(R1,"
       " R2) OVER [2 SECONDS PRECEDING R2] AND R1.tagid = R2.tagid",
       false, false},
  };
}

constexpr int kTenants = 4;
// One reader cycle covers 250 ms of event time.
constexpr eslev::Duration kCycle = Milliseconds(250);
// A churn step (one unregistration or re-registration) every this many
// cycles.
constexpr size_t kChurnEvery = 8;
constexpr size_t kNoPosition = static_cast<size_t>(-1);

eslev::EngineOptions ServeEngineOptions() {
  eslev::EngineOptions options = PinnedEngineOptions();
  options.ingest.lateness_bound = kServeLateness;
  options.ingest.smoothing_window = kServeSmoothing;
  options.ingest.min_read_count = 2;
  return options;
}

std::string DedupKey(const Tuple& t) {
  return t.value(0).ToString() + "|" + t.value(1).ToString() + "|" +
         std::to_string(t.ts());
}

/// One subscription of a tenant's query to pipeline `pipeline`, over
/// clean positions [from, to) (to = kNoPosition: to the end of the
/// round, final time advance included).
struct Subscription {
  size_t reg;
  int pipeline;
  size_t from;
  size_t to;
};

struct Delivery {
  std::string query;
  uint64_t seq;
  Tuple tuple;
};

class ServeTenants : public Workload {
 public:
  void Prepare(Bench& bench) override {
    input_ = MakeServeInput(bench.options().seed);
    bench.Invariant(input_.noise.max_disorder <= kServeLateness,
                    "injected disorder exceeds the lateness bound");
    regs_ = Registrations();
    const auto& raw = input_.noisy.events;
    cycles_ = MakeCycles(raw, kCycle, /*ordered=*/false);
    Timestamp last = 0;
    for (const auto& e : raw) last = std::max(last, e.tuple.ts());
    // Final cycle: advance far enough to flush the ingest buffers and
    // close every FOLLOWING window.
    cycles_.push_back({raw.size(), raw.size(), last + Minutes(2)});
    push_start_.resize(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      const std::string& first = raw[i].tuple.value(0).ToString();
      if (first.find("#ghost") != std::string::npos) continue;
      first_arrival_.emplace(raw[i].tuple.ts(), i);
    }
    dir_ = bench.options().work_dir + "/serve";
  }

  uint64_t EventsPerRound() const override {
    return input_.noisy.events.size();
  }

  void SetUp(Bench& bench) override {
    bench_ = &bench;
    subscriptions_.clear();
    delivered_.assign(kTenants, {});
    fifo_.assign(kTenants, {});
    last_pending_.assign(kTenants, 0);
    std::filesystem::create_directories(dir_);
    engine_ = std::make_unique<Engine>(ServeEngineOptions());
    host_ = std::make_unique<eslev::EngineHost>(engine_.get());
    server_ = std::make_unique<eslev::QueryServer>(host_.get());
    Tracer* tracer = &bench.tracer();
    {
      ScopedSpan span(tracer, "plan.register");
      bench.Op("register", server_->ExecuteScript(kDdl));
    }
    sessions_.clear();
    for (int t = 0; t < kTenants; ++t) {
      auto session = server_->OpenSession("tenant" + std::to_string(t));
      if (bench.Op("register", session.status())) sessions_.push_back(*session);
    }
    for (size_t r = 0; r < regs_.size(); ++r) {
      ScopedSpan span(tracer, "plan.register");
      Register(r, 0);
    }
    bench.Op("register", server_->EnableWal(dir_ + "/wal.log"));
  }

  void TearDown() override {
    server_.reset();
    host_.reset();
    engine_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void Feed(Bench& bench, bool sample_state) override {
    Tracer* tracer = &bench.tracer();
    const auto& raw = input_.noisy.events;
    const size_t checkpoint_cycle = cycles_.size() / 2;
    for (size_t c = 0; c < cycles_.size(); ++c) {
      const Cycle& cycle = cycles_[c];
      const TimePoint begin = Clock::now();
      for (size_t i = cycle.begin; i < cycle.end; ++i) {
        {
          ScopedSpan span(tracer, "core.push");
          push_start_[i] = Clock::now();
          bench.Op("push", server_->PushTuple(raw[i].stream, raw[i].tuple));
        }
        Attribute(push_start_[i]);
        if (c == checkpoint_cycle && i == (cycle.begin + cycle.end) / 2) {
          // Mid-cycle, so results of the cycle's first half wait for it.
          ScopedSpan span(tracer, "recovery.checkpoint");
          bench.Op("push", server_->Checkpoint(dir_));
        }
      }
      TimePoint call = Clock::now();
      {
        ScopedSpan span(tracer, "core.advance");
        bench.Op("push", server_->AdvanceTime(cycle.advance));
      }
      Attribute(call);
      call = Clock::now();
      {
        ScopedSpan span(tracer, "serve.poll");
        bench.Op("push", server_->Poll().status());
      }
      Attribute(call);
      size_t pending = 0;
      for (size_t p : last_pending_) pending += p;
      if (sample_state) {
        outbox_pending_peak_ = std::max(outbox_pending_peak_, pending);
      }
      {
        ScopedSpan span(tracer, "serve.drain");
        Drain();
      }
      bench.AddBusy(SecondsBetween(begin, Clock::now()));
      if (sample_state) bench.ObserveState(engine_->Metrics());
      if (c % kChurnEvery == kChurnEvery / 2) Churn(c / kChurnEvery);
    }
    if (sample_state) {
      auto snapshot = server_->Metrics();
      if (bench.Op("push", snapshot.status())) final_ = *snapshot;
    }
  }

  void Check(Bench& bench, bool self_test) override {
    const eslev::MetricsSnapshot snapshot = engine_->Metrics();
    bench.Fail("delivery",
               Bench::SumCounters(snapshot, "ingest.reorder.late_dropped"),
               "ingest dropped late reads");
    bench.Invariant(SourcePosition(snapshot) == input_.clean.events.size(),
                    "ingest did not deliver exactly the clean trace");
    if (oracle_log_ != SubscriptionLog()) BuildOracle();

    uint64_t deliveries = 0;
    for (int t = 0; t < kTenants; ++t) {
      const std::string tenant = "tenant" + std::to_string(t);
      std::vector<uint64_t> seqs;
      std::map<std::string, std::vector<std::string>> got;
      std::vector<std::string> got_dedup;
      for (const Delivery& d : delivered_[t]) {
        seqs.push_back(d.seq);
        got[d.query].push_back(d.tuple.ToString());
        if (d.query == "dedup") got_dedup.push_back(DedupKey(d.tuple));
      }
      deliveries += delivered_[t].size();
      CheckSequence(bench, tenant, seqs, self_test);
      for (size_t r = 0; r < regs_.size(); ++r) {
        if (regs_[r].tenant != t) continue;
        const std::string what = tenant + " " + regs_[r].name;
        CheckKeys(bench, what + " vs dedicated engine", got[regs_[r].name],
                  expected_[r], self_test);
        if (std::string(regs_[r].name) == "dedup") {
          CheckKeys(bench, what + " vs brute-force dedup", got_dedup,
                    expected_dedup_[r], self_test);
        }
        if (std::string(regs_[r].name) == "theft") {
          CheckKeys(bench, what + " vs generated thefts",
                    std::vector<std::string>(got[regs_[r].name].size(), "theft"),
                    std::vector<std::string>(input_.expected_thefts, "theft"),
                    self_test);
        }
      }
    }
    bench.Attempt("delivery", deliveries);
    if (self_test) deliveries_per_round_ = deliveries;
  }

  void Replays(Bench& bench) override {
    Tracer* tracer = &bench.tracer();
    const auto& raw = input_.noisy.events;
    // The raw reads through a standalone ingest pipeline.
    eslev::IngestPipeline ingest(ServeEngineOptions().ingest);
    uint64_t released = 0;
    ingest.BindDelivery(
        [&released](size_t, const Tuple&) {
          ++released;
          return eslev::Status::OK();
        },
        [&released](size_t, const eslev::TupleBatch& batch) {
          released += batch.size();
          return eslev::Status::OK();
        },
        [](Timestamp) { return eslev::Status::OK(); });
    std::map<std::string, size_t> ports;
    for (const char* s : kSources) ports[s] = ingest.PortFor(s);
    for (const Cycle& c : cycles_) {
      for (size_t i = c.begin; i < c.end; ++i) {
        std::string key = raw[i].stream;
        for (char& ch : key) ch = static_cast<char>(std::tolower(ch));
        ScopedSpan span(tracer, "ingest.offer");
        bench.Op("push", ingest.Offer(ports[key], raw[i].tuple));
      }
      ScopedSpan span(tracer, "ingest.offer");
      bench.Op("push", ingest.Heartbeat(c.advance));
    }
    tracer->Fold();
    useful_ratio_ = static_cast<double>(released) / static_cast<double>(raw.size());

    // The same records through a standalone WAL writer.
    const std::string wal_path = bench.options().work_dir + "/replay.wal";
    auto wal = eslev::WalWriter::Open(wal_path, 1);
    if (bench.Op("push", wal.status())) {
      for (const Cycle& c : cycles_) {
        for (size_t i = c.begin; i < c.end; ++i) {
          ScopedSpan span(tracer, "recovery.wal_append");
          bench.Op("push", (*wal)->AppendTuple(raw[i].stream, raw[i].tuple).status());
        }
        ScopedSpan span(tracer, "recovery.wal_append");
        bench.Op("push", (*wal)->AppendHeartbeat("", c.advance).status());
      }
      {
        ScopedSpan span(tracer, "recovery.wal_append");
        bench.Op("push", (*wal)->Flush());
      }
      wal_bytes_ = static_cast<double>((*wal)->bytes_written());
      wal->reset();
    }
    tracer->Fold();
    std::error_code ec;
    std::filesystem::remove(wal_path, ec);
  }

  void Layers(Bench& bench, std::map<std::string, Figure>* out) override {
    const Tracer& tracer = bench.tracer();
    const double rounds = bench.timed_rounds();
    auto per_round = [&](const char* span) {
      return tracer.SelfSeconds(span) / rounds;
    };
    (*out)["plan.register_s"].value = per_round("plan.register");
    (*out)["core.push_s"].value = per_round("core.push");
    (*out)["core.advance_s"].value = per_round("core.advance");
    (*out)["serve.poll_s"].value = per_round("serve.poll");
    (*out)["serve.drain_s"].value = per_round("serve.drain");
    (*out)["serve.register_s"].value = per_round("serve.register");
    (*out)["serve.unregister_s"].value = per_round("serve.unregister");
    (*out)["recovery.checkpoint_s"].value = per_round("recovery.checkpoint");
    (*out)["recovery.checkpoint_bytes"].value = static_cast<double>(
        Bench::SumGauges(final_, "recovery.last_checkpoint_bytes"));
    (*out)["recovery.wal_append_s"].value = tracer.SelfSeconds("recovery.wal_append");
    (*out)["recovery.wal_bytes"].value = wal_bytes_;
    (*out)["ingest.offer_s"].value = tracer.SelfSeconds("ingest.offer");
    (*out)["ingest.useful_ratio"].value = useful_ratio_;
    (*out)["ingest.reorder_depth_peak"].value = bench.Peak("reorder_depth");
    const double hits =
        static_cast<double>(Bench::SumCounters(final_, "serve.plan_cache.hits"));
    const double misses = static_cast<double>(
        Bench::SumCounters(final_, "serve.plan_cache.misses"));
    (*out)["serve.plan_cache_hit_ratio"].value =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    (*out)["serve.fanout"].value =
        pipeline_emissions_ > 0 ? static_cast<double>(deliveries_per_round_) /
                                      static_cast<double>(pipeline_emissions_)
                                : 0;
    (*out)["serve.outbox_pending_peak"].value =
        static_cast<double>(outbox_pending_peak_);
    (*out)["exec.probes_per_event"].value = Bench::ProbesPerEvent(final_);
    (*out)["exec.window_buffer_peak"].value = bench.Peak("window_buffer");
  }

 private:
  // Clean events delivered to the source streams so far.
  static size_t SourcePosition(const eslev::MetricsSnapshot& snapshot) {
    size_t n = 0;
    for (const char* s : kSources) {
      auto it = snapshot.counters.find(std::string("stream.") + s + ".tuples_in");
      if (it != snapshot.counters.end()) n += it->second;
    }
    return n;
  }

  void Register(size_t r, size_t position) {
    const Registration& reg = regs_[r];
    auto info = sessions_[reg.tenant].Register(reg.name, reg.sql);
    if (!bench_->Op("register", info.status())) return;
    subscriptions_.push_back({r, info->engine_query_id, position, kNoPosition});
  }

  // One churn step between cycles: the churned registrations leave and
  // come back in turn.
  void Churn(size_t step) {
    std::vector<size_t> churned;
    for (size_t r = 0; r < regs_.size(); ++r) {
      if (regs_[r].churn) churned.push_back(r);
    }
    const size_t r = churned[(step / 2) % churned.size()];
    const size_t position = SourcePosition(engine_->Metrics());
    Tracer* tracer = &bench_->tracer();
    const TimePoint begin = Clock::now();
    if (step % 2 == 0) {
      ScopedSpan span(tracer, "serve.unregister");
      if (bench_->Op("register",
                     sessions_[regs_[r].tenant].Unregister(regs_[r].name))) {
        for (Subscription& s : subscriptions_) {
          if (s.reg == r && s.to == kNoPosition) s.to = position;
        }
      }
    } else {
      ScopedSpan span(tracer, "serve.register");
      Register(r, position);
    }
    bench_->AddBusy(SecondsBetween(begin, Clock::now()));
  }

  // Emissions appended to a tenant's outbox during a call are produced
  // by that call.
  void Attribute(TimePoint call_start) {
    for (int t = 0; t < kTenants; ++t) {
      const size_t pending = sessions_[t].pending();
      if (pending > last_pending_[t]) {
        fifo_[t].push_back({call_start, pending - last_pending_[t]});
      }
      last_pending_[t] = pending;
    }
  }

  void Drain() {
    for (int t = 0; t < kTenants; ++t) {
      auto drained = sessions_[t].Drain([this, t](const eslev::ServedEmission& e) {
        const TimePoint now = Clock::now();
        TimePoint start = now;
        auto& fifo = fifo_[t];
        if (!fifo.empty()) {
          start = fifo.front().first;
          if (--fifo.front().second == 0) fifo.pop_front();
        }
        // Arrival: the first push of the read the result is stamped
        // with, unless time passing closed the result.
        if (!IsTimeClosed(t, e.query)) {
          auto it = first_arrival_.find(e.tuple.ts());
          if (it != first_arrival_.end()) start = push_start_[it->second];
        }
        bench_->AddLatencyUs(MicrosBetween(start, now));
        delivered_[t].push_back({e.query, e.seq, e.tuple});
      });
      bench_->Op("delivery", drained.status());
      last_pending_[t] = sessions_[t].pending();
    }
  }

  bool IsTimeClosed(int tenant, const std::string& query) const {
    for (const Registration& r : regs_) {
      if (r.tenant == tenant && query == r.name) return r.time_closed;
    }
    return false;
  }

  std::vector<size_t> SubscriptionLog() const {
    std::vector<size_t> log;
    for (const Subscription& s : subscriptions_) {
      log.insert(log.end(), {s.reg, static_cast<size_t>(s.pipeline), s.from, s.to});
    }
    return log;
  }

  // Replay every pipeline the round created on a dedicated Engine over
  // the clean trace, from the position it was created at, and give each
  // subscription the emissions produced while it was subscribed.
  void BuildOracle() {
    oracle_log_ = SubscriptionLog();
    const auto& clean = input_.clean.events;
    std::map<int, std::vector<const Subscription*>> by_pipeline;
    for (const Subscription& s : subscriptions_) by_pipeline[s.pipeline].push_back(&s);
    expected_.assign(regs_.size(), {});
    expected_dedup_.assign(regs_.size(), {});
    pipeline_emissions_ = 0;
    for (const auto& [pipeline, subs] : by_pipeline) {
      // The pipeline lives from its first subscription to its last.
      size_t from = kNoPosition;
      size_t to = 0;
      for (const Subscription* s : subs) {
        from = std::min(from, s->from);
        to = (s->to == kNoPosition || to == kNoPosition) ? kNoPosition
                                                          : std::max(to, s->to);
      }
      auto ok = [this](const eslev::Status& st) {
        bench_->Invariant(st.ok(), "dedicated engine: " + st.ToString());
        return st.ok();
      };
      Engine engine(PinnedEngineOptions());
      if (!ok(engine.ExecuteScript(kDdl))) return;
      auto info = engine.RegisterQuery(regs_[subs.front()->reg].sql);
      if (!ok(info.status())) return;
      std::vector<std::pair<size_t, Tuple>> emitted;
      size_t position = from;
      if (!ok(engine.Subscribe(info->output_stream, [&](const Tuple& t) {
            emitted.push_back({position, t});
          }))) {
        return;
      }
      const size_t end = std::min(to, clean.size());
      for (; position < end; ++position) {
        if (!ok(engine.PushTuple(clean[position].stream, clean[position].tuple))) {
          return;
        }
      }
      if (to == kNoPosition && !ok(engine.AdvanceTime(cycles_.back().advance))) {
        return;
      }
      pipeline_emissions_ += emitted.size();
      for (const Subscription* s : subs) {
        for (const auto& [pos, t] : emitted) {
          if (pos >= s->from && (s->to == kNoPosition || pos < s->to)) {
            expected_[s->reg].push_back(t.ToString());
          }
        }
        if (std::string(regs_[s->reg].name) == "dedup") {
          for (size_t i : BruteDedup(clean, "readings", from, Seconds(1))) {
            if (i >= s->from && (s->to == kNoPosition || i < s->to)) {
              expected_dedup_[s->reg].push_back(DedupKey(clean[i].tuple));
            }
          }
        }
      }
    }
  }

  Bench* bench_ = nullptr;
  ServeInput input_;
  std::vector<Registration> regs_;
  std::vector<Cycle> cycles_;
  std::string dir_;
  std::vector<TimePoint> push_start_;
  std::unordered_map<Timestamp, size_t> first_arrival_;

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<eslev::EngineHost> host_;
  std::unique_ptr<eslev::QueryServer> server_;
  std::vector<eslev::Session> sessions_;
  std::vector<Subscription> subscriptions_;
  std::vector<std::vector<Delivery>> delivered_;
  std::vector<std::deque<std::pair<TimePoint, size_t>>> fifo_;
  std::vector<size_t> last_pending_;

  std::vector<size_t> oracle_log_;
  std::vector<std::vector<std::string>> expected_;
  std::vector<std::vector<std::string>> expected_dedup_;
  uint64_t pipeline_emissions_ = 0;
  uint64_t deliveries_per_round_ = 0;
  size_t outbox_pending_peak_ = 0;
  double useful_ratio_ = 0;
  double wal_bytes_ = 0;
  eslev::MetricsSnapshot final_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeTenants() {
  return std::make_unique<ServeTenants>();
}

}  // namespace perfbench
