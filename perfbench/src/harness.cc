#include "perfbench/src/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int32_t Tracer::Begin(const char* name) {
  const int32_t id = static_cast<int32_t>(spans_.size());
  const int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, NowNs(), 0, parent});
  stack_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::Fold() {
  if (!stack_.empty()) return;  // only between top-level spans
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self_seconds_[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    ++span_counts_[s.name];
  }
  // Keep whole folds for the dump (parent ids stay valid after rebasing).
  if (kept_.size() + spans_.size() <= kKeptSpans) {
    const auto base = static_cast<int32_t>(kept_.size());
    for (Span s : spans_) {
      if (s.parent >= 0) s.parent += base;
      kept_.push_back(s);
    }
  }
  folded_total_ += spans_.size();
  spans_.clear();
}

double Tracer::SelfSeconds(const std::string& name) const {
  auto it = self_seconds_.find(name);
  return it == self_seconds_.end() ? 0.0 : it->second;
}

eslev::Status Tracer::WriteJson(const std::string& path,
                                const std::string& header) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return eslev::Status::IoError("cannot write " + path);
  out << "{" << header << ",\"spans_recorded\":" << folded_total_
      << ",\"self_seconds\":{";
  bool first = true;
  for (const auto& [name, s] : self_seconds_) {
    out << (first ? "" : ",") << "\"" << name << "\":" << s;
    first = false;
  }
  out << "},\"span_counts\":{";
  first = true;
  for (const auto& [name, n] : span_counts_) {
    out << (first ? "" : ",") << "\"" << name << "\":" << n;
    first = false;
  }
  out << "},\"spans\":[";
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << "}";
  }
  out << "]}\n";
  return out ? eslev::Status::OK()
             : eslev::Status::IoError("short write to " + path);
}

// ---------------------------------------------------------------------------
// Bench
// ---------------------------------------------------------------------------

Bench::Bench(Options options)
    : options_(std::move(options)), tracer_(options_.trace) {}

void Bench::Attempt(const char* kind, uint64_t n) { attempted_[kind] += n; }

void Bench::Fail(const char* kind, uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed_[kind] += n;
  if (reported_failures_++ < 20) {
    std::cerr << "perfbench: " << kind << " failure x" << n << ": " << why
              << "\n";
  }
}

bool Bench::Op(const char* kind, const eslev::Status& status) {
  ++attempted_[kind];
  if (status.ok()) return true;
  Fail(kind, 1, status.ToString());
  return false;
}

void Bench::Invariant(bool ok, const std::string& what) {
  if (ok) return;
  invariants_ok_ = false;
  std::cerr << "perfbench: self-test failed: " << what << "\n";
}

int64_t Bench::SumGauges(const eslev::MetricsSnapshot& snapshot,
                         const std::string& suffix) {
  int64_t sum = 0;
  for (const auto& [key, v] : snapshot.gauges) {
    if (key.size() >= suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += v;
    }
  }
  return sum;
}

uint64_t Bench::SumCounters(const eslev::MetricsSnapshot& snapshot,
                            const std::string& suffix) {
  uint64_t sum = 0;
  for (const auto& [key, v] : snapshot.counters) {
    if (key.size() >= suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += v;
    }
  }
  return sum;
}

double Bench::ProbesPerEvent(const eslev::MetricsSnapshot& snapshot) {
  const double probes = static_cast<double>(
      SumGauges(snapshot, ".WindowedNotExists.probe_comparisons"));
  const double in = static_cast<double>(
      SumCounters(snapshot, ".WindowedNotExists.tuples_in"));
  return in > 0 ? probes / in : 0;
}

// The gauges that count retained tuples: operator buffers (NOT EXISTS
// window and FOLLOWING pending set, SEQ history, EXCEPTION_SEQ partial
// run) and ingest buffers (reorder heap, cleaning hold-back and open
// smoothing groups), on every shard.
void Bench::ObserveState(const eslev::MetricsSnapshot& snapshot) {
  auto peak = [this](const std::string& key, double v) {
    double& p = peaks_[key];
    p = std::max(p, v);
  };
  const double window = static_cast<double>(SumGauges(snapshot, ".window_buffer"));
  const double pending =
      static_cast<double>(SumGauges(snapshot, ".WindowedNotExists.pending"));
  const double history =
      static_cast<double>(SumGauges(snapshot, ".retained_history"));
  const double partial =
      static_cast<double>(SumGauges(snapshot, ".partial_level"));
  const double reorder =
      static_cast<double>(SumGauges(snapshot, "ingest.reorder.depth"));
  const double cleaning =
      static_cast<double>(SumGauges(snapshot, "ingest.clean.pending") +
                          SumGauges(snapshot, "ingest.clean.open_groups"));
  peak("state_tuples",
       window + pending + history + partial + reorder + cleaning);
  peak("window_buffer", window);
  peak("retained_history", history + partial);
  peak("reorder_depth", reorder);
}

double Bench::Peak(const std::string& key) const {
  auto it = peaks_.find(key);
  return it == peaks_.end() ? 0.0 : it->second;
}

double Percentile(std::vector<float> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

namespace {

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string Num(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

// Every per-layer figure of the traced run, with its unit. A layer a
// workload does not exercise reads 0 on that workload.
const std::pair<const char*, const char*> kLayerFigures[] = {
    {"plan.register_s", "s"},
    {"core.push_s", "s"},
    {"core.advance_s", "s"},
    {"exec.probes_per_event", "count"},
    {"exec.window_buffer_peak", "tuples"},
    {"cep.unrestricted.push_s", "s"},
    {"cep.recent.push_s", "s"},
    {"cep.chronicle.push_s", "s"},
    {"cep.consecutive.push_s", "s"},
    {"cep.star.push_s", "s"},
    {"cep.exception.push_s", "s"},
    {"cep.retained_history_peak", "tuples"},
    {"cep.tuples_purged", "tuples"},
    {"cep.active_expirations", "count"},
    {"ingest.offer_s", "s"},
    {"ingest.reorder_depth_peak", "tuples"},
    {"ingest.useful_ratio", "ratio"},
    {"serve.poll_s", "s"},
    {"serve.drain_s", "s"},
    {"serve.register_s", "s"},
    {"serve.unregister_s", "s"},
    {"serve.fanout", "ratio"},
    {"serve.plan_cache_hit_ratio", "ratio"},
    {"serve.outbox_pending_peak", "count"},
    {"recovery.wal_append_s", "s"},
    {"recovery.wal_bytes", "bytes"},
    {"recovery.checkpoint_s", "s"},
    {"recovery.checkpoint_bytes", "bytes"},
    {"sharded.push_s", "s"},
    {"sharded.flush_wait_s", "s"},
    {"sharded.drain_s", "s"},
    {"sharded.shard_skew", "ratio"},
    {"sharded.tuples_per_route_batch", "ratio"},
};

// Set-up is sampled this many times after each timed round, and at
// least kMinSetupSamples times per run; setup_s is the samples' median.
constexpr int kSetupsPerRound = 5;
constexpr size_t kMinSetupSamples = 25;
// At least this many timed rounds, however short the run.
constexpr int kMinTimedRounds = 2;

}  // namespace

std::string Bench::ResultLine(
    const std::map<std::string, Figure>& metrics) const {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const auto& [k, n] : attempted_) attempted += n;
  for (const auto& [k, n] : failed_) failed += n;
  const bool correct = invariants_ok_ && failed == 0;
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, fig] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << Num(fig.value) << ", \"unit\": \"" << fig.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

int Bench::Run(Workload* workload) {
  workload->Prepare(*this);

  std::vector<double> setups;
  auto sample_setup = [&] {
    const TimePoint t0 = Clock::now();
    workload->SetUp(*this);
    setups.push_back(SecondsBetween(t0, Clock::now()));
    workload->TearDown();
  };

  // Warm-up round: untimed, samples state at cycle boundaries and runs
  // every check's self-test.
  workload->SetUp(*this);
  workload->Feed(*this, /*sample_state=*/true);
  workload->Check(*this, /*self_test=*/true);
  workload->TearDown();

  const TimePoint deadline =
      Clock::now() + std::chrono::seconds(options_.seconds);
  while (timed_rounds_ < kMinTimedRounds || Clock::now() < deadline) {
    tracer_.SetActive(true);
    round_busy_seconds_ = 0;
    {
      ScopedSpan round(&tracer_, "round");
      workload->SetUp(*this);
      timing_ = true;
      workload->Feed(*this, /*sample_state=*/false);
      timing_ = false;
    }
    tracer_.SetActive(false);
    tracer_.Fold();
    workload->Check(*this, /*self_test=*/false);
    workload->TearDown();
    round_busy_.push_back(round_busy_seconds_);
    round_p50_us_.push_back(Percentile(latencies_us_, 0.50));
    round_p99_us_.push_back(Percentile(latencies_us_, 0.99));
    latency_samples_ += latencies_us_.size();
    latencies_us_.clear();
    ++timed_rounds_;
    // Set-up samples spread over the whole run, so one burst of
    // interference cannot move their median.
    for (int i = 0; i < kSetupsPerRound; ++i) sample_setup();
  }
  while (setups.size() < kMinSetupSamples) sample_setup();

  std::map<std::string, Figure> metrics;
  if (options_.trace) {
    tracer_.SetActive(true);
    workload->Replays(*this);
    tracer_.SetActive(false);
    tracer_.Fold();
    for (const auto& [name, unit] : kLayerFigures) metrics[name] = {0, unit};
    workload->Layers(*this, &metrics);
    const double eps =
        static_cast<double>(workload->EventsPerRound()) / Median(round_busy_);
    // Informational: the traced run's throughput, for the tracing
    // overhead (end-to-end figures always come from untraced runs).
    std::cerr << "perfbench: traced throughput_eps " << Num(eps) << "\n";
    std::ostringstream header;
    header << "\"workload\":\"" << options_.workload
           << "\",\"seed\":" << options_.seed
           << ",\"timed_rounds\":" << timed_rounds_;
    const eslev::Status written =
        tracer_.WriteJson(options_.trace_path, header.str());
    if (!written.ok()) {
      std::cerr << "perfbench: " << written.ToString() << "\n";
      return 1;
    }
  } else {
    // Medians over the timed rounds, so a burst of interference on a
    // shared machine moves a figure less than a pooled total would.
    metrics["throughput_eps"] = {
        static_cast<double>(workload->EventsPerRound()) / Median(round_busy_),
        "1/s"};
    metrics["latency_p50_us"] = {Median(round_p50_us_), "us"};
    metrics["latency_p99_us"] = {Median(round_p99_us_), "us"};
    metrics["setup_s"] = {Median(setups), "s"};
    metrics["peak_state_tuples"] = {Peak("state_tuples"), "tuples"};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
    std::cerr << "perfbench: " << options_.workload << " seed "
              << options_.seed << ": " << timed_rounds_ << " timed rounds, "
              << latency_samples_ << " latency samples\n";
    std::cerr << "perfbench: per-round throughput_eps";
    for (double busy : round_busy_) {
      std::cerr << " " << static_cast<int64_t>(
                              static_cast<double>(workload->EventsPerRound()) /
                              busy);
    }
    std::cerr << "\n";
  }
  for (const auto& [kind, n] : attempted_) {
    std::cerr << "perfbench: ops " << kind << " attempted " << n
              << " failed " << (failed_.count(kind) ? failed_.at(kind) : 0)
              << "\n";
  }
  std::cout << ResultLine(metrics) << std::endl;
  return 0;
}

}  // namespace perfbench
