// Shared machinery of the end-to-end benchmark: the round loop, span
// tracing, latency and operation accounting, and the result line.
//
// A run is: input generation and oracle computation (untimed), one
// warm-up round that samples Metrics() at every cycle boundary (state
// peaks) and runs the checks' self-tests, then timed rounds until the
// requested seconds have elapsed, each followed by a few bare set-ups
// (setup_s samples). Every round brings the system up from nothing,
// feeds the same seed-derived input in reader cycles, checks every
// output against the oracle and tears the system down, so every run
// attempts whole rounds of the same operations.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

inline double SecondsBetween(TimePoint a, TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
  std::string workload;
  uint32_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for WAL and checkpoint files (removed at exit).
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string trace_path;
};

/// \brief In-memory span recorder for the traced run. Spans nest on one
/// thread (the producer); each records name, start, end and parent. A
/// name's self time is its spans' time minus their children's.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
  };

  explicit Tracer(bool enabled);

  bool active() const { return active_; }
  /// Recording happens only while enabled and active (timed rounds and
  /// trace-only replays).
  void SetActive(bool on) { active_ = enabled_ && on; }

  int32_t Begin(const char* name);
  void End(int32_t id);

  /// Fold the spans recorded since the last fold into per-name self
  /// time; the first `kKeptSpans` spans are kept for the JSON dump.
  void Fold();
  double SelfSeconds(const std::string& name) const;
  eslev::Status WriteJson(const std::string& path,
                          const std::string& header) const;

 private:
  static constexpr size_t kKeptSpans = 50000;
  int64_t NowNs() const;

  bool enabled_;
  bool active_ = false;
  TimePoint origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  std::vector<Span> kept_;
  size_t folded_total_ = 0;
  std::map<std::string, double> self_seconds_;
  std::map<std::string, uint64_t> span_counts_;
};

/// \brief RAII span; does nothing when the tracer is inactive.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->active() ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// \brief One per-layer or end-to-end figure of the result line.
struct Figure {
  double value = 0;
  std::string unit;
};

class Bench;

/// \brief One workload. The harness owns the round loop; a workload
/// brings its system up and down, feeds and checks one round, and
/// reports its per-layer figures.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate the seed's input and the oracle's expected output.
  virtual void Prepare(Bench& bench) = 0;
  /// Bring-up from nothing to ready (timed as a setup_s sample).
  virtual void SetUp(Bench& bench) = 0;
  virtual void TearDown() = 0;
  /// Feed one round in reader cycles. With `sample_state`, read
  /// Metrics() at every cycle boundary (untimed) for state peaks.
  virtual void Feed(Bench& bench, bool sample_state) = 0;
  /// Compare this round's outputs with the oracle. With `self_test`,
  /// also show that each check fails on a mutated output.
  virtual void Check(Bench& bench, bool self_test) = 0;
  /// Traced run only: the standalone replays behind per-layer figures.
  virtual void Replays(Bench& bench) { (void)bench; }
  /// Per-layer figures (traced run), given the timed round count.
  virtual void Layers(Bench& bench, std::map<std::string, Figure>* out) = 0;
  /// Input events offered per round (raw reads where input is noisy).
  virtual uint64_t EventsPerRound() const = 0;
};

std::unique_ptr<Workload> MakeDedupDense();
std::unique_ptr<Workload> MakeShardedDedup();
std::unique_ptr<Workload> MakeSeqModes();
std::unique_ptr<Workload> MakeServeTenants();

/// \brief Run context handed to workloads.
class Bench {
 public:
  explicit Bench(Options options);

  const Options& options() const { return options_; }
  Tracer& tracer() { return tracer_; }

  // ---- operation accounting ----------------------------------------------
  // Kinds: "push", "check", "register", "delivery".
  void Attempt(const char* kind, uint64_t n = 1);
  void Fail(const char* kind, uint64_t n, const std::string& why);
  /// Record a Status-returning call: one attempt, a failure when not OK.
  bool Op(const char* kind, const eslev::Status& status);
  /// A harness invariant (the oracle's own self-test); breaks `correct`.
  void Invariant(bool ok, const std::string& what);

  // ---- latency and busy time ---------------------------------------------
  void AddLatencyUs(double us) {
    if (timing_) latencies_us_.push_back(static_cast<float>(us));
  }
  void AddBusy(double seconds) {
    if (timing_) round_busy_seconds_ += seconds;
  }

  // ---- state peaks (warm-up round) ---------------------------------------
  /// Fold a Metrics() snapshot into the state peaks: the retained-tuple
  /// total behind peak_state_tuples and the per-key gauge peaks.
  void ObserveState(const eslev::MetricsSnapshot& snapshot);
  double Peak(const std::string& key) const;
  /// Sum of every gauge whose key ends with `suffix`.
  static int64_t SumGauges(const eslev::MetricsSnapshot& snapshot,
                           const std::string& suffix);
  static uint64_t SumCounters(const eslev::MetricsSnapshot& snapshot,
                              const std::string& suffix);
  /// NOT EXISTS probe comparisons per input tuple, over every operator.
  static double ProbesPerEvent(const eslev::MetricsSnapshot& snapshot);

  int timed_rounds() const { return timed_rounds_; }

  /// Run the workload and print the result line. Returns the exit code.
  int Run(Workload* workload);

 private:
  std::string ResultLine(
      const std::map<std::string, Figure>& metrics) const;

  Options options_;
  Tracer tracer_;
  std::map<std::string, uint64_t> attempted_;
  std::map<std::string, uint64_t> failed_;
  int reported_failures_ = 0;
  bool invariants_ok_ = true;
  bool timing_ = false;
  std::vector<float> latencies_us_;
  double round_busy_seconds_ = 0;
  // Per timed round: busy seconds and latency percentiles.
  std::vector<double> round_busy_;
  std::vector<double> round_p50_us_;
  std::vector<double> round_p99_us_;
  size_t latency_samples_ = 0;
  int timed_rounds_ = 0;
  std::map<std::string, double> peaks_;
};

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample.
double Percentile(std::vector<float> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
