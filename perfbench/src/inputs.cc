#include "perfbench/src/inputs.h"

#include <algorithm>
#include <map>

namespace perfbench {

using eslev::Milliseconds;
using eslev::Seconds;
using eslev::Tuple;
using eslev::Value;
using eslev::rfid::TimedReading;
using eslev::rfid::Workload;

eslev::EngineOptions PinnedEngineOptions() {
  eslev::EngineOptions options;
  options.batch_size = 1;
  options.honor_batch_env = false;
  options.seq_backend = eslev::SeqBackend::kHistory;
  options.honor_ingest_env = false;
  return options;
}

uint32_t SubSeed(uint32_t seed, uint32_t salt) {
  uint64_t x = (static_cast<uint64_t>(seed) << 8) ^ salt;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<uint32_t>(x);
}

std::vector<Cycle> MakeCycles(const std::vector<TimedReading>& events,
                              Duration slice, bool ordered) {
  std::vector<Cycle> cycles;
  if (events.empty()) return cycles;
  Timestamp max_seen = events.front().tuple.ts();
  Timestamp boundary = (max_seen / slice + 1) * slice;
  Cycle current;
  for (size_t i = 0; i < events.size(); ++i) {
    const Timestamp ts = events[i].tuple.ts();
    if (ts >= boundary) {
      current.end = i;
      current.advance = ordered ? boundary - 1 : max_seen;
      cycles.push_back(current);
      current.begin = i;
      boundary = (ts / slice + 1) * slice;
    }
    max_seen = std::max(max_seen, ts);
  }
  current.end = events.size();
  current.advance = ordered ? boundary - 1 : max_seen;
  cycles.push_back(current);
  return cycles;
}

namespace {

void Append(Workload* into, const Workload& from, const std::string& stream) {
  for (const TimedReading& e : from.events) {
    into->events.push_back({stream.empty() ? e.stream : stream, e.tuple});
  }
}

void MergeByTime(Workload* w) {
  std::stable_sort(w->events.begin(), w->events.end(),
                   [](const TimedReading& a, const TimedReading& b) {
                     return a.tuple.ts() < b.tuple.ts();
                   });
  eslev::rfid::NormalizeUniqueTimestamps(w);
}

// Rewrite column `col` (a string) of every event.
template <typename Fn>
void RewriteString(Workload* w, size_t col, Fn fn) {
  for (TimedReading& e : w->events) {
    std::vector<Value> values = e.tuple.values();
    values[col] = Value::String(fn(values[col].string_value()));
    e.tuple = Tuple(e.tuple.schema(), std::move(values), e.tuple.ts());
  }
}

// Shift every event by `offset` in event time (timestamp and the
// timestamp columns), so independently generated traces interleave.
void Shift(Workload* w, Duration offset) {
  for (TimedReading& e : w->events) {
    std::vector<Value> values = e.tuple.values();
    for (Value& v : values) {
      if (v.type() == eslev::TypeId::kTimestamp) {
        v = Value::Time(v.time_value() + offset);
      }
    }
    e.tuple = Tuple(e.tuple.schema(), std::move(values),
                    e.tuple.ts() + offset);
  }
}

// Reads of one smoothing key (stream and non-timestamp columns) that
// fall within `window` of the previous kept read are one physical read
// to the ingest cleaning stage, which merges them by design; keep only
// the first, so the clean trace is what correct cleaning outputs.
void DropWithinSmoothing(Workload* w, Duration window) {
  std::map<std::string, Timestamp> last;
  std::vector<TimedReading> kept;
  for (TimedReading& e : w->events) {
    std::string key = e.stream;
    for (const Value& v : e.tuple.values()) {
      if (v.type() == eslev::TypeId::kTimestamp) continue;
      key += '\x1f';
      key += v.ToString();
    }
    auto it = last.find(key);
    if (it != last.end() && e.tuple.ts() - it->second <= window) continue;
    last[key] = e.tuple.ts();
    kept.push_back(std::move(e));
  }
  w->events = std::move(kept);
}

}  // namespace

// ---------------------------------------------------------------------------
// dedup_dense / sharded_dedup
// ---------------------------------------------------------------------------

Workload DenseDedupTrace(uint32_t seed) {
  // E13's trace, twice as long: 6 reads per logical reading within
  // 800 ms, a new logical reading every 15 ms, so ~400 readings lie in
  // any 1 s window, over 2400 (reader, tag) keys.
  eslev::rfid::DuplicateWorkloadOptions options;
  options.num_distinct = 3000;
  options.duplicates_per_read = 5;
  options.inter_arrival = Milliseconds(15);
  options.duplicate_spread = Milliseconds(800);
  options.num_readers = 4;
  options.num_tags = 600;
  options.seed = SubSeed(seed, 1);
  Workload w = eslev::rfid::MakeDuplicateWorkload(options);
  eslev::rfid::NormalizeUniqueTimestamps(&w);
  return w;
}

// ---------------------------------------------------------------------------
// seq_modes
// ---------------------------------------------------------------------------

namespace {
// Products of the dense phase of a seq_modes round (one per second);
// the sparse phase and the other streams span the same event time.
constexpr int64_t kSeqProducts = 600;
// Totes are reused: product p carries tag "tote<p % kTotes>", so a tag
// recurs every kTotes seconds and the 30 s window holds several
// instances of each stage per tag. That is what makes the four pairing
// modes choose differently.
constexpr int64_t kTotes = 10;
}  // namespace

SeqInput MakeSeqInput(uint32_t seed) {
  SeqInput in;

  // A dense phase (a product every second, so products interleave and
  // the modes disagree), then a sparse one (a product every 10 s, so a
  // product's four readings are adjacent and CONSECUTIVE matches too).
  eslev::rfid::QualityCheckWorkloadOptions quality;
  quality.num_products = kSeqProducts;
  quality.stage_delay = Seconds(2);
  quality.product_interval = Seconds(1);
  quality.drop_rate = 0.1;
  quality.seed = SubSeed(seed, 2);
  Workload stages = eslev::rfid::MakeQualityCheckWorkload(quality);
  quality.num_products = kSeqProducts / 10;
  quality.product_interval = Seconds(10);
  quality.seed = SubSeed(seed, 5);
  Workload sparse = eslev::rfid::MakeQualityCheckWorkload(quality);
  Shift(&sparse, Seconds(kSeqProducts + 10));
  stages.events.insert(stages.events.end(), sparse.events.begin(),
                       sparse.events.end());
  RewriteString(&stages, 1, [](const std::string& tag) {
    const int64_t p = std::stoll(tag.substr(4));  // "prod<p>"
    return "tote" + std::to_string(p % kTotes);
  });

  eslev::rfid::PackingWorkloadOptions packing;
  packing.num_cases = kSeqProducts / 5;
  packing.seed = SubSeed(seed, 3);
  eslev::rfid::PackingWorkload cases = eslev::rfid::MakePackingWorkload(packing);
  in.case_sizes = cases.case_sizes;

  // Example 7 scaled from minutes to seconds: steps 3 s apart, a 10 s
  // deadline, and only stalls as violations, so each violating round
  // raises exactly one alert, at the time advance past its deadline.
  eslev::rfid::LabWorkflowWorkloadOptions lab;
  lab.num_rounds = kSeqProducts / 6;
  lab.wrong_order_rate = 0;
  lab.wrong_start_rate = 0;
  lab.timeout_rate = 0.25;
  lab.step_delay = Seconds(3);
  lab.window = Seconds(10);
  lab.round_gap = Seconds(1);
  lab.seed = SubSeed(seed, 4);
  Workload workflow = eslev::rfid::MakeLabWorkflowWorkload(lab);
  in.expected_timeouts = workflow.expected_exceptions;

  Append(&in.trace, stages, "");
  Append(&in.trace, cases, "");
  Append(&in.trace, workflow, "");
  MergeByTime(&in.trace);
  return in;
}

// ---------------------------------------------------------------------------
// serve_tenants
// ---------------------------------------------------------------------------

namespace {
// Event-time length of one serve_tenants round, in seconds.
constexpr int64_t kServeSeconds = 240;
}  // namespace

ServeInput MakeServeInput(uint32_t seed) {
  ServeInput in;

  // Example 1: a logical reading every 100 ms, each read 3 times within
  // 800 ms (~30 readings in the 1 s window).
  eslev::rfid::DuplicateWorkloadOptions dup;
  dup.num_distinct = static_cast<size_t>(kServeSeconds * 10);
  dup.duplicates_per_read = 2;
  dup.inter_arrival = Milliseconds(100);
  dup.duplicate_spread = Milliseconds(800);
  dup.num_readers = 4;
  dup.num_tags = 200;
  dup.seed = SubSeed(seed, 11);
  Workload readings = eslev::rfid::MakeDuplicateWorkload(dup);

  // Example 3: EPC-coded reads at the dock, one per 100 ms.
  eslev::rfid::EpcWorkloadOptions epc;
  epc.num_readings = static_cast<size_t>(kServeSeconds * 10);
  epc.inter_arrival = Milliseconds(100);
  epc.seed = SubSeed(seed, 12);
  Workload epcs = eslev::rfid::MakeEpcWorkload(epc);
  Shift(&epcs, Milliseconds(37));

  // Example 8 scaled to a 5 s authorization window: an item every 11 s,
  // 30% of them leaving with nobody near.
  eslev::rfid::DoorWorkloadOptions door;
  door.num_items = static_cast<size_t>(kServeSeconds / 11);
  door.theft_rate = 0.3;
  door.window = Seconds(5);
  door.item_interval = Seconds(1);
  door.seed = SubSeed(seed, 13);
  Workload doors = eslev::rfid::MakeDoorWorkload(door);
  in.expected_thefts = doors.expected_events;

  // E18 pairing: shelf (R1) then gate (R2) reads of the same tag about
  // 500 ms apart, a new tag every 200 ms, 64 tags in rotation.
  eslev::rfid::QualityCheckWorkloadOptions pairs;
  pairs.num_products = static_cast<size_t>(kServeSeconds * 5);
  pairs.num_stages = 2;
  pairs.stage_delay = Milliseconds(500);
  pairs.product_interval = Milliseconds(200);
  pairs.seed = SubSeed(seed, 14);
  Workload shelf_gate = eslev::rfid::MakeQualityCheckWorkload(pairs);
  RewriteString(&shelf_gate, 1, [](const std::string& tag) {
    return "tag" + std::to_string(std::stoll(tag.substr(4)) % 64);
  });
  Shift(&shelf_gate, Milliseconds(61));
  for (TimedReading& e : shelf_gate.events) {
    e.stream = e.stream == "C1" ? "R1" : "R2";
  }

  Append(&in.clean, readings, "readings");
  Append(&in.clean, epcs, "epc_readings");
  Append(&in.clean, doors, "tag_readings");
  Append(&in.clean, shelf_gate, "");
  MergeByTime(&in.clean);
  DropWithinSmoothing(&in.clean, kServeSmoothing);

  // Every read arrives twice (so the cleaning stage's min_read_count of
  // 2 keeps it), 20% gain a ghost read, and arrival order is shuffled
  // within 300 ms. The ingest stages restore the clean trace exactly.
  in.noisy = in.clean;
  eslev::rfid::NoiseOptions noise;
  noise.max_shift = kServeMaxShift;
  noise.duplicate_rate = 1.0;
  noise.duplicate_copies = 1;
  noise.spurious_rate = 0.2;
  noise.seed = SubSeed(seed, 15);
  in.noise = eslev::rfid::InjectNoise(&in.noisy, noise);
  return in;
}

}  // namespace perfbench
