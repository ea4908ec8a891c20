// Seed-derived inputs of the four workloads. Every trace comes from the
// library's `rfid` generators, merged across streams by timestamp and
// made strictly increasing with rfid::NormalizeUniqueTimestamps, so an
// output tuple's timestamp names the input that produced it. The same
// seed always gives the same inputs.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "rfid/workloads.h"

namespace perfbench {

using eslev::Duration;
using eslev::Timestamp;

/// \brief One reader cycle: events [begin, end) of a trace, then
/// AdvanceTime(advance).
struct Cycle {
  size_t begin = 0;
  size_t end = 0;
  Timestamp advance = 0;
};

/// \brief Split an arrival-ordered trace into reader cycles of `slice`
/// event time. A cycle ends when the running maximum timestamp crosses
/// the next slice boundary. For an ordered trace the cycle reports the
/// slice end; for a disordered one it reports the newest timestamp read
/// so far (advancing further would declare in-bound stragglers late).
std::vector<Cycle> MakeCycles(const std::vector<eslev::rfid::TimedReading>& events,
                              Duration slice, bool ordered);

/// \brief Engine options with every knob set in code: tuple-at-a-time
/// execution, the history SEQ matcher, and no ESLEV_* overrides.
eslev::EngineOptions PinnedEngineOptions();

/// Derive an independent generator seed from the run seed.
uint32_t SubSeed(uint32_t seed, uint32_t salt);

/// \brief E13's dense duplicate trace (Example 1): ~400 readings inside
/// the 1 s dedup window.
eslev::rfid::Workload DenseDedupTrace(uint32_t seed);

/// \brief The seq_modes input: Example 6 stage readings C1..C4 with
/// reusable tags, Example 4 packing readings R1/R2 and Example 7 lab
/// workflow readings A1..A3, merged into one trace.
struct SeqInput {
  eslev::rfid::Workload trace;
  /// Ground truth of the packing scenario, in case order.
  std::vector<size_t> case_sizes;
  /// Workflow rounds that stall past the window (one alert each).
  size_t expected_timeouts = 0;
};
SeqInput MakeSeqInput(uint32_t seed);

/// \brief The serve_tenants input: readings (Example 1), epc_readings
/// (Example 3), tag_readings (Example 8) and R1/R2 (E18 pairing), as a
/// clean merged trace and as the noisy arrival sequence offered to the
/// server.
struct ServeInput {
  eslev::rfid::Workload clean;
  eslev::rfid::Workload noisy;
  eslev::rfid::NoiseStats noise;
  size_t expected_thefts = 0;
};
ServeInput MakeServeInput(uint32_t seed);

/// Ingest smoothing window of serve_tenants.
constexpr Duration kServeSmoothing = eslev::kMillisecond;
/// Ingest lateness bound of serve_tenants; covers the injected disorder.
constexpr Duration kServeLateness = 400 * eslev::kMillisecond;
/// Injected arrival disorder of serve_tenants.
constexpr Duration kServeMaxShift = 300 * eslev::kMillisecond;

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
