// Independent checks of the program's outputs. Nothing here calls the
// engine: each expected output is computed from the input by brute
// force, straight from the paper's definitions, or taken from the
// generator's ground truth.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "rfid/workloads.h"

namespace perfbench {

/// \brief Example 1 by brute force: indices of the events of `stream`
/// at or after `begin` that pass duplicate elimination — no earlier
/// event of `stream` at or after `begin` with the same first two
/// columns (reader, tag) lies in the preceding `window` (inclusive).
std::vector<size_t> BruteDedup(
    const std::vector<eslev::rfid::TimedReading>& events,
    const std::string& stream, size_t begin, eslev::Duration window);

enum class Pairing { kUnrestricted, kRecent, kChronicle, kConsecutive };

/// \brief One arrival on the joint history of a SEQ: its position
/// (argument index), join key and timestamp.
struct SeqArrival {
  size_t pos;
  std::string key;
  eslev::Timestamp ts;
};

/// \brief SEQ(P0, ..., Pn-1) by brute force from the §3.1.1
/// definitions. For each arrival at the last position, enumerate every
/// order-respecting binding of earlier arrivals that lies inside the
/// window (every bound timestamp >= trigger − window; 0 = no window)
/// and, with `join`, shares the trigger's key; then apply the pairing
/// mode as a selection policy over those bindings:
///   UNRESTRICTED  every binding;
///   RECENT        the one whose latest-position arrival is most recent,
///                 ties broken position by position towards the first;
///   CHRONICLE     the one whose first-position arrival is earliest,
///                 ties broken position by position towards the last;
///                 its arrivals are consumed;
///   CONSECUTIVE   the binding of the n most recent arrivals, if they are
///                 positions 0..n-1 in order (adjacent on the history).
/// Returns each emitted binding as indices into `history`, in order.
std::vector<std::vector<size_t>> BruteSeq(
    const std::vector<SeqArrival>& history, size_t n, Pairing mode,
    eslev::Duration window, bool join);

/// \brief Check the brute-force matcher against the paper's §3.1.1
/// walkthrough for all four modes.
void SelfTestWalkthrough(Bench& bench);

/// \brief Compare two multisets of result keys. Each expected result
/// and each unexpected one is a "check" operation; a missing or extra
/// result fails it. With `self_test`, also show that the comparison
/// fails when one result is removed from `got` or one is added.
void CheckKeys(Bench& bench, const std::string& what,
               std::vector<std::string> got, std::vector<std::string> want,
               bool self_test);

/// \brief `got` results must be timestamp-ordered (one check per
/// result). With `self_test`, show that appending the first result
/// again, out of order, fails the check.
void CheckOrdered(Bench& bench, const std::string& what,
                  const std::vector<eslev::Timestamp>& got, bool self_test);

/// \brief Per-tenant sequence numbers must run without gaps. Gaps and
/// repeats are failed deliveries. With `self_test`, show that removing
/// or repeating one fails the check.
void CheckSequence(Bench& bench, const std::string& what,
                   const std::vector<uint64_t>& seqs, bool self_test);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
