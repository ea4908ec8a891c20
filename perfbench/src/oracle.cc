#include "perfbench/src/oracle.h"

#include <algorithm>
#include <functional>

namespace perfbench {

using eslev::Duration;
using eslev::Timestamp;
using eslev::rfid::TimedReading;

std::vector<size_t> BruteDedup(const std::vector<TimedReading>& events,
                               const std::string& stream, size_t begin,
                               Duration window) {
  std::vector<size_t> passed;
  for (size_t i = begin; i < events.size(); ++i) {
    if (events[i].stream != stream) continue;
    const eslev::Tuple& t = events[i].tuple;
    bool duplicate = false;
    // Timestamps increase along the trace, so the preceding window is a
    // suffix of events[begin, i).
    for (size_t j = i; j-- > begin;) {
      const eslev::Tuple& u = events[j].tuple;
      if (u.ts() < t.ts() - window) break;
      if (events[j].stream == stream && u.value(0) == t.value(0) &&
          u.value(1) == t.value(1)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) passed.push_back(i);
  }
  return passed;
}

std::vector<std::vector<size_t>> BruteSeq(
    const std::vector<SeqArrival>& history, size_t n, Pairing mode,
    Duration window, bool join) {
  std::vector<std::vector<size_t>> out;
  std::vector<bool> consumed(history.size(), false);
  size_t window_start = 0;  // first arrival inside the current window
  for (size_t i = 0; i < history.size(); ++i) {
    const SeqArrival& trigger = history[i];
    if (trigger.pos != n - 1) continue;
    auto admissible = [&](size_t j) {
      const SeqArrival& a = history[j];
      return !consumed[j] && (window == 0 || a.ts >= trigger.ts - window) &&
             (!join || a.key == trigger.key);
    };

    if (mode == Pairing::kConsecutive) {
      if (i + 1 < n) continue;
      std::vector<size_t> binding;
      bool adjacent = true;
      for (size_t k = 0; k < n; ++k) {
        const size_t j = i + 1 - n + k;
        adjacent = adjacent && history[j].pos == k && admissible(j);
        binding.push_back(j);
      }
      if (adjacent) out.push_back(binding);
      continue;
    }

    if (window != 0) {
      while (window_start < i && history[window_start].ts < trigger.ts - window) {
        ++window_start;
      }
    }
    // Every order-respecting binding of positions 0..n-2 before i.
    std::vector<std::vector<size_t>> bindings;
    std::vector<size_t> current(n);
    current[n - 1] = i;
    std::function<void(size_t, size_t)> enumerate = [&](size_t pos,
                                                        size_t from) {
      for (size_t j = from; j < i; ++j) {
        if (history[j].pos != pos || !admissible(j)) continue;
        current[pos] = j;
        if (pos + 2 == n) {
          bindings.push_back(current);
        } else {
          enumerate(pos + 1, j + 1);
        }
      }
    };
    if (n == 1) {
      bindings.push_back(current);
    } else {
      enumerate(0, window_start);
    }
    if (bindings.empty()) continue;

    if (mode == Pairing::kUnrestricted) {
      out.insert(out.end(), bindings.begin(), bindings.end());
      continue;
    }
    if (mode == Pairing::kRecent) {
      auto more_recent = [n](const std::vector<size_t>& a,
                             const std::vector<size_t>& b) {
        for (size_t k = n - 1; k-- > 0;) {
          if (a[k] != b[k]) return a[k] > b[k];
        }
        return false;
      };
      std::vector<size_t> best = bindings.front();
      for (const auto& b : bindings) {
        if (more_recent(b, best)) best = b;
      }
      out.push_back(best);
      continue;
    }
    // CHRONICLE: bindings were enumerated earliest-first, so the first
    // one is the lexicographic minimum.
    const std::vector<size_t>& earliest = bindings.front();
    for (size_t k = 0; k + 1 < n; ++k) consumed[earliest[k]] = true;
    out.push_back(earliest);
  }
  return out;
}

void SelfTestWalkthrough(Bench& bench) {
  // Joint tuple history [t1:C1, t2:C1, t3:C2, t4:C3, t5:C3, t6:C2, t7:C4].
  const size_t positions[] = {0, 0, 1, 2, 2, 1, 3};
  std::vector<SeqArrival> history;
  for (size_t i = 0; i < 7; ++i) {
    history.push_back({positions[i], "x", static_cast<Timestamp>(i + 1)});
  }
  auto run = [&](Pairing mode) {
    std::vector<std::vector<Timestamp>> events;
    for (const auto& b : BruteSeq(history, 4, mode, 0, false)) {
      std::vector<Timestamp> ts;
      for (size_t j : b) ts.push_back(history[j].ts);
      events.push_back(ts);
    }
    std::sort(events.begin(), events.end());
    return events;
  };
  using Events = std::vector<std::vector<Timestamp>>;
  bench.Invariant(run(Pairing::kUnrestricted) ==
                      Events{{1, 3, 4, 7}, {1, 3, 5, 7}, {2, 3, 4, 7},
                             {2, 3, 5, 7}},
                  "walkthrough UNRESTRICTED");
  bench.Invariant(run(Pairing::kRecent) == Events{{2, 3, 5, 7}},
                  "walkthrough RECENT");
  bench.Invariant(run(Pairing::kChronicle) == Events{{1, 3, 4, 7}},
                  "walkthrough CHRONICLE");
  bench.Invariant(run(Pairing::kConsecutive).empty(),
                  "walkthrough CONSECUTIVE");
}

namespace {

struct Diff {
  uint64_t missing = 0;
  uint64_t extra = 0;
};

Diff CompareSorted(const std::vector<std::string>& got,
                   const std::vector<std::string>& want) {
  Diff d;
  size_t i = 0;
  size_t j = 0;
  while (i < got.size() || j < want.size()) {
    if (j == want.size() || (i < got.size() && got[i] < want[j])) {
      ++d.extra;
      ++i;
    } else if (i == got.size() || want[j] < got[i]) {
      ++d.missing;
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return d;
}

uint64_t Inversions(const std::vector<Timestamp>& ts) {
  uint64_t n = 0;
  for (size_t i = 1; i < ts.size(); ++i) n += ts[i] < ts[i - 1] ? 1 : 0;
  return n;
}

uint64_t SequenceFaults(const std::vector<uint64_t>& seqs) {
  uint64_t faults = 0;
  for (size_t i = 1; i < seqs.size(); ++i) {
    faults += seqs[i] != seqs[i - 1] + 1 ? 1 : 0;
  }
  return faults;
}

}  // namespace

void CheckKeys(Bench& bench, const std::string& what,
               std::vector<std::string> got, std::vector<std::string> want,
               bool self_test) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  const Diff d = CompareSorted(got, want);
  bench.Attempt("check", want.size() + d.extra);
  if (d.missing + d.extra > 0) {
    bench.Fail("check", d.missing + d.extra,
               what + ": " + std::to_string(d.missing) + " missing, " +
                   std::to_string(d.extra) + " unexpected of " +
                   std::to_string(want.size()) + " expected");
    return;  // the self-test mutates a passing output
  }
  if (!self_test) return;
  std::vector<std::string> added = got;
  added.push_back(got.empty() ? std::string("?") : got.front());
  std::sort(added.begin(), added.end());
  bench.Invariant(CompareSorted(added, want).extra > 0,
                  what + ": one added result goes unnoticed");
  if (!got.empty()) {
    std::vector<std::string> removed(got.begin() + 1, got.end());
    bench.Invariant(CompareSorted(removed, want).missing > 0,
                    what + ": one removed result goes unnoticed");
  }
}

void CheckOrdered(Bench& bench, const std::string& what,
                  const std::vector<Timestamp>& got, bool self_test) {
  const uint64_t inversions = Inversions(got);
  bench.Attempt("check", got.size());
  bench.Fail("check", inversions, what + ": results out of timestamp order");
  if (!self_test || got.size() < 2) return;
  std::vector<Timestamp> added = got;
  added.push_back(got.front());
  bench.Invariant(Inversions(added) > 0,
                  what + ": an out-of-order result goes unnoticed");
}

void CheckSequence(Bench& bench, const std::string& what,
                   const std::vector<uint64_t>& seqs, bool self_test) {
  bench.Fail("delivery", SequenceFaults(seqs),
             what + ": sequence numbers have gaps or repeats");
  if (!self_test || seqs.size() < 3) return;
  std::vector<uint64_t> removed = seqs;
  removed.erase(removed.begin() + 1);
  std::vector<uint64_t> added = seqs;
  added.insert(added.begin() + 1, seqs[1]);
  bench.Invariant(SequenceFaults(removed) > 0,
                  what + ": a missing delivery goes unnoticed");
  bench.Invariant(SequenceFaults(added) > 0,
                  what + ": a repeated delivery goes unnoticed");
}

}  // namespace perfbench
