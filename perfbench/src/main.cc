// perfbench: the end-to-end benchmark of the ESL-EV library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints as its last stdout line one JSON object with the run's
// attempted and failed operations and its metrics: the end-to-end ones
// (untraced) or the per-layer ones (traced). See perfbench/README.md.

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "perfbench/src/harness.h"

extern char** environ;

namespace {

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "<dedup_dense|seq_modes|serve_tenants|sharded_dedup> "
               "--seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // ESLEV_SEQ_BACKEND has no opt-out in EngineOptions and would silently
  // switch the SEQ matcher; every other knob is pinned in code, so any
  // ESLEV_* variable means the run would not measure what it claims.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "ESLEV_", 6) == 0) {
      return Usage(std::string("refusing to run with ") + *env + " set");
    }
  }

  perfbench::Options options;
  std::string seed;
  std::string seconds;
  std::string trace;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      seed = value;
    } else if (flag == "--seconds") {
      seconds = value;
    } else if (flag == "--trace") {
      trace = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1) return Usage("flags come in pairs");
  char* end = nullptr;
  const unsigned long long seed_value = std::strtoull(seed.c_str(), &end, 10);
  if (seed.empty() || *end != '\0' || seed_value > 0xffffffffULL) {
    return Usage("--seed must be an integer in [0, 2^32)");
  }
  options.seed = static_cast<uint32_t>(seed_value);
  const long seconds_value = std::strtol(seconds.c_str(), &end, 10);
  if (seconds.empty() || *end != '\0' || seconds_value < 1 ||
      seconds_value > 600) {
    return Usage("--seconds must be an integer in [1, 600]");
  }
  options.seconds = static_cast<int>(seconds_value);
  if (trace != "0" && trace != "1") return Usage("--trace must be 0 or 1");
  options.trace = trace == "1";

  std::unique_ptr<perfbench::Workload> workload;
  if (options.workload == "dedup_dense") {
    workload = perfbench::MakeDedupDense();
  } else if (options.workload == "seq_modes") {
    workload = perfbench::MakeSeqModes();
  } else if (options.workload == "serve_tenants") {
    workload = perfbench::MakeServeTenants();
  } else if (options.workload == "sharded_dedup") {
    workload = perfbench::MakeShardedDedup();
  } else {
    return Usage("unknown workload '" + options.workload + "'");
  }

  // WAL and checkpoint files live under the checkout's build directory
  // and are removed when the run ends.
  namespace fs = std::filesystem;
  const fs::path root = fs::path(".bench_build") / "perfbench";
  const fs::path work =
      root / "tmp" / (options.workload + "-" + std::to_string(getpid()));
  std::error_code ec;
  fs::create_directories(work, ec);
  fs::create_directories(root / "traces", ec);
  if (ec) return Usage("cannot create " + work.string() + ": " + ec.message());
  options.work_dir = work.string();
  options.trace_path = (root / "traces" /
                        (options.workload + "-seed" + seed + ".json"))
                           .string();

  perfbench::Bench bench(options);
  const int code = bench.Run(workload.get());
  workload.reset();
  fs::remove_all(work, ec);
  return code;
}
