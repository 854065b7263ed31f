// The benchmark program: runs one workload and prints its result as the last
// line of standard output.
//
//   perfbench --workload train|live --seed N
//                    --seconds S --trace 0|1 --workdir DIR [--smoke]
//
// Exit status 0 means the run completed and printed a result (whose
// "correct" field says whether every op passed its check); 2 means the
// arguments were unusable and nothing was printed.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/fault_injection.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->workdir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload train|live --seed N "
                 "--seconds S --trace 0|1 --workdir DIR [--smoke]\n",
                 argv[0]);
    return 2;
  }
  // glibc raises its mmap and trim thresholds each time it frees a large
  // mmapped block, so whether a temporary faults in fresh pages depended on
  // which blocks a run happened to free first: epoch times were bimodal by
  // seed (about 300 vs 500 ms). Start every run at the ceiling that
  // adjustment settles at in a long-running process (32 MiB mmap, twice
  // that for trimming); setting them also freezes the adjustment.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  layergcn::util::fault::DisarmAll();
  perfbench::RunResult result;
  if (args.workload == "train") {
    result = perfbench::RunTrain(args);
  } else if (args.workload == "live") {
    result = perfbench::RunLive(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  perfbench::PrintResult(result);
  return 0;
}
