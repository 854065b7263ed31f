// The two workloads. Each runs its set-up, measures for args.seconds, checks
// every op, and returns the end-to-end metrics (args.trace == false) or the
// per-layer metrics of a traced run (args.trace == true). README.md says
// why each workload exists and which layer metric moves which end-to-end
// metric.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

RunResult RunTrain(const Args& args);
RunResult RunLive(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
