#ifndef CTLBENCH_WORKLOADS_H_
#define CTLBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"

namespace ctlbench {

struct RunOptions {
  std::string workload;  // dispatch_deep | sweep_agents
  uint64_t seed = 1;
  int seconds = 10;      // Length of the read phase over all its chunks
                         // (the job window is counted in jobs).
  bool trace = false;    // Per-layer metrics + Chrome trace instead of e2e.
  std::string server_binary;
  std::string out_dir;   // Run directories, traces and reports go here.
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutcome {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // Why the run is not correct.
};

bool IsWorkload(const std::string& name);

// Generates the workload's store, boots Control on it, drives the job
// window and the read phase in alternating chunks, audits the outputs and
// stops Control.
chronos::StatusOr<RunOutcome> RunWorkload(const RunOptions& options);

}  // namespace ctlbench

#endif  // CTLBENCH_WORKLOADS_H_
