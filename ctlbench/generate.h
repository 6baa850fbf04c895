#ifndef CTLBENCH_GENERATE_H_
#define CTLBENCH_GENERATE_H_

// Seeded input generator: builds a workload's Control metadata directory
// through the public model/control API, then shuts it down cleanly so the
// server boots on it without reconciliation work.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/statusor.h"

namespace ctlbench {

struct StoreShape {
  // Finished history: evaluations of `history_jobs_per_evaluation` jobs,
  // each job with its progress, log lines, result and events.
  int history_evaluations = 0;
  int history_jobs_per_evaluation = 0;
  // One scheduled evaluation, larger than any run finishes.
  int backlog_jobs = 0;
  // Deployments the load drives; one more is added for the route probe.
  int load_deployments = 0;
};

struct GeneratedStore {
  std::string user = "bench";
  std::string password = "bench-secret";
  std::vector<std::string> load_deployment_ids;
  std::string probe_deployment_id;
  std::string backlog_evaluation_id;
  int backlog_jobs = 0;
  size_t total_jobs = 0;
  // A seeded sample of finished history jobs and the number of events each
  // must have; reads of single jobs target these.
  std::map<std::string, size_t> history_sample_events;
};

// Log lines and result-file contents a job posts, derived from the seed and
// the job's "index" parameter so every client produces the same bytes for
// the same job.
std::vector<std::string> JobLogLines(uint64_t seed, int64_t index);
std::string JobResultFile(uint64_t seed, int64_t index, size_t bytes);
double JobThroughput(uint64_t seed, int64_t index);

// Creates `dir` (which must not exist yet) holding the shaped store.
chronos::StatusOr<GeneratedStore> GenerateStore(const std::string& dir,
                                                const StoreShape& shape,
                                                uint64_t seed);

}  // namespace ctlbench

#endif  // CTLBENCH_GENERATE_H_
