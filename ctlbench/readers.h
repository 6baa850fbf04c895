#ifndef CTLBENCH_READERS_H_
#define CTLBENCH_READERS_H_

// Readers of what the Control process exposes to the outside: its public
// Prometheus /metrics text and the kernel's /proc/<pid> files. Plus the
// percentile rule every reported timing follows.

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"

namespace ctlbench {

// One parsed /metrics exposition. Comment lines are skipped; every sample
// line becomes (name, labels, value).
class MetricsText {
 public:
  static chronos::StatusOr<MetricsText> Parse(std::string_view text);

  // Sum over every series of `name` whose labels contain `label`="`value`";
  // an empty `label` sums every series. 0 when nothing matches.
  double Sum(const std::string& name, const std::string& label = "",
             const std::string& value = "") const;

 private:
  struct Sample {
    std::string name;
    std::map<std::string, std::string> labels;
    double value = 0;
  };
  std::vector<Sample> samples_;
};

// CPU and memory of one process, from /proc/<pid>/stat and /status.
// User+sys CPU seconds from the text of /proc/<pid>/stat.
chronos::StatusOr<double> ParseProcStatCpuSeconds(std::string_view stat,
                                                  long ticks_per_second);
// VmHWM (peak resident set) in KiB from the text of /proc/<pid>/status.
chronos::StatusOr<long> ParseVmHwmKb(std::string_view status);

chronos::StatusOr<double> ReadCpuSeconds(int pid);
chronos::StatusOr<long> ReadVmHwmKb(int pid);

// Nearest-rank percentile q in (0, 1) of `values`, reported only when at
// least ten samples lie beyond it (so p99 needs 1,000 samples, p50 20).
std::optional<double> Percentile(std::vector<double> values, double q);

}  // namespace ctlbench

#endif  // CTLBENCH_READERS_H_
