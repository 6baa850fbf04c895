// ctlbench: out-of-process benchmark of Chronos Control.
//
//   ctlbench --server PATH --out DIR --workload NAME --seed N --seconds S
//            --trace 0|1
//
// Prints, as its last line, one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 gives the end-to-end metrics, --trace 1
// the per-layer ones plus a Chrome trace in DIR. Exits non-zero, without a
// result line, when the run cannot be made at all.

#include <iostream>
#include <map>
#include <string>

#include "common/strings.h"
#include "json/json.h"
#include "workloads.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "ctlbench: " << why
            << "\nusage: ctlbench --server PATH --out DIR --workload "
               "dispatch_deep|sweep_agents --seed N --seconds S "
               "--trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string name = argv[i];
    if (name.rfind("--", 0) != 0) return Usage("unexpected " + name);
    flags[name.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");

  ctlbench::RunOptions options;
  options.workload = flags["workload"];
  options.server_binary = flags["server"];
  options.out_dir = flags["out"];
  int64_t seconds = 0;
  uint64_t seed = 0;
  if (!ctlbench::IsWorkload(options.workload)) {
    return Usage("unknown workload '" + options.workload + "'");
  }
  if (!chronos::strings::ParseUint64(flags["seed"], &seed) ||
      !chronos::strings::ParseInt64(flags["seconds"], &seconds) ||
      seconds < 1 || seconds > 600 ||
      (flags["trace"] != "0" && flags["trace"] != "1") ||
      options.server_binary.empty() || options.out_dir.empty()) {
    return Usage("bad or missing flag");
  }
  options.seed = seed;
  options.seconds = static_cast<int>(seconds);
  options.trace = flags["trace"] == "1";

  auto outcome = ctlbench::RunWorkload(options);
  if (!outcome.ok()) {
    std::cerr << "ctlbench: " << outcome.status().ToString() << "\n";
    return 1;
  }
  for (const std::string& problem : outcome->problems) {
    std::cerr << "problem: " << problem << "\n";
  }
  chronos::json::Json metrics = chronos::json::Json::MakeObject();
  for (const ctlbench::Metric& metric : outcome->metrics) {
    chronos::json::Json entry = chronos::json::Json::MakeObject();
    entry.Set("value", metric.value);
    entry.Set("unit", metric.unit);
    metrics.Set(metric.name, std::move(entry));
  }
  chronos::json::Json result = chronos::json::Json::MakeObject();
  result.Set("correct", outcome->correct);
  result.Set("attempted", static_cast<int64_t>(outcome->attempted));
  result.Set("failed", static_cast<int64_t>(outcome->failed));
  result.Set("metrics", std::move(metrics));
  std::cout << result.Dump() << std::endl;
  return 0;
}
