// E2 — second axis of the §3 demo: engine throughput across operation
// mixes at fixed concurrency. Runs the evaluation client directly against
// MokkaDB deployments (the SuE under measurement, no control plane in the
// timed path).
//
// Paper expectation: the engines are comparable on read-only traffic (both
// allow concurrent readers); as the write share grows, the
// collection-level write lock of mmapv1 caps throughput and the
// document-level engine pulls ahead — the crossover the demo highlights.

#include "bench/bench_util.h"

using namespace chronos;

int main() {
  bench::PrintHeader(
      "E2", "throughput by engine and workload mix (4 client threads)");

  struct Mix {
    const char* label;
    const char* ratio;
  };
  const Mix mixes[] = {{"read-only", "read:100,update:0"},
                       {"read-mostly-95/5", "read:95,update:5"},
                       {"balanced-50/50", "read:50,update:50"},
                       {"write-heavy-5/95", "read:5,update:95"}};
  const char* engines[] = {"wiredtiger", "mmapv1"};

  mokka::Database database;
  auto wire = mokka::StartWireServer(&database, 0);
  if (!wire.ok()) return 1;

  analysis::DiagramData diagram;
  diagram.name = "Throughput (ops/s) by workload mix";
  diagram.type = model::DiagramType::kBar;
  diagram.x_label = "mix";
  diagram.y_label = "throughput";
  for (const Mix& mix : mixes) diagram.x_values.push_back(mix.label);

  for (const char* engine : engines) {
    analysis::Series series;
    series.name = engine;
    for (const Mix& mix : mixes) {
      clients::MokkaBenchConfig config;
      config.endpoint = (*wire)->endpoint();
      config.collection = std::string("bench_") + engine;
      config.engine = engine;
      config.engine_options.Set("read_io_us", bench::kReadIoUs);
      config.engine_options.Set("write_io_us", bench::kWriteIoUs);
      config.threads = 4;
      config.spec.record_count = 400;
      config.spec.operation_count = 500;  // Per thread.
      if (!config.spec.ApplyRatio(mix.ratio).ok()) return 1;

      analysis::MetricsCollector metrics;
      auto summary = clients::RunMokkaBenchmark(config, &metrics);
      if (!summary.ok()) {
        std::fprintf(stderr, "%s/%s failed: %s\n", engine, mix.label,
                     summary.status().ToString().c_str());
        return 1;
      }
      series.values.push_back(summary->at("throughput").as_double());
    }
    diagram.series.push_back(std::move(series));
  }

  std::printf("\n%s\n", diagram.ToTable().c_str());
  std::printf("CSV:\n%s\n", diagram.ToCsv().c_str());

  // Shape verdict.
  const analysis::Series& wt = diagram.series[0];
  const analysis::Series& mm = diagram.series[1];
  double read_only_gap = wt.values[0] / mm.values[0];
  double write_heavy_gap = wt.values[3] / mm.values[3];
  std::printf("read-only  wiredtiger/mmapv1 ratio: %.2f (expect ~1)\n",
              read_only_gap);
  std::printf("write-heavy wiredtiger/mmapv1 ratio: %.2f (expect >> 1)\n",
              write_heavy_gap);
  const bool holds = read_only_gap < 1.5 && write_heavy_gap > 1.5;
  std::printf("shape %s: engines comparable read-only, document-level "
              "locking wins as writes grow\n",
              holds ? "HOLDS" : "DIVERGES");
  return holds ? 0 : 1;
}
