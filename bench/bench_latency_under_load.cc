// E11 (extension ablation) — latency under controlled offered load: the
// throughput/latency curve behind E1's closed-loop numbers. Four client
// threads pace operations at a fixed aggregate rate (YCSB's -target) and
// the p95 update latency is recorded per engine.
//
// Expectation: at low load both engines serve near their intrinsic latency;
// as offered load approaches the mmapv1 write ceiling (~1/write_io_us under
// a collection-exclusive lock) its update tail latency explodes while the
// document-level engine stays flat far longer — the queueing-theory view of
// the paper demo.

#include "bench/bench_util.h"

using namespace chronos;

int main() {
  bench::PrintHeader(
      "E11", "p95 update latency (us) vs offered load (50/50 mix, 4 threads)");

  mokka::Database database;
  auto wire = mokka::StartWireServer(&database, 0);
  if (!wire.ok()) return 1;

  const double kLoads[] = {200, 600, 1200, 2400};  // Aggregate ops/s.
  analysis::DiagramData diagram;
  diagram.name = "p95 update latency by offered load";
  diagram.type = model::DiagramType::kLine;
  diagram.x_label = "offered_ops_per_s";
  diagram.y_label = "p95_update_us";
  for (double load : kLoads) {
    diagram.x_values.push_back(std::to_string(static_cast<int>(load)));
  }

  for (const char* engine : {"wiredtiger", "mmapv1"}) {
    analysis::Series latency_series;
    latency_series.name = engine;
    analysis::Series achieved_series;
    achieved_series.name = std::string(engine) + " achieved ops/s";
    for (double load : kLoads) {
      clients::MokkaBenchConfig config;
      config.endpoint = (*wire)->endpoint();
      config.collection = std::string("load_") + engine;
      config.engine = engine;
      config.engine_options.Set("read_io_us", bench::kReadIoUs);
      config.engine_options.Set("write_io_us", bench::kWriteIoUs);
      config.threads = 4;
      config.target_ops_per_sec_per_thread = load / config.threads;
      config.spec.record_count = 300;
      // ~2 seconds of offered load per cell.
      config.spec.operation_count =
          static_cast<uint64_t>(load / config.threads * 2);
      if (!config.spec.ApplyRatio("read:50,update:50").ok()) return 1;

      analysis::MetricsCollector metrics;
      auto summary = clients::RunMokkaBenchmark(config, &metrics);
      if (!summary.ok()) {
        std::fprintf(stderr, "%s@%.0f failed: %s\n", engine, load,
                     summary.status().ToString().c_str());
        return 1;
      }
      json::Json stats = metrics.ToJson();
      latency_series.values.push_back(
          stats.at("latency_us").at("update").GetDoubleOr("p95", 0));
      achieved_series.values.push_back(
          summary->at("throughput").as_double());
    }
    diagram.series.push_back(std::move(latency_series));
    diagram.series.push_back(std::move(achieved_series));
  }

  std::printf("\n%s\n", diagram.ToTable().c_str());

  // Shape verdict: at the top offered load the collection-level engine can
  // no longer achieve the offered rate (its write lock is saturated) while
  // the document-level engine still does, and its update tail sits above.
  double wt_tail = diagram.series[0].values.back();
  double wt_achieved = diagram.series[1].values.back();
  double mm_tail = diagram.series[2].values.back();
  double mm_achieved = diagram.series[3].values.back();
  std::printf("at %.0f offered ops/s: wiredtiger achieved %.0f (p95 %.0fus), "
              "mmapv1 achieved %.0f (p95 %.0fus)\n",
              kLoads[3], wt_achieved, wt_tail, mm_achieved, mm_tail);
  bool holds = mm_achieved < kLoads[3] * 0.9 &&
               wt_achieved > kLoads[3] * 0.9 && mm_tail > wt_tail;
  std::printf("shape %s: collection-level locking saturates first\n",
              holds ? "HOLDS" : "DIVERGES");
  return holds ? 0 : 1;
}
