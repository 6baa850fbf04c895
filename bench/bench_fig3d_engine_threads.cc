// E1 — Fig. 3d / §3 demo: comparative evaluation of the two storage engines
// across client thread counts, executed through the full Chronos toolkit
// (experiment -> evaluation -> jobs -> agents -> result analysis).
//
// Paper expectation: the document-level-locking engine (wiredtiger/btree)
// scales with client threads under a mixed workload; the
// collection-level-locking engine (mmapv1/mmap) plateaus once the single
// writer lock saturates. Crossover at/above 2 threads.

#include "bench/bench_util.h"

using namespace chronos;

int main() {
  bench::PrintHeader("E1",
                     "MongoDB-demo reproduction: throughput by engine and "
                     "client threads (YCSB-A, 50/50 read/update)");

  bench::Toolkit toolkit;
  toolkit.RegisterMokkaSystem();
  toolkit.StartMokkaDeployments(2);

  auto project = toolkit.service()->CreateProject("fig3d", "",
                                                  toolkit.admin_id());
  auto experiment = toolkit.service()->CreateExperiment(
      project->id, toolkit.admin_id(), toolkit.system_id(),
      "engine x threads", "",
      {bench::SweepSetting("engine", {json::Json("wiredtiger"),
                                      json::Json("mmapv1")}),
       bench::SweepSetting("threads", {json::Json(1), json::Json(2),
                                       json::Json(4), json::Json(8)}),
       bench::FixedSetting("records", json::Json(400)),
       bench::FixedSetting("operations", json::Json(700)),
       bench::FixedSetting("ratio", json::Json("read:50,update:50")),
       bench::FixedSetting("warmup_ops", json::Json(50)),
       bench::FixedSetting("io_read_us", json::Json(bench::kReadIoUs)),
       bench::FixedSetting("io_write_us", json::Json(bench::kWriteIoUs))});
  auto evaluation =
      toolkit.service()->CreateEvaluation(experiment->id, "fig3d run");
  std::printf("jobs: %zu (2 engines x 4 thread counts), 2 deployments\n",
              toolkit.service()->ListJobs(evaluation->id).size());

  toolkit.StartAgents({}, /*mokka_handler=*/true);
  double makespan_ms = toolkit.AwaitEvaluation(evaluation->id);
  toolkit.StopAgents();

  auto diagrams = toolkit.service()->EvaluationDiagrams(evaluation->id);
  for (const analysis::DiagramData& diagram : *diagrams) {
    std::printf("\n%s\n", diagram.ToTable().c_str());
  }

  // Shape verdict, as the paper's demo narrative states it.
  bool holds = false;
  for (const analysis::DiagramData& diagram : *diagrams) {
    const analysis::Series* btree = nullptr;
    const analysis::Series* mmap = nullptr;
    for (const analysis::Series& series : diagram.series) {
      if (series.name == "wiredtiger") btree = &series;
      if (series.name == "mmapv1") mmap = &series;
    }
    if (btree == nullptr || mmap == nullptr || btree->values.size() < 4) {
      continue;
    }
    double btree_scaling = btree->values.back() / btree->values.front();
    double mmap_scaling = mmap->values.back() / mmap->values.front();
    std::printf("wiredtiger 8-thread speedup over 1 thread: %.2fx\n",
                btree_scaling);
    std::printf("mmapv1     8-thread speedup over 1 thread: %.2fx\n",
                mmap_scaling);
    holds = btree_scaling > 2.0 && mmap_scaling < 2.0;
    std::printf("shape %s: document-level locking scales, collection-level "
                "locking plateaus\n",
                holds ? "HOLDS" : "DIVERGES");
  }
  std::printf("evaluation makespan: %.0f ms\n", makespan_ms);
  // Non-zero on DIVERGES, and when no diagram yielded a verdict at all.
  return holds ? 0 : 1;
}
