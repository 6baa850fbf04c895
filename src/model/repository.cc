#include "model/repository.h"

#include "common/logging.h"
#include "obs/metrics_registry.h"

namespace chronos::model {

void ReportBadRow(const std::string& table, const json::Json& row,
                  const Status& status) {
  obs::MetricsRegistry::Get()
      ->GetCounter("chronos_store_bad_rows_total",
                   "Stored rows that failed to convert to their entity",
                   {{"table", table}})
      ->Increment();
  CHRONOS_LOG(kWarning, "model.repository")
      << "skipping bad row " << table << "/" << row.GetStringOr("id", "?")
      << ": " << status.ToString();
}

MetaDb::MetaDb(std::unique_ptr<store::TableStore> table_store)
    : store_(std::move(table_store)),
      users_(store_.get(), "users"),
      projects_(store_.get(), "projects"),
      systems_(store_.get(), "systems"),
      deployments_(store_.get(), "deployments"),
      experiments_(store_.get(), "experiments"),
      evaluations_(store_.get(), "evaluations"),
      jobs_(store_.get(), "jobs"),
      results_(store_.get(), "results"),
      job_events_(store_.get(), "job_events") {}

std::vector<store::IndexSpec> MetaDb::Indexes() {
  // (system_id, state) orders by created_at so a claim takes the oldest
  // scheduled job first; job_events order by seq, the order a job's
  // timeline is read in.
  return {
      {"jobs", {"system_id", "state"}, "created_at"},
      {"jobs", {"deployment_id", "state"}, ""},
      {"jobs", {"evaluation_id", "state"}, ""},
      {"jobs", {"state"}, ""},
      {"results", {"job_id"}, ""},
      {"job_events", {"job_id"}, "seq"},
  };
}

StatusOr<std::unique_ptr<MetaDb>> MetaDb::Open(
    const std::string& dir, store::TableStoreOptions options) {
  CHRONOS_ASSIGN_OR_RETURN(
      std::unique_ptr<store::TableStore> table_store,
      store::TableStore::Open(dir, options, Indexes()));
  return std::unique_ptr<MetaDb>(new MetaDb(std::move(table_store)));
}

}  // namespace chronos::model
