#ifndef CHRONOS_MODEL_REPOSITORY_H_
#define CHRONOS_MODEL_REPOSITORY_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "model/entities.h"
#include "store/table_store.h"

namespace chronos::model {

// Counts a stored row that failed to convert to its entity in
// chronos_store_bad_rows_total{table=...} and logs a WARN naming it.
void ReportBadRow(const std::string& table, const json::Json& row,
                  const Status& status);

// Typed CRUD access to one entity table backed by the TableStore. T must
// provide `std::string id`, `json::Json ToJson() const` and
// `static StatusOr<T> FromJson(const json::Json&)`.
template <typename T>
class Repository {
 public:
  Repository(store::TableStore* table_store, std::string table)
      : store_(table_store), table_(std::move(table)) {}

  Status Insert(const T& entity) {
    return store_->Insert(table_, entity.id, entity.ToJson());
  }

  Status Update(const T& entity) {
    return store_->Update(table_, entity.id, entity.ToJson());
  }

  // Optimistic update: read-modify-write with the row version captured by
  // GetWithVersion.
  Status UpdateIfVersion(const T& entity, int64_t expected_version) {
    return store_->Update(table_, entity.id, entity.ToJson(),
                          expected_version);
  }

  Status Delete(const std::string& id) { return store_->Delete(table_, id); }

  StatusOr<T> Get(const std::string& id) const {
    CHRONOS_ASSIGN_OR_RETURN(json::Json row, store_->Get(table_, id));
    return T::FromJson(row);
  }

  StatusOr<std::pair<T, int64_t>> GetWithVersion(const std::string& id) const {
    CHRONOS_ASSIGN_OR_RETURN(json::Json row, store_->Get(table_, id));
    CHRONOS_ASSIGN_OR_RETURN(T entity, T::FromJson(row));
    return std::make_pair(std::move(entity), row.GetIntOr("_version", 0));
  }

  bool Exists(const std::string& id) const {
    return store_->Exists(table_, id);
  }

  // Every entity of the table, in id order.
  std::vector<T> All() const { return Convert(store_->Scan(table_)); }

  // Entities matching `filter`, at most `limit`; TableStore::Find documents
  // which filters an index serves and the order rows come back in.
  std::vector<T> Find(
      const store::Filter& filter,
      size_t limit = std::numeric_limits<size_t>::max()) const {
    return Convert(store_->Find(table_, filter, limit));
  }

  std::vector<T> FindBy(const std::string& field,
                        const json::Json& value) const {
    return Find({{field, value}});
  }

  size_t Count(const store::Filter& filter) const {
    return store_->Count(table_, filter);
  }

  std::vector<size_t> CountEach(
      const std::vector<store::Filter>& filters) const {
    return store_->CountEach(table_, filters);
  }

  size_t Count() const { return store_->Count(table_); }

  const std::string& table() const { return table_; }

 private:
  // Rows that fail FromJson are left out of the result, but never
  // silently: each one is counted and logged (ReportBadRow).
  std::vector<T> Convert(const std::vector<json::Json>& rows) const {
    std::vector<T> out;
    out.reserve(rows.size());
    for (const json::Json& row : rows) {
      auto entity = T::FromJson(row);
      if (entity.ok()) {
        out.push_back(std::move(entity).value());
      } else {
        ReportBadRow(table_, row, entity.status());
      }
    }
    return out;
  }

  store::TableStore* store_;
  std::string table_;
};

// All Chronos Control metadata repositories over one durable store — the
// MySQL-schema equivalent of the paper's Chronos Control database.
class MetaDb {
 public:
  // Opens (creating if needed) the metadata database in `dir`, declaring
  // Indexes() on its store.
  static StatusOr<std::unique_ptr<MetaDb>> Open(
      const std::string& dir, store::TableStoreOptions options = {});

  // The schema's secondary indexes: the ones the control plane's claim and
  // monitoring reads are served by.
  static std::vector<store::IndexSpec> Indexes();

  Repository<User>& users() { return users_; }
  Repository<Project>& projects() { return projects_; }
  Repository<System>& systems() { return systems_; }
  Repository<Deployment>& deployments() { return deployments_; }
  Repository<Experiment>& experiments() { return experiments_; }
  Repository<Evaluation>& evaluations() { return evaluations_; }
  Repository<Job>& jobs() { return jobs_; }
  Repository<Result>& results() { return results_; }
  Repository<JobEvent>& job_events() { return job_events_; }

  store::TableStore* table_store() { return store_.get(); }

 private:
  explicit MetaDb(std::unique_ptr<store::TableStore> table_store);

  std::unique_ptr<store::TableStore> store_;
  Repository<User> users_;
  Repository<Project> projects_;
  Repository<System> systems_;
  Repository<Deployment> deployments_;
  Repository<Experiment> experiments_;
  Repository<Evaluation> evaluations_;
  Repository<Job> jobs_;
  Repository<Result> results_;
  Repository<JobEvent> job_events_;
};

}  // namespace chronos::model

#endif  // CHRONOS_MODEL_REPOSITORY_H_
