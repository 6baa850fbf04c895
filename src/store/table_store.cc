#include "store/table_store.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "common/file_util.h"
#include "fault/failpoint.h"
#include "obs/span.h"

namespace chronos::store {

namespace {

constexpr char kOpInsert[] = "insert";
constexpr char kOpUpdate[] = "update";
constexpr char kOpDelete[] = "delete";

// Reserved top-level snapshot key holding checkpoint metadata (not a table):
// "_meta": {"wal_seq": N} records the highest WAL sequence number the
// snapshot covers, so replay can skip records already folded in.
constexpr char kSnapshotMetaKey[] = "_meta";

// Index keys concatenate one component per field: the value's JSON text
// and a separator JSON text never contains raw (Dump escapes control
// characters), so a key prefix is exactly a prefix of field values.
// Integral doubles encode as ints, matching Json's cross-type ==.
constexpr char kKeySeparator = '\x1f';

void AppendKeyPart(const json::Json& value, std::string* key) {
  double number = value.as_double();
  if (value.is_double() && std::trunc(number) == number &&
      std::fabs(number) < 9.0e18) {
    key->append(json::Json(static_cast<int64_t>(number)).Dump());
  } else {
    key->append(value.Dump());
  }
  key->push_back(kKeySeparator);
}

std::string IndexKey(const IndexSpec& spec, const json::Json& row) {
  std::string key;
  for (const std::string& field : spec.fields) {
    AppendKeyPart(row.at(field), &key);
  }
  return key;
}

bool RowMatches(const json::Json& row, const Filter& filter) {
  for (const auto& [field, value] : filter) {
    if (row.at(field) != value) return false;
  }
  return true;
}

// The buckets of `entries` whose keys start with `prefix`, in key order. A
// key of every field matches only itself, since all of an index's keys have
// the same number of components.
template <typename Entries>
std::vector<const Entries*> BucketsWithPrefix(
    const std::map<std::string, Entries>& entries, const std::string& prefix) {
  std::vector<const Entries*> buckets;
  for (auto bucket = entries.lower_bound(prefix);
       bucket != entries.end() &&
       bucket->first.compare(0, prefix.size(), prefix) == 0;
       ++bucket) {
    buckets.push_back(&bucket->second);
  }
  return buckets;
}

// A WAL record's payload: an array of {"op", "table", "id"[, "row"]}
// mutations, the rows of one committed batch.
bool IsBatch(const json::Json& record) {
  if (!record.is_array()) return false;
  for (const json::Json& mutation : record.as_array()) {
    if (!mutation.at("table").is_string() || !mutation.at("id").is_string()) {
      return false;
    }
    const std::string& op = mutation.at("op").as_string();
    if (op == kOpDelete) continue;
    if ((op != kOpInsert && op != kOpUpdate) ||
        !mutation.at("row").is_object()) {
      return false;
    }
  }
  return true;
}

}  // namespace

void WriteBatch::Insert(std::string table, std::string id, json::Json row) {
  writes_.push_back(
      {Op::kInsert, std::move(table), std::move(id), std::move(row), -1});
}

void WriteBatch::Update(std::string table, std::string id, json::Json row,
                        int64_t expected_version) {
  writes_.push_back({Op::kUpdate, std::move(table), std::move(id),
                     std::move(row), expected_version});
}

void WriteBatch::Upsert(std::string table, std::string id, json::Json row) {
  writes_.push_back(
      {Op::kUpsert, std::move(table), std::move(id), std::move(row), -1});
}

void WriteBatch::Delete(std::string table, std::string id) {
  writes_.push_back({Op::kDelete, std::move(table), std::move(id), {}, -1});
}

TableStore::TableStore(std::string dir, TableStoreOptions options,
                       std::vector<IndexSpec> indexes)
    : dir_(std::move(dir)), options_(options) {
  for (IndexSpec& spec : indexes) {
    std::string table = spec.table;
    indexes_[table].push_back(Index{std::move(spec), {}});
  }
}

TableStore::~TableStore() = default;

std::string TableStore::SnapshotPath() const { return dir_ + "/snapshot.json"; }
std::string TableStore::WalPath() const { return dir_ + "/wal.log"; }

StatusOr<std::unique_ptr<TableStore>> TableStore::Open(
    const std::string& dir, TableStoreOptions options,
    std::vector<IndexSpec> indexes) {
  CHRONOS_RETURN_IF_ERROR(file::MakeDirs(dir));
  std::unique_ptr<TableStore> table_store(
      new TableStore(dir, options, std::move(indexes)));
  CHRONOS_RETURN_IF_ERROR(table_store->Load());
  CHRONOS_ASSIGN_OR_RETURN(table_store->wal_, Wal::Open(table_store->WalPath()));
  {
    // The WAL recovers its counter from its own records only; after a clean
    // shutdown the log is empty, so without this floor a new incarnation
    // would restart at seq 1 and the snapshot's covered-sequence stamp
    // would silently mask every record it writes on the next replay.
    MutexLock lock(table_store->mu_);
    table_store->wal_->EnsureNextSeqAtLeast(table_store->loaded_covered_seq_ +
                                            1);
  }
  return table_store;
}

Status TableStore::Load() {
  // Open-time only (no concurrent callers yet), but Apply and tables_ demand
  // the capability, so hold it for the whole load.
  MutexLock lock(mu_);
  // 1. Snapshot (if present).
  uint64_t covered_seq = 0;
  if (file::Exists(SnapshotPath())) {
    CHRONOS_ASSIGN_OR_RETURN(std::string text, file::ReadFile(SnapshotPath()));
    CHRONOS_ASSIGN_OR_RETURN(json::Json snapshot, json::Parse(text));
    if (!snapshot.is_object()) {
      return Status::Corruption("snapshot is not an object");
    }
    for (auto& [table_name, rows] : snapshot.as_object_mutable()) {
      if (table_name == kSnapshotMetaKey) {
        covered_seq =
            static_cast<uint64_t>(rows.GetIntOr("wal_seq", 0));
        loaded_covered_seq_ = covered_seq;
        continue;
      }
      // Move, not copy: the parsed document and the tables would otherwise
      // both be live at the boot's memory peak.
      Table& table = tables_[table_name];
      table = std::move(rows.as_object_mutable());
      for (const auto& [id, row] : table) IndexRow(table_name, id, row, true);
    }
  }
  // 2. WAL replay over the snapshot. A crash between snapshot rename and WAL
  // truncate leaves records the snapshot already contains; their sequence
  // numbers are <= covered_seq, so they are skipped instead of re-applied
  // (re-applying would resurrect rows deleted after the covered prefix and
  // roll back row versions).
  CHRONOS_ASSIGN_OR_RETURN(std::vector<WalRecord> records,
                           Wal::ReplayRecords(WalPath()));
  for (const WalRecord& record : records) {
    if (record.seq <= covered_seq) continue;
    // The frame's CRC held, so this is what a commit wrote, not a torn
    // tail: anything but a batch means the log cannot be trusted.
    auto batch = json::Parse(record.payload);
    if (!batch.ok() || !IsBatch(*batch)) {
      return Status::Corruption("WAL record " + std::to_string(record.seq) +
                                " is not a batch");
    }
    for (json::Json& mutation : batch->as_array_mutable()) {
      Apply(std::move(mutation));
    }
  }
  return Status::Ok();
}

void TableStore::Apply(json::Json mutation) {
  json::Object& fields = mutation.as_object_mutable();
  const std::string& table_name = fields["table"].as_string();
  const std::string& id = fields["id"].as_string();
  if (fields["op"].as_string() == kOpDelete) {
    auto table_it = tables_.find(table_name);
    if (table_it != tables_.end()) {
      auto row_it = table_it->second.find(id);
      if (row_it != table_it->second.end()) {
        IndexRow(table_name, id, row_it->second, false);
        table_it->second.erase(row_it);
      }
    }
  } else {
    auto [row_it, inserted] = tables_[table_name].try_emplace(id);
    if (!inserted) IndexRow(table_name, id, row_it->second, false);
    row_it->second = std::move(fields["row"]);
    IndexRow(table_name, id, row_it->second, true);
  }
  ++applied_;
}

void TableStore::IndexRow(const std::string& table, const std::string& id,
                          const json::Json& row, bool add) {
  auto it = indexes_.find(table);
  if (it == indexes_.end()) return;
  for (Index& index : it->second) {
    std::string key = IndexKey(index.spec, row);
    Index::Entry entry(
        index.spec.order_by.empty() ? 0
                                    : row.GetIntOr(index.spec.order_by, 0),
        id);
    if (add) {
      index.entries[std::move(key)].insert(std::move(entry));
      continue;
    }
    auto bucket = index.entries.find(key);
    if (bucket == index.entries.end()) continue;
    bucket->second.erase(entry);
    if (bucket->second.empty()) index.entries.erase(bucket);
  }
}

const TableStore::Index* TableStore::ServingIndex(const std::string& table,
                                                  const Filter& filter,
                                                  std::string* prefix) const {
  auto it = indexes_.find(table);
  if (it == indexes_.end() || filter.empty()) return nullptr;
  for (const Index& index : it->second) {
    const std::vector<std::string>& fields = index.spec.fields;
    if (filter.size() > fields.size()) continue;
    prefix->clear();
    bool served = true;
    for (size_t i = 0; i < filter.size() && served; ++i) {
      auto match = std::find_if(
          filter.begin(), filter.end(),
          [&](const auto& pair) { return pair.first == fields[i]; });
      served = match != filter.end();
      if (served) AppendKeyPart(match->second, prefix);
    }
    if (served) return &index;
  }
  return nullptr;
}

Status TableStore::MaybeCheckpointLocked() {
  if (options_.checkpoint_wal_bytes == 0) return Status::Ok();
  if (wal_->size_bytes() < options_.checkpoint_wal_bytes) return Status::Ok();
  return CheckpointLocked();
}

Status TableStore::CheckpointLocked() {
  // Unlike the commit spans this one ends while mu_ is still held (callers
  // own the lock); a slow-checkpoint WARN under the lock is rare and
  // accepted — see DESIGN.md §12.
  obs::Span span("store.checkpoint");
  span.SetAttribute("wal_bytes", std::to_string(wal_->size_bytes()));
  // Snapshot under the already-held mutex (callers hold mu_).
  json::Json snapshot = json::Json::MakeObject();
  for (const auto& [table_name, table] : tables_) {
    json::Json rows = json::Json::MakeObject();
    for (const auto& [id, row] : table) rows.Set(id, row);
    snapshot.Set(table_name, std::move(rows));
  }
  json::Json meta = json::Json::MakeObject();
  meta.Set("wal_seq", static_cast<int64_t>(wal_->last_seq()));
  snapshot.Set(kSnapshotMetaKey, std::move(meta));
  std::string tmp = SnapshotPath() + ".tmp";
  CHRONOS_RETURN_IF_ERROR(file::WriteFileDurable(tmp, snapshot.Dump()));
  if (std::rename(tmp.c_str(), SnapshotPath().c_str()) != 0) {
    return Status::IoError("snapshot rename failed");
  }
  // The rename is only durable once the directory entry is synced; until
  // then a crash can serve the old snapshot with a truncated WAL.
  CHRONOS_RETURN_IF_ERROR(file::SyncDir(dir_));
  // Crash seam between the visible snapshot and the WAL truncate — the
  // window the covered-sequence stamp exists for.
  CHRONOS_RETURN_IF_ERROR(fault::Inject("store.checkpoint.after_rename"));
  return wal_->Truncate();
}

int64_t TableStore::StoredVersion(const std::string& table,
                                  const std::string& id) const {
  auto table_it = tables_.find(table);
  if (table_it == tables_.end()) return -1;
  auto row_it = table_it->second.find(id);
  if (row_it == table_it->second.end()) return -1;
  return row_it->second.GetIntOr("_version", 0);
}

Status TableStore::Commit(WriteBatch batch) {
  if (batch.empty()) return Status::Ok();
  std::set<std::pair<std::string_view, std::string_view>> named;
  for (const WriteBatch::Write& write : batch.writes_) {
    if (write.op != WriteBatch::Op::kDelete && !write.row.is_object()) {
      return Status::InvalidArgument("row must be an object");
    }
    if (!named.emplace(write.table, write.id).second) {
      return Status::InvalidArgument("batch names " + write.table + "/" +
                                     write.id + " twice");
    }
  }
  // Span before lock: destruction order releases mu_ first, so a slow-span
  // WARN never logs under the store mutex.
  obs::Span span("store.commit");
  span.SetAttribute("ops", std::to_string(batch.size()));
  MutexLock lock(mu_);
  json::Json record = json::Json::MakeArray();
  for (WriteBatch::Write& write : batch.writes_) {
    const int64_t version = StoredVersion(write.table, write.id);
    auto path = [&write] { return write.table + "/" + write.id; };
    const char* op = kOpUpdate;
    switch (write.op) {
      case WriteBatch::Op::kInsert:
        if (version >= 0) {
          return Status::AlreadyExists("row exists: " + path());
        }
        op = kOpInsert;
        break;
      case WriteBatch::Op::kUpdate:
        if (version < 0) return Status::NotFound("row not found: " + path());
        if (write.expected_version >= 0 && version != write.expected_version) {
          return Status::FailedPrecondition(
              "version mismatch on " + path() + ": expected " +
              std::to_string(write.expected_version) + ", found " +
              std::to_string(version));
        }
        break;
      case WriteBatch::Op::kUpsert:
        break;
      case WriteBatch::Op::kDelete:
        if (version < 0) return Status::NotFound("row not found: " + path());
        op = kOpDelete;
        break;
    }
    json::Json mutation = json::Json::MakeObject();
    mutation.Set("op", op);
    mutation.Set("table", write.table);
    mutation.Set("id", write.id);
    if (write.op != WriteBatch::Op::kDelete) {
      write.row.Set("id", write.id);
      write.row.Set("_version", std::max<int64_t>(version, 0) + 1);
      mutation.Set("row", std::move(write.row));
    }
    record.Append(std::move(mutation));
  }
  // Fails the whole commit before the WAL sees it ("store.commit" covers
  // the durability boundary; "wal.append" the log write itself).
  CHRONOS_RETURN_IF_ERROR(fault::Inject("store.commit"));
  CHRONOS_RETURN_IF_ERROR(wal_->Append(record.Dump(), options_.sync_writes));
  for (json::Json& mutation : record.as_array_mutable()) {
    Apply(std::move(mutation));
  }
  return MaybeCheckpointLocked();
}

Status TableStore::Insert(const std::string& table, const std::string& id,
                          json::Json row) {
  WriteBatch batch;
  batch.Insert(table, id, std::move(row));
  return Commit(std::move(batch));
}

Status TableStore::Update(const std::string& table, const std::string& id,
                          json::Json row, int64_t expected_version) {
  WriteBatch batch;
  batch.Update(table, id, std::move(row), expected_version);
  return Commit(std::move(batch));
}

Status TableStore::Upsert(const std::string& table, const std::string& id,
                          json::Json row) {
  WriteBatch batch;
  batch.Upsert(table, id, std::move(row));
  return Commit(std::move(batch));
}

Status TableStore::Delete(const std::string& table, const std::string& id) {
  WriteBatch batch;
  batch.Delete(table, id);
  return Commit(std::move(batch));
}

StatusOr<json::Json> TableStore::Get(const std::string& table,
                                     const std::string& id) const {
  MutexLock lock(mu_);
  auto table_it = tables_.find(table);
  if (table_it != tables_.end()) {
    auto row_it = table_it->second.find(id);
    if (row_it != table_it->second.end()) return row_it->second;
  }
  return Status::NotFound("row not found: " + table + "/" + id);
}

int64_t TableStore::Version(const std::string& table,
                            const std::string& id) const {
  MutexLock lock(mu_);
  return StoredVersion(table, id);
}

bool TableStore::Exists(const std::string& table, const std::string& id) const {
  MutexLock lock(mu_);
  auto table_it = tables_.find(table);
  return table_it != tables_.end() && table_it->second.count(id) > 0;
}

std::vector<json::Json> TableStore::Scan(const std::string& table) const {
  MutexLock lock(mu_);
  std::vector<json::Json> rows;
  auto table_it = tables_.find(table);
  if (table_it != tables_.end()) {
    rows.reserve(table_it->second.size());
    for (const auto& [id, row] : table_it->second) rows.push_back(row);
  }
  return rows;
}

std::vector<json::Json> TableStore::Find(const std::string& table,
                                         const Filter& filter,
                                         size_t limit) const {
  MutexLock lock(mu_);
  std::vector<json::Json> rows;
  auto table_it = tables_.find(table);
  if (table_it == tables_.end()) return rows;
  const Table& source = table_it->second;
  std::string prefix;
  const Index* index = ServingIndex(table, filter, &prefix);
  if (index == nullptr) {
    for (const auto& [id, row] : source) {
      if (rows.size() >= limit) break;
      if (RowMatches(row, filter)) rows.push_back(row);
    }
    return rows;
  }
  std::vector<const Index::Entries*> buckets = BucketsWithPrefix(index->entries, prefix);
  if (buckets.size() == 1) {
    for (const auto& entry : *buckets[0]) {
      if (rows.size() >= limit) break;
      rows.push_back(source.at(entry.second));
    }
    return rows;
  }
  // A leading-field prefix spans several keys; merge their entries back
  // into index order.
  std::vector<const Index::Entry*> entries;
  for (const Index::Entries* bucket : buckets) {
    for (const Index::Entry& entry : *bucket) entries.push_back(&entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return *a < *b; });
  for (const Index::Entry* entry : entries) {
    if (rows.size() >= limit) break;
    rows.push_back(source.at(entry->second));
  }
  return rows;
}

std::vector<json::Json> TableStore::FindBy(const std::string& table,
                                           const std::string& field,
                                           const json::Json& value) const {
  return Find(table, {{field, value}});
}

size_t TableStore::Count(const std::string& table,
                         const Filter& filter) const {
  return CountEach(table, {filter})[0];
}

std::vector<size_t> TableStore::CountEach(
    const std::string& table, const std::vector<Filter>& filters) const {
  MutexLock lock(mu_);
  std::vector<size_t> counts(filters.size(), 0);
  auto table_it = tables_.find(table);
  if (table_it == tables_.end()) return counts;
  for (size_t i = 0; i < filters.size(); ++i) {
    std::string prefix;
    const Index* index = ServingIndex(table, filters[i], &prefix);
    if (index == nullptr) {
      for (const auto& [id, row] : table_it->second) {
        if (RowMatches(row, filters[i])) ++counts[i];
      }
      continue;
    }
    for (const Index::Entries* bucket :
         BucketsWithPrefix(index->entries, prefix)) {
      counts[i] += bucket->size();
    }
  }
  return counts;
}

int64_t TableStore::MaxInt(const std::string& table,
                           const std::string& field) const {
  MutexLock lock(mu_);
  int64_t max = 0;
  auto table_it = tables_.find(table);
  if (table_it == tables_.end()) return max;
  for (const auto& [id, row] : table_it->second) {
    max = std::max(max, row.GetIntOr(field, 0));
  }
  return max;
}

size_t TableStore::Count(const std::string& table) const {
  MutexLock lock(mu_);
  auto table_it = tables_.find(table);
  return table_it == tables_.end() ? 0 : table_it->second.size();
}

std::vector<std::string> TableStore::TableNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Status TableStore::Checkpoint() {
  MutexLock lock(mu_);
  return CheckpointLocked();
}

uint64_t TableStore::wal_bytes() const {
  MutexLock lock(mu_);
  return wal_->size_bytes();
}

uint64_t TableStore::applied_mutations() const {
  MutexLock lock(mu_);
  return applied_;
}

}  // namespace chronos::store
