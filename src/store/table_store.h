#ifndef CHRONOS_STORE_TABLE_STORE_H_
#define CHRONOS_STORE_TABLE_STORE_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "json/json.h"
#include "store/wal.h"

namespace chronos::store {

struct TableStoreOptions {
  // fsync the WAL on every commit. Chronos Control metadata defaults to
  // durable commits; benchmarks may relax this.
  bool sync_writes = true;
  // Checkpoint automatically once the WAL exceeds this size (0 = never).
  uint64_t checkpoint_wal_bytes = 16 * 1024 * 1024;
};

// A declared equality index over one table: rows keyed by the values of
// `fields`. The ids under one key are ordered by the integer field
// `order_by` (a row without it sorts as 0; empty = no order field), ties
// broken by id. Indexes are schema, not data: nothing about them is
// persisted, and Open() rebuilds them while it loads the snapshot and
// replays the WAL.
struct IndexSpec {
  std::string table;
  std::vector<std::string> fields;
  std::string order_by;
};

// An equality filter: every (field, value) pair must match.
using Filter = std::vector<std::pair<std::string, json::Json>>;

// The row writes of one atomic commit (TableStore::Commit). A batch names
// each (table, id) at most once, so every check in it is made against the
// state before the batch.
class WriteBatch {
 public:
  // Fails the commit with AlreadyExists if the id is taken. The stored row
  // gains "_version" = 1.
  void Insert(std::string table, std::string id, json::Json row);
  // Replaces a row; fails the commit with NotFound. If expected_version >=
  // 0, fails it with FailedPrecondition unless that is the stored version.
  void Update(std::string table, std::string id, json::Json row,
              int64_t expected_version = -1);
  // Insert-or-replace without version checking.
  void Upsert(std::string table, std::string id, json::Json row);
  // Fails the commit with NotFound if the row is absent.
  void Delete(std::string table, std::string id);

  size_t size() const { return writes_.size(); }
  bool empty() const { return writes_.empty(); }

 private:
  friend class TableStore;

  enum class Op { kInsert, kUpdate, kUpsert, kDelete };
  struct Write {
    Op op;
    std::string table;
    std::string id;
    json::Json row;
    int64_t expected_version;
  };
  std::vector<Write> writes_;
};

// A row is a JSON object; every row has a string primary key ("id"). The
// store additionally maintains an optimistic-concurrency version counter per
// row (exposed as "_version") so multi-step updates can be made atomic.
//
// Durability model (MySQL substitute for Chronos Control):
//   * every commit is one WriteBatch, appended to the WAL as one record
//     before it is applied in memory, all rows or none;
//   * Checkpoint() writes a full JSON snapshot and truncates the WAL;
//   * Open() loads the snapshot (if any) and replays the WAL over it —
//     crash at any point recovers the last committed batch, never part of
//     one.
//
// Indexes (IndexSpec) are maintained inside Apply() under the same mutex as
// the rows, so a reader never sees an index disagree with the table, nor
// part of a batch.
//
// Thread-safe: a single store-wide mutex serializes mutations (metadata
// traffic is small; fairness beats parallelism here).
class TableStore {
 public:
  ~TableStore();

  TableStore(const TableStore&) = delete;
  TableStore& operator=(const TableStore&) = delete;

  // Opens (creating if needed) a store rooted at directory `dir`, keeping
  // the declared `indexes` in step with every mutation.
  static StatusOr<std::unique_ptr<TableStore>> Open(
      const std::string& dir, TableStoreOptions options = {},
      std::vector<IndexSpec> indexes = {});

  // Applies every write of `batch` or none: all checks run under the store
  // mutex before the batch is logged as one WAL record. The first failing
  // check's status is returned; a batch naming a row twice is
  // InvalidArgument. An empty batch writes nothing.
  Status Commit(WriteBatch batch);

  // One-write batches; see WriteBatch for each write's checks.
  Status Insert(const std::string& table, const std::string& id,
                json::Json row);
  Status Update(const std::string& table, const std::string& id,
                json::Json row, int64_t expected_version = -1);
  Status Upsert(const std::string& table, const std::string& id,
                json::Json row);
  Status Delete(const std::string& table, const std::string& id);

  StatusOr<json::Json> Get(const std::string& table,
                           const std::string& id) const;
  bool Exists(const std::string& table, const std::string& id) const;
  // The committed "_version" of a row, or -1 if it is absent: one lookup,
  // no row copied.
  int64_t Version(const std::string& table, const std::string& id) const;

  // All rows of a table, sorted by id.
  std::vector<json::Json> Scan(const std::string& table) const;

  // Up to `limit` rows matching every pair of `filter`. A declared index
  // serves the filter when its leading fields are exactly the filter's
  // fields; only matching rows are then read, in index order (order_by,
  // then id). Any other filter scans the whole table and returns rows in id
  // order.
  std::vector<json::Json> Find(
      const std::string& table, const Filter& filter,
      size_t limit = std::numeric_limits<size_t>::max()) const;

  // Find(table, {{field, value}}).
  std::vector<json::Json> FindBy(const std::string& table,
                                 const std::string& field,
                                 const json::Json& value) const;

  // Number of rows matching `filter`; an index answers without reading
  // rows.
  size_t Count(const std::string& table, const Filter& filter) const;

  // Count() of each filter, all taken under one lock: a consistent snapshot
  // (a row changing state is never counted twice or missed).
  std::vector<size_t> CountEach(const std::string& table,
                                const std::vector<Filter>& filters) const;

  // Largest integer `field` over the table's rows (0 if none), read in
  // place without copying rows.
  int64_t MaxInt(const std::string& table, const std::string& field) const;

  size_t Count(const std::string& table) const;
  std::vector<std::string> TableNames() const;

  // Writes a snapshot and truncates the WAL.
  Status Checkpoint();

  uint64_t wal_bytes() const;

  // Number of row writes applied, counting each row of a batch (for
  // tests/metrics).
  uint64_t applied_mutations() const;

 private:
  TableStore(std::string dir, TableStoreOptions options,
             std::vector<IndexSpec> indexes);

  // id -> row; the same type as json::Object, so a parsed snapshot's tables
  // move in without copying a row.
  using Table = std::map<std::string, json::Json>;

  struct Index {
    using Entry = std::pair<int64_t, std::string>;  // (order_by value, id)
    using Entries = std::set<Entry>;
    IndexSpec spec;
    // Encoded key (see IndexKey in the .cc) -> its rows' entries.
    std::map<std::string, Entries> entries;
  };

  // The index serving `filter` on `table`, or null; sets *prefix to the
  // filter's values encoded in that index's field order.
  const Index* ServingIndex(const std::string& table, const Filter& filter,
                            std::string* prefix) const CHRONOS_REQUIRES(mu_);
  // Adds (or removes) `row`'s entries in every index of `table`.
  void IndexRow(const std::string& table, const std::string& id,
                const json::Json& row, bool add) CHRONOS_REQUIRES(mu_);

  Status Load() CHRONOS_EXCLUDES(mu_);
  // The stored version of a row, or -1 if it is absent.
  int64_t StoredVersion(const std::string& table, const std::string& id) const
      CHRONOS_REQUIRES(mu_);
  void Apply(json::Json mutation) CHRONOS_REQUIRES(mu_);
  Status MaybeCheckpointLocked() CHRONOS_REQUIRES(mu_);
  Status CheckpointLocked() CHRONOS_REQUIRES(mu_);
  std::string SnapshotPath() const;
  std::string WalPath() const;

  std::string dir_;
  TableStoreOptions options_;
  std::unique_ptr<Wal> wal_;

  mutable Mutex mu_;
  std::unordered_map<std::string, Table> tables_ CHRONOS_GUARDED_BY(mu_);
  // table -> its declared indexes.
  std::unordered_map<std::string, std::vector<Index>> indexes_
      CHRONOS_GUARDED_BY(mu_);
  uint64_t applied_ CHRONOS_GUARDED_BY(mu_) = 0;
  // Covered-sequence stamp read from the snapshot at Load() time. Open()
  // feeds it to the WAL as a sequence floor: after a checkpoint truncated
  // the log, a fresh incarnation must not reissue sequence numbers the
  // snapshot already covers.
  uint64_t loaded_covered_seq_ CHRONOS_GUARDED_BY(mu_) = 0;
};

}  // namespace chronos::store

#endif  // CHRONOS_STORE_TABLE_STORE_H_
