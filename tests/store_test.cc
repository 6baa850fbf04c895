#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>

#include "common/file_util.h"
#include "common/random.h"
#include "fault/failpoint.h"
#include "model/repository.h"
#include "store/table_store.h"
#include "store/wal.h"

namespace chronos::store {
namespace {

using chronos::file::TempDir;

json::Json Row(const std::string& name, int64_t value = 0) {
  json::Json row = json::Json::MakeObject();
  row.Set("name", name);
  row.Set("value", value);
  return row;
}

// --- WAL ---

TEST(WalTest, AppendAndReplay) {
  TempDir dir;
  std::string path = dir.path() + "/wal.log";
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("first", true).ok());
    ASSERT_TRUE((*wal)->Append("second", true).ok());
    ASSERT_TRUE((*wal)->Append("", true).ok());  // Empty payloads are legal.
  }
  auto records = Wal::Replay(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0], "first");
  EXPECT_EQ((*records)[1], "second");
  EXPECT_EQ((*records)[2], "");
}

TEST(WalTest, ReplayMissingFileIsEmpty) {
  auto records = Wal::Replay("/nonexistent/wal.log");
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(WalTest, TornTailIsDropped) {
  TempDir dir;
  std::string path = dir.path() + "/wal.log";
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE((*wal)->Append("intact", true).ok());
    ASSERT_TRUE((*wal)->Append("will-be-torn", true).ok());
  }
  // Simulate a crash mid-write: chop the last 5 bytes.
  auto contents = file::ReadFile(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(
      file::WriteFile(path, contents->substr(0, contents->size() - 5)).ok());

  auto records = Wal::Replay(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0], "intact");
}

TEST(WalTest, CorruptTailIsDropped) {
  TempDir dir;
  std::string path = dir.path() + "/wal.log";
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE((*wal)->Append("good", true).ok());
    ASSERT_TRUE((*wal)->Append("soon-bad", true).ok());
  }
  auto contents = file::ReadFile(path);
  std::string data = *contents;
  data[data.size() - 2] ^= 0xFF;  // Flip a byte in the last payload.
  ASSERT_TRUE(file::WriteFile(path, data).ok());

  auto records = Wal::Replay(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0], "good");
}

TEST(WalTest, CorruptMidFileRecordEndsReplayAtCleanPrefix) {
  // A bad-CRC record in the MIDDLE of the log (bit rot, not a torn tail):
  // replay must stop there and return only the clean prefix — it must not
  // skip ahead and resurrect records whose predecessors are untrustworthy.
  TempDir dir;
  std::string path = dir.path() + "/wal.log";
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE((*wal)->Append("first", true).ok());
    ASSERT_TRUE((*wal)->Append("second", true).ok());
    ASSERT_TRUE((*wal)->Append("third", true).ok());
  }
  auto contents = file::ReadFile(path);
  ASSERT_TRUE(contents.ok());
  std::string data = *contents;
  // Frame layout: [16B header]["first"][16B header]["second"]... The first
  // byte of "second"'s payload sits at 16 + 5 + 16.
  size_t second_payload = 16 + 5 + 16;
  ASSERT_LT(second_payload, data.size());
  data[second_payload] ^= 0xFF;
  ASSERT_TRUE(file::WriteFile(path, data).ok());

  auto records = Wal::Replay(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0], "first");
}

TEST(WalTest, PartialHeaderTailIsDropped) {
  // Crash after writing only part of a frame header: too short to even
  // decode a length. The tail is dropped; the prefix survives.
  TempDir dir;
  std::string path = dir.path() + "/wal.log";
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE((*wal)->Append("keep", true).ok());
  }
  auto contents = file::ReadFile(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(file::WriteFile(path, *contents + "\x03\x00\x00").ok());

  auto records = Wal::Replay(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0], "keep");
}

TEST(WalTest, ZeroLengthTailHeaderIsDropped) {
  // A full header promising a payload that never made it to disk (declared
  // length > remaining bytes, here: 5 promised, 0 present).
  TempDir dir;
  std::string path = dir.path() + "/wal.log";
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE((*wal)->Append("keep", true).ok());
  }
  auto contents = file::ReadFile(path);
  ASSERT_TRUE(contents.ok());
  std::string header;
  header += '\x05';  // length = 5, little endian...
  header += std::string(3, '\0');
  header += std::string(4, '\xAB');   // ...a CRC of nothing real...
  header += std::string(8, '\x02');  // ...and some sequence number.
  ASSERT_TRUE(file::WriteFile(path, *contents + header).ok());

  auto records = Wal::Replay(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0], "keep");
}

TEST(WalTest, TruncateResets) {
  TempDir dir;
  std::string path = dir.path() + "/wal.log";
  auto wal = Wal::Open(path);
  ASSERT_TRUE((*wal)->Append("x", true).ok());
  EXPECT_GT((*wal)->size_bytes(), 0u);
  ASSERT_TRUE((*wal)->Truncate().ok());
  EXPECT_EQ((*wal)->size_bytes(), 0u);
  auto records = Wal::Replay(path);
  EXPECT_TRUE(records->empty());
}

TEST(WalTest, ReopenAppends) {
  TempDir dir;
  std::string path = dir.path() + "/wal.log";
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE((*wal)->Append("a", true).ok());
  }
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE((*wal)->Append("b", true).ok());
  }
  auto records = Wal::Replay(path);
  ASSERT_EQ(records->size(), 2u);
}

TEST(WalTest, SequenceNumbersStartAtOneAndIncrement) {
  TempDir dir;
  std::string path = dir.path() + "/wal.log";
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ((*wal)->last_seq(), 0u);
    ASSERT_TRUE((*wal)->Append("a", true).ok());
    ASSERT_TRUE((*wal)->Append("b", true).ok());
    EXPECT_EQ((*wal)->last_seq(), 2u);
  }
  auto records = Wal::ReplayRecords(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].seq, 1u);
  EXPECT_EQ((*records)[0].payload, "a");
  EXPECT_EQ((*records)[1].seq, 2u);
  EXPECT_EQ((*records)[1].payload, "b");
}

TEST(WalTest, SequenceNumbersSurviveTruncateAndReopen) {
  TempDir dir;
  std::string path = dir.path() + "/wal.log";
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE((*wal)->Append("a", true).ok());
    ASSERT_TRUE((*wal)->Append("b", true).ok());
    ASSERT_TRUE((*wal)->Truncate().ok());
    // The counter must not restart: a snapshot covering seq <= 2 would
    // otherwise mask this record on replay.
    ASSERT_TRUE((*wal)->Append("c", true).ok());
    EXPECT_EQ((*wal)->last_seq(), 3u);
  }
  {
    // Reopen recovers the counter from the surviving records.
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ((*wal)->last_seq(), 3u);
    ASSERT_TRUE((*wal)->Append("d", true).ok());
  }
  auto records = Wal::ReplayRecords(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].seq, 3u);
  EXPECT_EQ((*records)[1].seq, 4u);
}

TEST(WalTest, NonMonotonicSequenceEndsReplay) {
  // Two logs spliced together (or any corruption that rewinds the sequence)
  // must not replay past the rewind point.
  TempDir dir;
  std::string path_a = dir.path() + "/a.log";
  std::string path_b = dir.path() + "/b.log";
  {
    auto wal = Wal::Open(path_a);
    ASSERT_TRUE((*wal)->Append("a1", true).ok());
    ASSERT_TRUE((*wal)->Append("a2", true).ok());
  }
  {
    auto wal = Wal::Open(path_b);
    ASSERT_TRUE((*wal)->Append("b1", true).ok());
  }
  auto a = file::ReadFile(path_a);
  auto b = file::ReadFile(path_b);
  std::string spliced = dir.path() + "/spliced.log";
  ASSERT_TRUE(file::WriteFile(spliced, *a + *b).ok());

  auto records = Wal::Replay(spliced);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);  // b1 (seq 1 again) must not replay.
  EXPECT_EQ((*records)[1], "a2");
}

TEST(WalTest, TruncateKeepsFileAppendable) {
  TempDir dir;
  std::string path = dir.path() + "/wal.log";
  auto wal = Wal::Open(path);
  ASSERT_TRUE((*wal)->Append("before", true).ok());
  ASSERT_TRUE((*wal)->Truncate().ok());
  ASSERT_TRUE((*wal)->Append("after", true).ok());
  auto records = Wal::Replay(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0], "after");
}

// --- TableStore CRUD ---

class TableStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto opened = TableStore::Open(dir_.path(), options_);
    ASSERT_TRUE(opened.ok()) << opened.status();
    ts_ = std::move(opened).value();
  }

  void Reopen() {
    ts_.reset();
    auto opened = TableStore::Open(dir_.path(), options_);
    ASSERT_TRUE(opened.ok()) << opened.status();
    ts_ = std::move(opened).value();
  }

  TempDir dir_;
  TableStoreOptions options_;
  std::unique_ptr<TableStore> ts_;
};

TEST_F(TableStoreTest, InsertGet) {
  ASSERT_TRUE(ts_->Insert("t", "1", Row("alpha", 10)).ok());
  auto row = ts_->Get("t", "1");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->at("name").as_string(), "alpha");
  EXPECT_EQ(row->at("id").as_string(), "1");
  EXPECT_EQ(row->at("_version").as_int(), 1);
}

TEST_F(TableStoreTest, InsertDuplicateFails) {
  ASSERT_TRUE(ts_->Insert("t", "1", Row("a")).ok());
  EXPECT_TRUE(ts_->Insert("t", "1", Row("b")).IsAlreadyExists());
}

TEST_F(TableStoreTest, InsertRejectsNonObject) {
  EXPECT_TRUE(ts_->Insert("t", "1", json::Json(5)).IsInvalidArgument());
}

TEST_F(TableStoreTest, UpdateBumpsVersion) {
  ASSERT_TRUE(ts_->Insert("t", "1", Row("a")).ok());
  ASSERT_TRUE(ts_->Update("t", "1", Row("b")).ok());
  auto row = ts_->Get("t", "1");
  EXPECT_EQ(row->at("name").as_string(), "b");
  EXPECT_EQ(row->at("_version").as_int(), 2);
}

TEST_F(TableStoreTest, UpdateMissingFails) {
  EXPECT_TRUE(ts_->Update("t", "zzz", Row("x")).IsNotFound());
}

TEST_F(TableStoreTest, OptimisticVersionCheck) {
  ASSERT_TRUE(ts_->Insert("t", "1", Row("a")).ok());
  EXPECT_TRUE(ts_->Update("t", "1", Row("b"), /*expected_version=*/99)
                  .IsFailedPrecondition());
  EXPECT_TRUE(ts_->Update("t", "1", Row("b"), /*expected_version=*/1).ok());
  // Version moved to 2; a stale retry with 1 must fail now.
  EXPECT_TRUE(ts_->Update("t", "1", Row("c"), /*expected_version=*/1)
                  .IsFailedPrecondition());
}

TEST_F(TableStoreTest, UpsertInsertsThenUpdates) {
  ASSERT_TRUE(ts_->Upsert("t", "k", Row("first")).ok());
  EXPECT_EQ(ts_->Get("t", "k")->at("_version").as_int(), 1);
  ASSERT_TRUE(ts_->Upsert("t", "k", Row("second")).ok());
  EXPECT_EQ(ts_->Get("t", "k")->at("_version").as_int(), 2);
  EXPECT_EQ(ts_->Get("t", "k")->at("name").as_string(), "second");
}

TEST_F(TableStoreTest, DeleteRemoves) {
  ASSERT_TRUE(ts_->Insert("t", "1", Row("a")).ok());
  ASSERT_TRUE(ts_->Delete("t", "1").ok());
  EXPECT_TRUE(ts_->Get("t", "1").status().IsNotFound());
  EXPECT_TRUE(ts_->Delete("t", "1").IsNotFound());
}

TEST_F(TableStoreTest, ScanSortedById) {
  ASSERT_TRUE(ts_->Insert("t", "b", Row("2")).ok());
  ASSERT_TRUE(ts_->Insert("t", "a", Row("1")).ok());
  ASSERT_TRUE(ts_->Insert("t", "c", Row("3")).ok());
  auto rows = ts_->Scan("t");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].at("id").as_string(), "a");
  EXPECT_EQ(rows[2].at("id").as_string(), "c");
  EXPECT_TRUE(ts_->Scan("empty").empty());
}

TEST_F(TableStoreTest, FindByField) {
  ASSERT_TRUE(ts_->Insert("t", "1", Row("x", 5)).ok());
  ASSERT_TRUE(ts_->Insert("t", "2", Row("y", 5)).ok());
  ASSERT_TRUE(ts_->Insert("t", "3", Row("z", 7)).ok());
  auto rows = ts_->FindBy("t", "value", json::Json(5));
  EXPECT_EQ(rows.size(), 2u);
  auto none = ts_->FindBy("t", "value", json::Json(99));
  EXPECT_TRUE(none.empty());
}

TEST_F(TableStoreTest, CountAndTableNames) {
  ASSERT_TRUE(ts_->Insert("jobs", "1", Row("a")).ok());
  ASSERT_TRUE(ts_->Insert("projects", "1", Row("b")).ok());
  ASSERT_TRUE(ts_->Insert("projects", "2", Row("c")).ok());
  EXPECT_EQ(ts_->Count("projects"), 2u);
  EXPECT_EQ(ts_->Count("missing"), 0u);
  auto names = ts_->TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "jobs");
  EXPECT_EQ(names[1], "projects");
}

// --- Durability / recovery ---

TEST_F(TableStoreTest, SurvivesReopen) {
  ASSERT_TRUE(ts_->Insert("t", "1", Row("keep", 11)).ok());
  ASSERT_TRUE(ts_->Insert("t", "2", Row("gone")).ok());
  ASSERT_TRUE(ts_->Delete("t", "2").ok());
  ASSERT_TRUE(ts_->Update("t", "1", Row("kept", 12)).ok());
  Reopen();
  auto row = ts_->Get("t", "1");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->at("name").as_string(), "kept");
  EXPECT_EQ(row->at("_version").as_int(), 2);
  EXPECT_TRUE(ts_->Get("t", "2").status().IsNotFound());
}

TEST_F(TableStoreTest, SurvivesCheckpointPlusWal) {
  ASSERT_TRUE(ts_->Insert("t", "1", Row("snap")).ok());
  ASSERT_TRUE(ts_->Checkpoint().ok());
  EXPECT_EQ(ts_->wal_bytes(), 0u);
  ASSERT_TRUE(ts_->Insert("t", "2", Row("walonly")).ok());
  Reopen();
  EXPECT_TRUE(ts_->Get("t", "1").ok());
  EXPECT_TRUE(ts_->Get("t", "2").ok());
  EXPECT_EQ(ts_->Count("t"), 2u);
}

TEST_F(TableStoreTest, WritesAfterCheckpointedReopenSurviveCrashyReopen) {
  // Incarnation 1: checkpoint empties the WAL and stamps covered_seq in the
  // snapshot. Incarnation 2 opens an empty WAL — its sequence counter must
  // resume above the stamp, or everything it writes is masked on replay.
  ASSERT_TRUE(ts_->Insert("t", "1", Row("snapped")).ok());
  ASSERT_TRUE(ts_->Checkpoint().ok());
  Reopen();
  ASSERT_TRUE(ts_->Insert("t", "2", Row("post-restart")).ok());
  ASSERT_TRUE(ts_->Delete("t", "1").ok());
  // Incarnation 3 reopens without a checkpoint in between (a crash): the
  // WAL-only writes must replay, not be skipped as snapshot-covered.
  Reopen();
  EXPECT_TRUE(ts_->Get("t", "2").ok());
  EXPECT_TRUE(ts_->Get("t", "1").status().IsNotFound());
  EXPECT_EQ(ts_->Count("t"), 1u);
}

TEST_F(TableStoreTest, TornWalTailRecoversPrefix) {
  ASSERT_TRUE(ts_->Insert("t", "1", Row("committed")).ok());
  ASSERT_TRUE(ts_->Insert("t", "2", Row("torn")).ok());
  ts_.reset();
  // Tear the last WAL record.
  std::string wal_path = dir_.path() + "/wal.log";
  auto contents = file::ReadFile(wal_path);
  ASSERT_TRUE(
      file::WriteFile(wal_path, contents->substr(0, contents->size() - 3))
          .ok());
  Reopen();
  EXPECT_TRUE(ts_->Get("t", "1").ok());
  EXPECT_TRUE(ts_->Get("t", "2").status().IsNotFound());
}

TEST_F(TableStoreTest, AutoCheckpointTriggers) {
  ts_.reset();
  options_.checkpoint_wal_bytes = 512;
  Reopen();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        ts_->Insert("t", std::to_string(i), Row(std::string(64, 'p'))).ok());
  }
  // The WAL must have been truncated at least once.
  EXPECT_LT(ts_->wal_bytes(), 50u * 64u);
  EXPECT_TRUE(file::Exists(dir_.path() + "/snapshot.json"));
  Reopen();
  EXPECT_EQ(ts_->Count("t"), 50u);
}

TEST_F(TableStoreTest, CorruptSnapshotIsRejectedNotMisread) {
  ASSERT_TRUE(ts_->Insert("t", "1", Row("a")).ok());
  ASSERT_TRUE(ts_->Checkpoint().ok());
  ts_.reset();
  ASSERT_TRUE(
      file::WriteFile(dir_.path() + "/snapshot.json", "{not json").ok());
  auto reopened = store::TableStore::Open(dir_.path());
  EXPECT_FALSE(reopened.ok());  // Refuse to open on corrupt snapshot.
}

TEST_F(TableStoreTest, NonObjectSnapshotIsCorruption) {
  ASSERT_TRUE(ts_->Insert("t", "1", Row("a")).ok());
  ASSERT_TRUE(ts_->Checkpoint().ok());
  ts_.reset();
  ASSERT_TRUE(file::WriteFile(dir_.path() + "/snapshot.json", "[1,2]").ok());
  auto reopened = store::TableStore::Open(dir_.path());
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption());
}

TEST_F(TableStoreTest, AppliedMutationsCounterAdvances) {
  uint64_t before = ts_->applied_mutations();
  ASSERT_TRUE(ts_->Insert("t", "1", Row("a")).ok());
  ASSERT_TRUE(ts_->Update("t", "1", Row("b")).ok());
  ASSERT_TRUE(ts_->Delete("t", "1").ok());
  EXPECT_EQ(ts_->applied_mutations(), before + 3);
}

// --- Batches ---

TEST_F(TableStoreTest, BatchIsOneWalRecordAppliedWhole) {
  ASSERT_TRUE(ts_->Insert("t", "old", Row("gone")).ok());
  WriteBatch batch;
  batch.Insert("t", "1", Row("a"));
  batch.Update("t", "old", Row("kept"), /*expected_version=*/1);
  batch.Upsert("u", "2", Row("b"));
  batch.Delete("t", "old");
  // Naming "old" twice is rejected before anything is checked or written.
  auto replay = Wal::Replay(dir_.path() + "/wal.log");
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(ts_->Commit(std::move(batch)).IsInvalidArgument());
  EXPECT_EQ(Wal::Replay(dir_.path() + "/wal.log")->size(), replay->size());

  WriteBatch whole;
  whole.Insert("t", "1", Row("a"));
  whole.Update("t", "old", Row("kept"), /*expected_version=*/1);
  whole.Upsert("u", "2", Row("b"));
  const uint64_t applied = ts_->applied_mutations();
  ASSERT_TRUE(ts_->Commit(std::move(whole)).ok());
  EXPECT_EQ(ts_->applied_mutations(), applied + 3);
  EXPECT_EQ(Wal::Replay(dir_.path() + "/wal.log")->size(),
            replay->size() + 1);
  Reopen();
  EXPECT_EQ(ts_->Get("t", "1")->at("_version").as_int(), 1);
  EXPECT_EQ(ts_->Get("t", "old")->at("name").as_string(), "kept");
  EXPECT_EQ(ts_->Get("t", "old")->at("_version").as_int(), 2);
  EXPECT_EQ(ts_->Get("u", "2")->at("_version").as_int(), 1);
}

TEST_F(TableStoreTest, BatchWithOneFailingCheckWritesNothing) {
  ASSERT_TRUE(ts_->Insert("t", "1", Row("a")).ok());
  const uint64_t wal_bytes = ts_->wal_bytes();
  auto attempt = [&](int64_t expected_version) {
    WriteBatch batch;
    batch.Insert("t", "2", Row("b"));
    batch.Update("t", "1", Row("c"), expected_version);
    return ts_->Commit(std::move(batch));
  };
  // The stale version is the batch's last write, so the insert before it
  // already passed its own check when the batch is refused.
  EXPECT_TRUE(attempt(/*expected_version=*/7).IsFailedPrecondition());
  EXPECT_FALSE(ts_->Exists("t", "2"));
  EXPECT_EQ(ts_->Get("t", "1")->at("name").as_string(), "a");
  EXPECT_EQ(ts_->wal_bytes(), wal_bytes);
  WriteBatch missing;
  missing.Insert("t", "3", Row("d"));
  missing.Delete("t", "absent");
  EXPECT_TRUE(ts_->Commit(std::move(missing)).IsNotFound());
  EXPECT_FALSE(ts_->Exists("t", "3"));
  ASSERT_TRUE(attempt(/*expected_version=*/1).ok());
  EXPECT_TRUE(ts_->Exists("t", "2"));
  EXPECT_TRUE(ts_->Commit(WriteBatch()).ok());  // Empty: nothing to log.
}

TEST_F(TableStoreTest, WalRecordThatIsNotABatchIsCorruption) {
  ASSERT_TRUE(ts_->Insert("t", "1", Row("a")).ok());
  ts_.reset();
  {
    // An intact frame holding a bare mutation object, not a batch.
    auto wal = Wal::Open(dir_.path() + "/wal.log");
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(R"({"id":"2","op":"insert","row":{},)"
                               R"("table":"t"})",
                               true)
                    .ok());
  }
  auto reopened = TableStore::Open(dir_.path());
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status();
}

TEST_F(TableStoreTest, CrashBetweenSnapshotRenameAndWalTruncateIsLossless) {
  // The checkpoint crash window: the new snapshot has been renamed into
  // place but the WAL has not been truncated yet. Every WAL record is
  // already folded into the snapshot; replaying them over it used to
  // resurrect deleted rows and roll back version counters. The snapshot's
  // covered-sequence stamp must make recovery skip them.
  ASSERT_TRUE(ts_->Insert("t", "keep", Row("a", 1)).ok());
  ASSERT_TRUE(ts_->Insert("t", "gone", Row("b", 2)).ok());
  ASSERT_TRUE(ts_->Update("t", "keep", Row("a2", 3)).ok());  // _version 2.
  ASSERT_TRUE(ts_->Delete("t", "gone").ok());

  // Arm the seam between rename and truncate: Checkpoint errors out with the
  // snapshot durable and the stale WAL still on disk — byte-for-byte the
  // state a crash at that instant leaves behind.
  ASSERT_TRUE(fault::FailPointRegistry::Get()
                  ->SetFromString("store.checkpoint.after_rename", "error")
                  .ok());
  EXPECT_FALSE(ts_->Checkpoint().ok());
  fault::FailPointRegistry::Get()->ClearAll();
  EXPECT_GT(ts_->wal_bytes(), 0u);  // The stale WAL really is still there.

  Reopen();
  EXPECT_TRUE(ts_->Get("t", "gone").status().IsNotFound());
  auto row = ts_->Get("t", "keep");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->at("name").as_string(), "a2");
  EXPECT_EQ(row->at("_version").as_int(), 2);

  // New mutations after the interrupted checkpoint replay fine too.
  ASSERT_TRUE(ts_->Update("t", "keep", Row("a3", 4)).ok());
  Reopen();
  row = ts_->Get("t", "keep");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->at("name").as_string(), "a3");
  EXPECT_EQ(row->at("_version").as_int(), 3);
}

TEST_F(TableStoreTest, SnapshotMetaKeyIsNotATable) {
  ASSERT_TRUE(ts_->Insert("t", "1", Row("a")).ok());
  ASSERT_TRUE(ts_->Checkpoint().ok());
  Reopen();
  for (const std::string& name : ts_->TableNames()) {
    EXPECT_NE(name, "_meta");
  }
  EXPECT_EQ(ts_->Count("_meta"), 0u);
}

// Property: state after crash+recover equals state before crash, for a
// randomized mutation stream with interleaved checkpoints.
class StoreRecoveryPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(StoreRecoveryPropertyTest, RecoveryIsLossless) {
  TempDir dir;
  Rng rng(GetParam() * 31337);
  std::map<std::string, int64_t> expected;  // id -> value
  {
    auto ts = TableStore::Open(dir.path());
    ASSERT_TRUE(ts.ok());
    for (int op = 0; op < 300; ++op) {
      std::string id = std::to_string(rng.NextUint64(40));
      uint64_t action = rng.NextUint64(10);
      if (action < 5) {
        int64_t value = static_cast<int64_t>(rng.NextUint64(1000));
        ASSERT_TRUE((*ts)->Upsert("t", id, Row("r", value)).ok());
        expected[id] = value;
      } else if (action < 8) {
        Status st = (*ts)->Delete("t", id);
        if (expected.count(id) > 0) {
          ASSERT_TRUE(st.ok());
          expected.erase(id);
        } else {
          ASSERT_TRUE(st.IsNotFound());
        }
      } else if (action == 8) {
        ASSERT_TRUE((*ts)->Checkpoint().ok());
      }
    }
  }
  auto ts = TableStore::Open(dir.path());
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ((*ts)->Count("t"), expected.size());
  for (const auto& [id, value] : expected) {
    auto row = (*ts)->Get("t", id);
    ASSERT_TRUE(row.ok()) << id;
    EXPECT_EQ(row->at("value").as_int(), value) << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreRecoveryPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Declared indexes ---

// The oracle: rows of a full scan that match `filter`, in the order the
// serving index promises (order_by, then id; Scan is already in id order).
std::vector<json::Json> ScanMatching(const TableStore& ts,
                                     const std::string& table,
                                     const Filter& filter,
                                     const std::string& order_by) {
  std::vector<json::Json> rows;
  for (json::Json& row : ts.Scan(table)) {
    bool match = true;
    for (const auto& [field, value] : filter) {
      match = match && row.at(field) == value;
    }
    if (match) rows.push_back(std::move(row));
  }
  if (!order_by.empty()) {
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const json::Json& a, const json::Json& b) {
                       return a.GetIntOr(order_by, 0) <
                              b.GetIntOr(order_by, 0);
                     });
  }
  return rows;
}

// Small value domains so keys collide and buckets empty out often.
const std::map<std::string, std::vector<json::Json>>& FieldDomains() {
  static const auto* domains =
      new std::map<std::string, std::vector<json::Json>>{
          {"system_id", {"s0", "s1"}},
          {"deployment_id", {"", "d0", "d1"}},
          {"evaluation_id", {"e0", "e1", "e2"}},
          {"state",
           {"scheduled", "running", "finished", "aborted", "failed"}},
          {"job_id", {"j0", "j1", "j2", "j3", "j4"}},
      };
  return *domains;
}

json::Json RandomIndexedRow(Rng* rng) {
  json::Json row = json::Json::MakeObject();
  for (const auto& [field, values] : FieldDomains()) {
    row.Set(field, values[rng->NextUint64(values.size())]);
  }
  // Few distinct order values, so (order_by, id) ties are exercised.
  row.Set("created_at", static_cast<int64_t>(rng->NextUint64(4)));
  row.Set("seq", static_cast<int64_t>(rng->NextUint64(100)));
  return row;
}

// Every filter an index can serve: each full key over the field domains
// and each leading-field prefix of it.
std::vector<Filter> ServableFilters(const IndexSpec& spec) {
  std::vector<Filter> filters = {{}};
  std::vector<Filter> all;
  for (const std::string& field : spec.fields) {
    std::vector<Filter> longer;
    for (const Filter& filter : filters) {
      for (const json::Json& value : FieldDomains().at(field)) {
        Filter next = filter;
        next.emplace_back(field, value);
        longer.push_back(next);
      }
    }
    filters = std::move(longer);
    all.insert(all.end(), filters.begin(), filters.end());
  }
  return all;
}

void ExpectIndexesMatchScans(const TableStore& ts) {
  for (const IndexSpec& spec : model::MetaDb::Indexes()) {
    for (const Filter& filter : ServableFilters(spec)) {
      std::vector<json::Json> expected =
          ScanMatching(ts, spec.table, filter, spec.order_by);
      std::string where = spec.table + " " + filter.front().second.Dump() +
                          " (" + std::to_string(filter.size()) + " fields)";
      ASSERT_EQ(ts.Find(spec.table, filter), expected) << where;
      EXPECT_EQ(ts.Count(spec.table, filter), expected.size()) << where;
      std::vector<json::Json> head(
          expected.begin(),
          expected.begin() + std::min<size_t>(2, expected.size()));
      EXPECT_EQ(ts.Find(spec.table, filter, 2), head) << where;
    }
  }
}

// Property: for every index the metadata schema declares, indexed lookups
// (full keys, leading-field prefixes, limits, counts)
// equal a full scan with the same filter, after every step of a seeded
// insert/update/upsert/delete stream, after WAL replay and after a
// checkpoint + reopen.
class StoreIndexPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(StoreIndexPropertyTest, IndexedLookupsEqualFullScans) {
  TempDir dir;
  Rng rng(GetParam() * 7919);
  const std::vector<std::string> tables = {"jobs", "results", "job_events"};
  auto open = [&] {
    auto ts = TableStore::Open(dir.path(), {}, model::MetaDb::Indexes());
    EXPECT_TRUE(ts.ok()) << ts.status();
    return std::move(ts).value();
  };
  std::unique_ptr<TableStore> ts = open();
  for (int step = 0; step < 150; ++step) {
    const std::string& table = tables[rng.NextUint64(tables.size())];
    std::string id = "r" + std::to_string(rng.NextUint64(12));
    bool exists = ts->Exists(table, id);
    switch (rng.NextUint64(4)) {
      case 0:
        EXPECT_EQ(ts->Insert(table, id, RandomIndexedRow(&rng)).ok(),
                  !exists);
        break;
      case 1:
        EXPECT_EQ(ts->Update(table, id, RandomIndexedRow(&rng)).ok(), exists);
        break;
      case 2:
        ASSERT_TRUE(ts->Upsert(table, id, RandomIndexedRow(&rng)).ok());
        break;
      default:
        EXPECT_EQ(ts->Delete(table, id).ok(), exists);
        break;
    }
    ExpectIndexesMatchScans(*ts);
    if (HasFatalFailure()) return;
  }
  ts.reset();
  ts = open();  // WAL replay.
  ExpectIndexesMatchScans(*ts);
  ASSERT_TRUE(ts->Checkpoint().ok());
  ts.reset();
  ts = open();  // Snapshot load, empty WAL.
  ExpectIndexesMatchScans(*ts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreIndexPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(TableStoreIndexTest, IntegralDoubleMatchesIntLikeAScan) {
  TempDir dir;
  auto ts = TableStore::Open(dir.path(), {}, {{"t", {"value"}, ""}});
  ASSERT_TRUE(ts.ok());
  ASSERT_TRUE((*ts)->Insert("t", "a", Row("a", 5)).ok());
  json::Json as_double = Row("b");
  as_double.Set("value", 5.0);
  ASSERT_TRUE((*ts)->Insert("t", "b", as_double).ok());
  EXPECT_EQ((*ts)->FindBy("t", "value", json::Json(5)).size(), 2u);
  EXPECT_EQ((*ts)->Count("t", {{"value", 5.0}}), 2u);
}

TEST(TableStoreIndexTest, UnindexedFilterScansInIdOrder) {
  TempDir dir;
  auto ts = TableStore::Open(dir.path(), {}, {{"t", {"name"}, "value"}});
  ASSERT_TRUE(ts.ok());
  ASSERT_TRUE((*ts)->Insert("t", "2", Row("x", 1)).ok());
  ASSERT_TRUE((*ts)->Insert("t", "1", Row("x", 9)).ok());
  ASSERT_TRUE((*ts)->Insert("t", "3", Row("y", 1)).ok());
  // Served by the index: (value, id) order.
  auto by_name = (*ts)->Find("t", {{"name", "x"}});
  ASSERT_EQ(by_name.size(), 2u);
  EXPECT_EQ(by_name[0].at("id").as_string(), "2");
  // No index on "value": a scan, in id order.
  auto by_value = (*ts)->Find("t", {{"value", 1}});
  ASSERT_EQ(by_value.size(), 2u);
  EXPECT_EQ(by_value[0].at("id").as_string(), "2");
  EXPECT_EQ(by_value[1].at("id").as_string(), "3");
  EXPECT_EQ((*ts)->MaxInt("t", "value"), 9);
  EXPECT_EQ((*ts)->MaxInt("missing", "value"), 0);
}

// --- Concurrency ---

TEST_F(TableStoreTest, ConcurrentInsertsAllLand) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string id = std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE(ts_->Insert("t", id, Row(id)).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ts_->Count("t"), static_cast<size_t>(kThreads * kPerThread));
}

TEST_F(TableStoreTest, ConcurrentOptimisticUpdatesSerialize) {
  ASSERT_TRUE(ts_->Insert("t", "ctr", Row("counter", 0)).ok());
  constexpr int kThreads = 4;
  constexpr int kIncrements = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this] {
      for (int i = 0; i < kIncrements; ++i) {
        while (true) {  // Optimistic retry loop.
          auto row = ts_->Get("t", "ctr");
          ASSERT_TRUE(row.ok());
          int64_t version = row->at("_version").as_int();
          json::Json next = Row("counter", row->at("value").as_int() + 1);
          if (ts_->Update("t", "ctr", next, version).ok()) break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ts_->Get("t", "ctr")->at("value").as_int(),
            kThreads * kIncrements);
}

}  // namespace
}  // namespace chronos::store
