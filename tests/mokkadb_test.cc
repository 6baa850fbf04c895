#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <thread>

#include "common/file_util.h"
#include "common/random.h"
#include "server_test_util.h"
#include "sue/mokkadb/btree_engine.h"
#include "sue/mokkadb/collection.h"
#include "sue/mokkadb/database.h"
#include "sue/mokkadb/mmap_engine.h"
#include "sue/mokkadb/wire.h"
#include "workload/workload.h"

namespace chronos::mokka {
namespace {

json::Json Doc(const std::string& id, int64_t value) {
  json::Json doc = json::Json::MakeObject();
  doc.Set("_id", id);
  doc.Set("value", value);
  return doc;
}

// --- Engine conformance suite, run against BOTH engines ---

enum class EngineKind { kBTree, kMmap };

class EngineConformanceTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    if (GetParam() == EngineKind::kBTree) {
      engine_ = std::make_unique<BTreeEngine>();
    } else {
      engine_ = std::make_unique<MmapEngine>();
    }
  }
  std::unique_ptr<StorageEngine> engine_;
};

TEST_P(EngineConformanceTest, InsertGetRoundTrip) {
  ASSERT_TRUE(engine_->Insert("k1", "payload-1").ok());
  auto value = engine_->Get("k1");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "payload-1");
}

TEST_P(EngineConformanceTest, DuplicateInsertRejected) {
  ASSERT_TRUE(engine_->Insert("k1", "a").ok());
  EXPECT_TRUE(engine_->Insert("k1", "b").IsAlreadyExists());
  EXPECT_EQ(*engine_->Get("k1"), "a");
}

TEST_P(EngineConformanceTest, GetMissingIsNotFound) {
  EXPECT_TRUE(engine_->Get("nope").status().IsNotFound());
}

TEST_P(EngineConformanceTest, UpdateReplaces) {
  ASSERT_TRUE(engine_->Insert("k1", "old").ok());
  ASSERT_TRUE(engine_->Update("k1", "new-and-longer-value").ok());
  EXPECT_EQ(*engine_->Get("k1"), "new-and-longer-value");
  EXPECT_TRUE(engine_->Update("missing", "x").IsNotFound());
}

TEST_P(EngineConformanceTest, RemoveDeletes) {
  ASSERT_TRUE(engine_->Insert("k1", "x").ok());
  ASSERT_TRUE(engine_->Remove("k1").ok());
  EXPECT_TRUE(engine_->Get("k1").status().IsNotFound());
  EXPECT_TRUE(engine_->Remove("k1").IsNotFound());
  EXPECT_EQ(engine_->Count(), 0u);
}

TEST_P(EngineConformanceTest, ScanInIdOrder) {
  for (int i : {5, 1, 9, 3, 7}) {
    ASSERT_TRUE(engine_
                    ->Insert("k" + std::to_string(i),
                             "v" + std::to_string(i))
                    .ok());
  }
  std::vector<std::string> seen;
  engine_->Scan("", [&seen](const std::string& id, const std::string&) {
    seen.push_back(id);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"k1", "k3", "k5", "k7", "k9"}));
}

TEST_P(EngineConformanceTest, ScanFromBound) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        engine_->Insert("k" + std::to_string(i), "v").ok());
  }
  std::vector<std::string> seen;
  engine_->Scan("k5", [&seen](const std::string& id, const std::string&) {
    seen.push_back(id);
    return seen.size() < 3;
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"k5", "k6", "k7"}));
}

TEST_P(EngineConformanceTest, CountTracksMutations) {
  EXPECT_EQ(engine_->Count(), 0u);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine_->Insert("k" + std::to_string(i), "v").ok());
  }
  EXPECT_EQ(engine_->Count(), 20u);
  ASSERT_TRUE(engine_->Remove("k0").ok());
  EXPECT_EQ(engine_->Count(), 19u);
}

TEST_P(EngineConformanceTest, StatsCounters) {
  ASSERT_TRUE(engine_->Insert("a", "1").ok());
  engine_->Get("a").IgnoreError();
  ASSERT_TRUE(engine_->Update("a", "2").ok());
  ASSERT_TRUE(engine_->Remove("a").ok());
  EngineStats stats = engine_->Stats();
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(stats.removes, 1u);
  EXPECT_EQ(stats.document_count, 0u);
}

TEST_P(EngineConformanceTest, ManyKeysStressRoundTrip) {
  constexpr int kKeys = 5000;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(engine_
                    ->Insert(workload::WorkloadGenerator::KeyForIndex(i),
                             "value-" + std::to_string(i * 13))
                    .ok());
  }
  EXPECT_EQ(engine_->Count(), static_cast<uint64_t>(kKeys));
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    int i = static_cast<int>(rng.NextUint64(kKeys));
    auto value = engine_->Get(workload::WorkloadGenerator::KeyForIndex(i));
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, "value-" + std::to_string(i * 13));
  }
}

TEST_P(EngineConformanceTest, ConcurrentUpdatesDisjointKeys) {
  constexpr int kKeys = 64;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(engine_->Insert("k" + std::to_string(i), "0").ok());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([this, t] {
      for (int round = 0; round < 100; ++round) {
        for (int i = t; i < kKeys; i += 8) {
          ASSERT_TRUE(engine_
                          ->Update("k" + std::to_string(i),
                                   std::to_string(round))
                          .ok());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(*engine_->Get("k" + std::to_string(i)), "99");
  }
}

TEST_P(EngineConformanceTest, ConcurrentReadersAndOneWriter) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine_->Insert("k" + std::to_string(i),
                                std::string(200, 'x')).ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([this, &stop] {
    int round = 0;
    while (!stop.load()) {
      engine_->Update("k" + std::to_string(round % 100),
                      std::string(200, 'a' + round % 26))
          .IgnoreError();
      ++round;
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([this] {
      Rng rng(11);
      for (int i = 0; i < 2000; ++i) {
        auto value = engine_->Get("k" + std::to_string(rng.NextUint64(100)));
        ASSERT_TRUE(value.ok());
        ASSERT_EQ(value->size(), 200u);
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineConformanceTest,
                         ::testing::Values(EngineKind::kBTree,
                                           EngineKind::kMmap),
                         [](const auto& info) {
                           return info.param == EngineKind::kBTree ? "BTree"
                                                                   : "Mmap";
                         });

// Property: both engines produce identical results for the same randomized
// operation stream (the core "comparative evaluation is apples-to-apples"
// invariant behind the paper's demo).
class EngineEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineEquivalenceTest, SameOperationStreamSameState) {
  BTreeEngine btree;
  MmapEngine mmap;
  Rng rng(GetParam() * 7919);
  for (int op = 0; op < 2000; ++op) {
    std::string key = "k" + std::to_string(rng.NextUint64(200));
    uint64_t action = rng.NextUint64(10);
    if (action < 4) {
      std::string value(rng.NextUint64(300), static_cast<char>('a' + op % 26));
      Status a = btree.Insert(key, value);
      Status b = mmap.Insert(key, value);
      ASSERT_EQ(a.code(), b.code());
    } else if (action < 7) {
      std::string value(rng.NextUint64(500), 'u');
      Status a = btree.Update(key, value);
      Status b = mmap.Update(key, value);
      ASSERT_EQ(a.code(), b.code());
    } else if (action < 9) {
      auto a = btree.Get(key);
      auto b = mmap.Get(key);
      ASSERT_EQ(a.ok(), b.ok());
      if (a.ok()) {
        ASSERT_EQ(*a, *b);
      }
    } else {
      Status a = btree.Remove(key);
      Status b = mmap.Remove(key);
      ASSERT_EQ(a.code(), b.code());
    }
  }
  ASSERT_EQ(btree.Count(), mmap.Count());
  // Full scans must agree.
  std::vector<std::pair<std::string, std::string>> btree_docs, mmap_docs;
  btree.Scan("", [&](const std::string& id, const std::string& value) {
    btree_docs.emplace_back(id, value);
    return true;
  });
  mmap.Scan("", [&](const std::string& id, const std::string& value) {
    mmap_docs.emplace_back(id, value);
    return true;
  });
  EXPECT_EQ(btree_docs, mmap_docs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- Engine-specific behaviour ---

TEST(BTreeEngineTest, SplitsGrowHeight) {
  BTreeEngineOptions options;
  options.node_capacity = 4;
  BTreeEngine engine(options);
  EXPECT_EQ(engine.Height(), 1);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine
                    .Insert(workload::WorkloadGenerator::KeyForIndex(i), "v")
                    .ok());
  }
  EXPECT_GT(engine.Height(), 2);
  // Order preserved across splits.
  std::string previous;
  engine.Scan("", [&previous](const std::string& id, const std::string&) {
    EXPECT_GT(id, previous);
    previous = id;
    return true;
  });
  EXPECT_EQ(engine.Count(), 100u);
}

TEST(BTreeEngineTest, CompressionShrinksStoredBytes) {
  BTreeEngine engine;  // Compression on by default.
  std::string repetitive(1000, 'z');
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.Insert("k" + std::to_string(i), repetitive).ok());
  }
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.logical_bytes, 50u * 1000u);
  EXPECT_LT(stats.stored_bytes, stats.logical_bytes / 5);
  // Data still reads back exactly.
  EXPECT_EQ(*engine.Get("k7"), repetitive);
}

TEST(BTreeEngineTest, CompressionCanBeDisabled) {
  BTreeEngineOptions options;
  options.compression = false;
  BTreeEngine engine(options);
  std::string repetitive(1000, 'z');
  ASSERT_TRUE(engine.Insert("k", repetitive).ok());
  EXPECT_EQ(engine.Stats().stored_bytes, 1000u);
}

TEST(BTreeEngineTest, ReverseInsertOrderStillSorted) {
  BTreeEngineOptions options;
  options.node_capacity = 8;
  BTreeEngine engine(options);
  for (int i = 99; i >= 0; --i) {
    ASSERT_TRUE(engine
                    .Insert(workload::WorkloadGenerator::KeyForIndex(i),
                            std::to_string(i))
                    .ok());
  }
  int expected = 0;
  engine.Scan("", [&expected](const std::string&, const std::string& value) {
    EXPECT_EQ(value, std::to_string(expected));
    ++expected;
    return true;
  });
  EXPECT_EQ(expected, 100);
}

TEST(MmapEngineTest, InPlaceUpdateVsMove) {
  MmapEngine engine;
  ASSERT_TRUE(engine.Insert("k", std::string(20, 'a')).ok());
  // Same-size update: in place, no move.
  ASSERT_TRUE(engine.Update("k", std::string(20, 'b')).ok());
  EXPECT_EQ(engine.Stats().moves, 0u);
  // Grow far past the padded capacity: forces a document move.
  ASSERT_TRUE(engine.Update("k", std::string(5000, 'c')).ok());
  EXPECT_EQ(engine.Stats().moves, 1u);
  EXPECT_EQ(engine.Get("k")->size(), 5000u);
}

TEST(MmapEngineTest, PaddingReservesGrowthRoom) {
  MmapEngine engine;
  ASSERT_TRUE(engine.Insert("k", std::string(100, 'a')).ok());
  // paddingFactor 1.2 on 100 bytes rounds up to 128: a 120-byte update
  // must fit in place.
  ASSERT_TRUE(engine.Update("k", std::string(120, 'b')).ok());
  EXPECT_EQ(engine.Stats().moves, 0u);
}

TEST(MmapEngineTest, FreelistReusesSlots) {
  MmapEngineOptions options;
  options.extent_bytes = 1 << 16;
  MmapEngine engine(options);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          engine.Insert("k" + std::to_string(i), std::string(500, 'x')).ok());
    }
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(engine.Remove("k" + std::to_string(i)).ok());
    }
  }
  // Without freelist reuse this would need ~20x the extents.
  EXPECT_LE(engine.ExtentCount(), 2u);
}

TEST(MmapEngineTest, NoCompression) {
  MmapEngine engine;
  std::string repetitive(1000, 'z');
  ASSERT_TRUE(engine.Insert("k", repetitive).ok());
  // Stored bytes include padding, so stored >= logical.
  EngineStats stats = engine.Stats();
  EXPECT_GE(stats.stored_bytes, stats.logical_bytes);
}

TEST(EngineFactoryTest, NamesAndAliases) {
  EXPECT_EQ((*MakeStorageEngine("btree"))->name(), "btree");
  EXPECT_EQ((*MakeStorageEngine("wiredtiger"))->name(), "btree");
  EXPECT_EQ((*MakeStorageEngine("mmap"))->name(), "mmap");
  EXPECT_EQ((*MakeStorageEngine("mmapv1"))->name(), "mmap");
  EXPECT_FALSE(MakeStorageEngine("rocksdb").ok());
}

// --- Collection query layer ---

class CollectionTest : public ::testing::Test {
 protected:
  CollectionTest()
      : collection_("users", std::make_unique<BTreeEngine>()) {}
  Collection collection_;
};

TEST_F(CollectionTest, InsertGeneratesIdWhenMissing) {
  json::Json doc = json::Json::MakeObject();
  doc.Set("name", "anon");
  auto id = collection_.InsertOne(doc);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id->size(), 36u);  // UUID.
  EXPECT_EQ(collection_.FindById(*id)->at("name").as_string(), "anon");
}

TEST_F(CollectionTest, InsertRejectsBadIds) {
  json::Json doc = json::Json::MakeObject();
  doc.Set("_id", 42);
  EXPECT_FALSE(collection_.InsertOne(doc).ok());
  doc.Set("_id", "");
  EXPECT_FALSE(collection_.InsertOne(doc).ok());
  EXPECT_FALSE(collection_.InsertOne(json::Json(3)).ok());
}

TEST_F(CollectionTest, EqualityFilter) {
  ASSERT_TRUE(collection_.InsertOne(Doc("a", 1)).ok());
  ASSERT_TRUE(collection_.InsertOne(Doc("b", 2)).ok());
  ASSERT_TRUE(collection_.InsertOne(Doc("c", 1)).ok());
  json::Json filter = json::Json::MakeObject();
  filter.Set("value", 1);
  auto docs = collection_.Find(filter);
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(docs->size(), 2u);
}

TEST_F(CollectionTest, OperatorFilters) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(collection_.InsertOne(Doc("k" + std::to_string(i), i)).ok());
  }
  json::Json gt = json::Json::MakeObject();
  json::Json gt_cond = json::Json::MakeObject();
  gt_cond.Set("$gt", 6);
  gt.Set("value", gt_cond);
  EXPECT_EQ(collection_.Find(gt)->size(), 3u);

  json::Json range = json::Json::MakeObject();
  json::Json range_cond = json::Json::MakeObject();
  range_cond.Set("$gte", 2);
  range_cond.Set("$lt", 5);
  range.Set("value", range_cond);
  EXPECT_EQ(collection_.Find(range)->size(), 3u);  // 2,3,4

  json::Json ne = json::Json::MakeObject();
  json::Json ne_cond = json::Json::MakeObject();
  ne_cond.Set("$ne", 0);
  ne.Set("value", ne_cond);
  EXPECT_EQ(collection_.Find(ne)->size(), 9u);

  json::Json in = json::Json::MakeObject();
  json::Json in_cond = json::Json::MakeObject();
  json::Json in_list = json::Json::MakeArray();
  in_list.Append(1);
  in_list.Append(3);
  in_list.Append(99);
  in_cond.Set("$in", std::move(in_list));
  in.Set("value", in_cond);
  EXPECT_EQ(collection_.Find(in)->size(), 2u);
}

TEST_F(CollectionTest, UnknownOperatorRejected) {
  ASSERT_TRUE(collection_.InsertOne(Doc("a", 1)).ok());
  json::Json filter = json::Json::MakeObject();
  json::Json cond = json::Json::MakeObject();
  cond.Set("$regex", "x.*");
  filter.Set("value", cond);
  EXPECT_FALSE(collection_.Find(filter).ok());
}

TEST_F(CollectionTest, FindLimitAndIdFastPath) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(collection_.InsertOne(Doc("k" + std::to_string(i), i)).ok());
  }
  json::Json all = json::Json::MakeObject();
  EXPECT_EQ(collection_.Find(all, 4)->size(), 4u);

  json::Json by_id = json::Json::MakeObject();
  by_id.Set("_id", "k3");
  auto docs = collection_.Find(by_id);
  ASSERT_TRUE(docs.ok());
  ASSERT_EQ(docs->size(), 1u);
  EXPECT_EQ((*docs)[0].at("value").as_int(), 3);

  by_id.Set("_id", "missing");
  EXPECT_EQ(collection_.Find(by_id)->size(), 0u);
}

TEST_F(CollectionTest, UpdateOneWithSetAndInc) {
  ASSERT_TRUE(collection_.InsertOne(Doc("a", 10)).ok());
  json::Json filter = json::Json::MakeObject();
  filter.Set("_id", "a");

  json::Json update = json::Json::MakeObject();
  json::Json set = json::Json::MakeObject();
  set.Set("name", "updated");
  update.Set("$set", set);
  json::Json inc = json::Json::MakeObject();
  inc.Set("value", 5);
  update.Set("$inc", inc);

  auto n = collection_.UpdateOne(filter, update);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
  auto doc = collection_.FindById("a");
  EXPECT_EQ(doc->at("value").as_int(), 15);
  EXPECT_EQ(doc->at("name").as_string(), "updated");
}

TEST_F(CollectionTest, ReplacementUpdateKeepsId) {
  ASSERT_TRUE(collection_.InsertOne(Doc("a", 1)).ok());
  json::Json filter = json::Json::MakeObject();
  filter.Set("_id", "a");
  json::Json replacement = json::Json::MakeObject();
  replacement.Set("fresh", true);
  ASSERT_EQ(*collection_.UpdateOne(filter, replacement), 1);
  auto doc = collection_.FindById("a");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->at("_id").as_string(), "a");
  EXPECT_TRUE(doc->at("fresh").as_bool());
  EXPECT_FALSE(doc->Has("value"));
}

TEST_F(CollectionTest, UpdateManyAndUnset) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(collection_.InsertOne(Doc("k" + std::to_string(i), 7)).ok());
  }
  json::Json filter = json::Json::MakeObject();
  filter.Set("value", 7);
  json::Json update = json::Json::MakeObject();
  json::Json unset = json::Json::MakeObject();
  unset.Set("value", true);
  update.Set("$unset", unset);
  EXPECT_EQ(*collection_.UpdateMany(filter, update), 5);
  EXPECT_EQ(*collection_.CountDocuments(filter), 0u);
  EXPECT_EQ(collection_.Count(), 5u);
}

TEST_F(CollectionTest, IdImmutable) {
  ASSERT_TRUE(collection_.InsertOne(Doc("a", 1)).ok());
  json::Json filter = json::Json::MakeObject();
  filter.Set("_id", "a");
  json::Json update = json::Json::MakeObject();
  json::Json set = json::Json::MakeObject();
  set.Set("_id", "b");
  update.Set("$set", set);
  EXPECT_FALSE(collection_.UpdateOne(filter, update).ok());
}

TEST_F(CollectionTest, DeleteOne) {
  ASSERT_TRUE(collection_.InsertOne(Doc("a", 1)).ok());
  json::Json filter = json::Json::MakeObject();
  filter.Set("_id", "a");
  EXPECT_EQ(*collection_.DeleteOne(filter), 1);
  EXPECT_EQ(*collection_.DeleteOne(filter), 0);
  EXPECT_EQ(collection_.Count(), 0u);
}

TEST_F(CollectionTest, CountWithAndWithoutFilter) {
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(collection_.InsertOne(Doc("k" + std::to_string(i), i % 2)).ok());
  }
  EXPECT_EQ(*collection_.CountDocuments(json::Json()), 6u);
  json::Json filter = json::Json::MakeObject();
  filter.Set("value", 1);
  EXPECT_EQ(*collection_.CountDocuments(filter), 3u);
}

TEST_F(CollectionTest, ScanRange) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(collection_.InsertOne(Doc("k" + std::to_string(i), i)).ok());
  }
  auto docs = collection_.ScanRange("k4", 3);
  ASSERT_EQ(docs.size(), 3u);
  EXPECT_EQ(docs[0].at("_id").as_string(), "k4");
  EXPECT_EQ(docs[2].at("_id").as_string(), "k6");
}

// --- Aggregation ---

TEST_F(CollectionTest, AggregateGroupedSums) {
  for (int i = 0; i < 12; ++i) {
    json::Json doc = Doc("k" + std::to_string(i), i);
    doc.Set("team", i % 3 == 0 ? "red" : "blue");
    ASSERT_TRUE(collection_.InsertOne(doc).ok());
  }
  AggregationSpec spec;
  spec.group_by = "team";
  spec.accumulators["n"] = {"count", ""};
  spec.accumulators["total"] = {"sum", "value"};
  spec.accumulators["mean"] = {"avg", "value"};
  spec.accumulators["low"] = {"min", "value"};
  spec.accumulators["high"] = {"max", "value"};
  auto groups = collection_.Aggregate(json::Json(), spec);
  ASSERT_TRUE(groups.ok()) << groups.status();
  ASSERT_EQ(groups->size(), 2u);
  // "blue" sorts before "red" in canonical key order.
  const json::Json& blue = (*groups)[0];
  const json::Json& red = (*groups)[1];
  EXPECT_EQ(blue.at("_id").as_string(), "blue");
  EXPECT_EQ(blue.at("n").as_int(), 8);
  EXPECT_EQ(red.at("_id").as_string(), "red");
  EXPECT_EQ(red.at("n").as_int(), 4);
  // red = values {0, 3, 6, 9}.
  EXPECT_DOUBLE_EQ(red.at("total").as_double(), 18);
  EXPECT_DOUBLE_EQ(red.at("mean").as_double(), 4.5);
  EXPECT_DOUBLE_EQ(red.at("low").as_double(), 0);
  EXPECT_DOUBLE_EQ(red.at("high").as_double(), 9);
}

TEST_F(CollectionTest, AggregateSingleGroupWithFilter) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(collection_.InsertOne(Doc("k" + std::to_string(i), i)).ok());
  }
  json::Json filter = json::Json::MakeObject();
  json::Json cond = json::Json::MakeObject();
  cond.Set("$gte", 5);
  filter.Set("value", cond);
  AggregationSpec spec;
  spec.accumulators["n"] = {"count", ""};
  spec.accumulators["total"] = {"sum", "value"};
  auto groups = collection_.Aggregate(filter, spec);
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), 1u);
  EXPECT_TRUE((*groups)[0].at("_id").is_null());
  EXPECT_EQ((*groups)[0].at("n").as_int(), 5);
  EXPECT_DOUBLE_EQ((*groups)[0].at("total").as_double(), 35);  // 5+..+9
}

TEST_F(CollectionTest, AggregateSkipsNonNumeric) {
  json::Json doc = json::Json::MakeObject();
  doc.Set("_id", "a");
  doc.Set("value", "not-a-number");
  ASSERT_TRUE(collection_.InsertOne(doc).ok());
  ASSERT_TRUE(collection_.InsertOne(Doc("b", 10)).ok());
  AggregationSpec spec;
  spec.accumulators["total"] = {"sum", "value"};
  spec.accumulators["n"] = {"count", ""};
  auto groups = collection_.Aggregate(json::Json(), spec);
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), 1u);
  EXPECT_EQ((*groups)[0].at("n").as_int(), 2);         // Both docs counted...
  EXPECT_DOUBLE_EQ((*groups)[0].at("total").as_double(), 10);  // ...one summed.
}

TEST_F(CollectionTest, AggregateValidatesSpec) {
  AggregationSpec bad_op;
  bad_op.accumulators["x"] = {"median", "value"};
  EXPECT_FALSE(collection_.Aggregate(json::Json(), bad_op).ok());
  AggregationSpec missing_field;
  missing_field.accumulators["x"] = {"sum", ""};
  EXPECT_FALSE(collection_.Aggregate(json::Json(), missing_field).ok());
}

TEST_F(CollectionTest, AggregateEmptyCollection) {
  AggregationSpec spec;
  spec.accumulators["n"] = {"count", ""};
  auto groups = collection_.Aggregate(json::Json(), spec);
  ASSERT_TRUE(groups.ok());
  EXPECT_TRUE(groups->empty());
}

// --- Secondary indexes ---

TEST_F(CollectionTest, CreateIndexAndLookup) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(collection_.InsertOne(Doc("k" + std::to_string(i), i % 4)).ok());
  }
  ASSERT_TRUE(collection_.CreateIndex("value").ok());
  EXPECT_TRUE(collection_.HasIndex("value"));
  EXPECT_EQ(collection_.IndexedFields(),
            (std::vector<std::string>{"value"}));

  json::Json filter = json::Json::MakeObject();
  filter.Set("value", 2);
  auto docs = collection_.Find(filter);
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(docs->size(), 5u);  // 20 docs, 4 value classes.
}

TEST_F(CollectionTest, IndexMaintainedByMutations) {
  ASSERT_TRUE(collection_.CreateIndex("value").ok());  // Index-first.
  ASSERT_TRUE(collection_.InsertOne(Doc("a", 1)).ok());
  ASSERT_TRUE(collection_.InsertOne(Doc("b", 1)).ok());
  ASSERT_TRUE(collection_.InsertOne(Doc("c", 2)).ok());

  json::Json value_one = json::Json::MakeObject();
  value_one.Set("value", 1);
  EXPECT_EQ(collection_.Find(value_one)->size(), 2u);

  // Update moves a document between index entries.
  json::Json filter_a = json::Json::MakeObject();
  filter_a.Set("_id", "a");
  json::Json update = json::Json::MakeObject();
  json::Json set = json::Json::MakeObject();
  set.Set("value", 2);
  update.Set("$set", set);
  ASSERT_EQ(*collection_.UpdateOne(filter_a, update), 1);
  EXPECT_EQ(collection_.Find(value_one)->size(), 1u);
  json::Json value_two = json::Json::MakeObject();
  value_two.Set("value", 2);
  EXPECT_EQ(collection_.Find(value_two)->size(), 2u);

  // Delete removes from the index.
  json::Json filter_b = json::Json::MakeObject();
  filter_b.Set("_id", "b");
  ASSERT_EQ(*collection_.DeleteOne(filter_b), 1);
  EXPECT_EQ(collection_.Find(value_one)->size(), 0u);
}

TEST_F(CollectionTest, IndexedAndScanResultsAgree) {
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(collection_
                    .InsertOne(Doc("k" + std::to_string(i),
                                   static_cast<int64_t>(rng.NextUint64(10))))
                    .ok());
  }
  json::Json filter = json::Json::MakeObject();
  filter.Set("value", 7);
  auto scanned = collection_.Find(filter);
  ASSERT_TRUE(collection_.CreateIndex("value").ok());
  auto indexed = collection_.Find(filter);
  ASSERT_TRUE(scanned.ok());
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(*scanned, *indexed);
}

TEST_F(CollectionTest, IndexRules) {
  EXPECT_FALSE(collection_.CreateIndex("_id").ok());
  EXPECT_FALSE(collection_.CreateIndex("").ok());
  ASSERT_TRUE(collection_.CreateIndex("value").ok());
  EXPECT_TRUE(collection_.CreateIndex("value").IsAlreadyExists());
  ASSERT_TRUE(collection_.DropIndex("value").ok());
  EXPECT_TRUE(collection_.DropIndex("value").IsNotFound());
}

TEST_F(CollectionTest, IndexMissLookupIsEmptyNotScan) {
  ASSERT_TRUE(collection_.InsertOne(Doc("a", 1)).ok());
  ASSERT_TRUE(collection_.CreateIndex("value").ok());
  json::Json filter = json::Json::MakeObject();
  filter.Set("value", 999);
  EXPECT_EQ(collection_.Find(filter)->size(), 0u);
}

// --- FindWithOptions: sort / projection / limit ---

TEST_F(CollectionTest, SortAscendingAndDescending) {
  for (int i : {3, 1, 4, 1, 5, 9, 2, 6}) {
    ASSERT_TRUE(collection_
                    .InsertOne(Doc("k" + std::to_string(
                                       collection_.Count()),
                                   i))
                    .ok());
  }
  FindOptions options;
  options.sort_field = "value";
  auto ascending = collection_.FindWithOptions(json::Json(), options);
  ASSERT_TRUE(ascending.ok());
  for (size_t i = 1; i < ascending->size(); ++i) {
    EXPECT_LE((*ascending)[i - 1].at("value").as_int(),
              (*ascending)[i].at("value").as_int());
  }
  options.sort_descending = true;
  options.limit = 3;
  auto top3 = collection_.FindWithOptions(json::Json(), options);
  ASSERT_TRUE(top3.ok());
  ASSERT_EQ(top3->size(), 3u);
  EXPECT_EQ((*top3)[0].at("value").as_int(), 9);
  EXPECT_EQ((*top3)[1].at("value").as_int(), 6);
  EXPECT_EQ((*top3)[2].at("value").as_int(), 5);
}

TEST_F(CollectionTest, ProjectionKeepsIdAndListedFields) {
  json::Json doc = Doc("a", 1);
  doc.Set("extra", "data");
  doc.Set("more", 2);
  ASSERT_TRUE(collection_.InsertOne(doc).ok());
  FindOptions options;
  options.projection = {"value"};
  auto docs = collection_.FindWithOptions(json::Json(), options);
  ASSERT_TRUE(docs.ok());
  ASSERT_EQ(docs->size(), 1u);
  EXPECT_EQ((*docs)[0].at("_id").as_string(), "a");
  EXPECT_EQ((*docs)[0].at("value").as_int(), 1);
  EXPECT_FALSE((*docs)[0].Has("extra"));
  EXPECT_FALSE((*docs)[0].Has("more"));
}

TEST_F(CollectionTest, SortStableForEqualKeys) {
  ASSERT_TRUE(collection_.InsertOne(Doc("a", 1)).ok());
  ASSERT_TRUE(collection_.InsertOne(Doc("b", 1)).ok());
  ASSERT_TRUE(collection_.InsertOne(Doc("c", 1)).ok());
  FindOptions options;
  options.sort_field = "value";
  auto docs = collection_.FindWithOptions(json::Json(), options);
  ASSERT_TRUE(docs.ok());
  // Equal keys keep the underlying (_id) order.
  EXPECT_EQ((*docs)[0].at("_id").as_string(), "a");
  EXPECT_EQ((*docs)[2].at("_id").as_string(), "c");
}

// --- Database ---

TEST(DatabaseTest, CreateAndGetCollections) {
  Database db("btree");
  auto users = db.CreateCollection("users");
  ASSERT_TRUE(users.ok());
  EXPECT_EQ((*users)->engine_name(), "btree");
  auto logs = db.CreateCollection("logs", "mmapv1");
  ASSERT_TRUE(logs.ok());
  EXPECT_EQ((*logs)->engine_name(), "mmap");
  EXPECT_TRUE(db.CreateCollection("users").status().IsAlreadyExists());
  EXPECT_TRUE(db.Get("nope").status().IsNotFound());
  EXPECT_EQ(db.CollectionNames().size(), 2u);
  ASSERT_TRUE(db.Drop("logs").ok());
  EXPECT_TRUE(db.Drop("logs").IsNotFound());
}

TEST(DatabaseTest, DefaultEngineApplies) {
  Database db("mmapv1");
  auto coll = db.GetOrCreate("implicit");
  ASSERT_TRUE(coll.ok());
  EXPECT_EQ((*coll)->engine_name(), "mmap");
}

TEST(DatabaseTest, StatsAggregates) {
  Database db;
  auto coll = db.GetOrCreate("c1");
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE((*coll)->InsertOne(Doc("a", 1)).ok());
  json::Json stats = db.Stats();
  EXPECT_TRUE(stats.Has("c1"));
  EXPECT_EQ(stats.at("c1").at("inserts").as_int(), 1);
  EXPECT_EQ(stats.at("c1").at("engine").as_string(), "btree");
}

// --- Durability: journal + snapshot recovery ---

class DurableDatabaseTest : public ::testing::Test {
 protected:
  std::unique_ptr<Database> Open() {
    DatabaseOptions options;
    options.data_dir = dir_.path();
    auto db = Database::Open(options);
    EXPECT_TRUE(db.ok()) << db.status();
    return std::move(db).value();
  }
  file::TempDir dir_{"mokka-durable"};
};

TEST_F(DurableDatabaseTest, InMemoryByDefault) {
  Database db;
  EXPECT_FALSE(db.durable());
  EXPECT_EQ(db.journal_bytes(), 0u);
  EXPECT_TRUE(db.CompactJournal().ok());  // No-op.
}

TEST_F(DurableDatabaseTest, MutationsSurviveReopen) {
  {
    auto db = Open();
    EXPECT_TRUE(db->durable());
    auto coll = db->CreateCollection("users", "wiredtiger");
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE((*coll)->InsertOne(Doc("a", 1)).ok());
    ASSERT_TRUE((*coll)->InsertOne(Doc("b", 2)).ok());
    json::Json filter = json::Json::MakeObject();
    filter.Set("_id", "a");
    json::Json update = json::Json::MakeObject();
    json::Json inc = json::Json::MakeObject();
    inc.Set("value", 10);
    update.Set("$inc", inc);
    ASSERT_EQ(*(*coll)->UpdateOne(filter, update), 1);
    json::Json filter_b = json::Json::MakeObject();
    filter_b.Set("_id", "b");
    ASSERT_EQ(*(*coll)->DeleteOne(filter_b), 1);
    EXPECT_GT(db->journal_bytes(), 0u);
  }
  auto db = Open();
  auto coll = db->Get("users");
  ASSERT_TRUE(coll.ok());
  EXPECT_EQ((*coll)->engine_name(), "btree");  // Engine choice recovered.
  EXPECT_EQ((*coll)->Count(), 1u);
  auto doc = (*coll)->FindById("a");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->at("value").as_int(), 11);
  EXPECT_TRUE((*coll)->FindById("b").status().IsNotFound());
}

TEST_F(DurableDatabaseTest, SnapshotPlusJournalTail) {
  {
    auto db = Open();
    auto coll = db->CreateCollection("t", "mmapv1");
    ASSERT_TRUE((*coll)->CreateIndex("value").ok());
    ASSERT_TRUE((*coll)->InsertOne(Doc("snap", 1)).ok());
    ASSERT_TRUE(db->CompactJournal().ok());
    EXPECT_EQ(db->journal_bytes(), 0u);
    ASSERT_TRUE((*coll)->InsertOne(Doc("tail", 2)).ok());
  }
  auto db = Open();
  auto coll = db->Get("t");
  ASSERT_TRUE(coll.ok());
  EXPECT_EQ((*coll)->engine_name(), "mmap");
  EXPECT_EQ((*coll)->Count(), 2u);
  EXPECT_TRUE((*coll)->HasIndex("value"));  // Indexes recovered.
  // The recovered database journals new mutations too.
  ASSERT_TRUE((*coll)->InsertOne(Doc("post", 3)).ok());
  EXPECT_GT(db->journal_bytes(), 0u);
}

TEST_F(DurableDatabaseTest, DropSurvivesReopen) {
  {
    auto db = Open();
    ASSERT_TRUE(db->CreateCollection("gone").ok());
    ASSERT_TRUE(db->CreateCollection("kept").ok());
    ASSERT_TRUE(db->Drop("gone").ok());
  }
  auto db = Open();
  EXPECT_TRUE(db->Get("gone").status().IsNotFound());
  EXPECT_TRUE(db->Get("kept").ok());
}

TEST_F(DurableDatabaseTest, TornJournalTailRecoversPrefix) {
  {
    auto db = Open();
    auto coll = db->CreateCollection("t");
    ASSERT_TRUE((*coll)->InsertOne(Doc("keep", 1)).ok());
    ASSERT_TRUE((*coll)->InsertOne(Doc("torn", 2)).ok());
  }
  std::string journal_path = dir_.path() + "/journal.log";
  auto contents = file::ReadFile(journal_path);
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(file::WriteFile(journal_path,
                              contents->substr(0, contents->size() - 4))
                  .ok());
  auto db = Open();
  auto coll = db->Get("t");
  ASSERT_TRUE(coll.ok());
  EXPECT_TRUE((*coll)->FindById("keep").ok());
  EXPECT_TRUE((*coll)->FindById("torn").status().IsNotFound());
}

// Property: durable database state after reopen equals in-memory state for
// a randomized mutation stream with interleaved compactions.
class DurabilityPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DurabilityPropertyTest, RecoveryEqualsLiveState) {
  file::TempDir dir("mokka-prop");
  Rng rng(GetParam() * 4099);
  std::map<std::string, int64_t> expected;
  {
    DatabaseOptions options;
    options.data_dir = dir.path();
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    auto coll = (*db)->CreateCollection(
        "t", rng.NextBool() ? "btree" : "mmap");
    ASSERT_TRUE(coll.ok());
    for (int op = 0; op < 250; ++op) {
      std::string id = "k" + std::to_string(rng.NextUint64(30));
      uint64_t action = rng.NextUint64(10);
      if (action < 5) {
        int64_t value = static_cast<int64_t>(rng.NextUint64(1000));
        if (expected.count(id) == 0) {
          ASSERT_TRUE((*coll)->InsertOne(Doc(id, value)).ok());
          expected[id] = value;
        } else {
          json::Json filter = json::Json::MakeObject();
          filter.Set("_id", id);
          ASSERT_EQ(*(*coll)->UpdateOne(filter, Doc(id, value)), 1);
          expected[id] = value;
        }
      } else if (action < 8) {
        json::Json filter = json::Json::MakeObject();
        filter.Set("_id", id);
        int n = *(*coll)->DeleteOne(filter);
        EXPECT_EQ(n, expected.count(id) > 0 ? 1 : 0);
        expected.erase(id);
      } else if (action == 8) {
        ASSERT_TRUE((*db)->CompactJournal().ok());
      }
    }
  }
  DatabaseOptions options;
  options.data_dir = dir.path();
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  auto coll = (*db)->Get("t");
  ASSERT_TRUE(coll.ok());
  EXPECT_EQ((*coll)->Count(), expected.size());
  for (const auto& [id, value] : expected) {
    auto doc = (*coll)->FindById(id);
    ASSERT_TRUE(doc.ok()) << id;
    EXPECT_EQ(doc->at("value").as_int(), value) << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DurabilityPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- Wire protocol ---

class WireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server = StartWireServer(&db_, 0);
    ASSERT_TRUE(server.ok());
    server_ = std::move(server).value();
    auto client = WireClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    client_ = std::move(client).value();
  }

  Database db_;
  std::unique_ptr<net::ConnectionServer> server_;
  std::unique_ptr<WireClient> client_;
};

TEST_F(WireTest, PingPong) { EXPECT_TRUE(client_->Ping().ok()); }

// The fixture's client sits idle in its session (60 s read timeout).
TEST_F(WireTest, StopWithIdleClientIsBounded) {
  ASSERT_TRUE(client_->Ping().ok());
  EXPECT_TRUE(chronos::testing::StopsWithin(&server_, 1000));
}

// Virtual size of this process in MB, from /proc/self/status.
int64_t VmSizeMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stoll(line.substr(7)) / 1024;  // Reported in kB.
    }
  }
  return -1;
}

// Each session thread that exits keeps its stack mapped until joined.
TEST_F(WireTest, SequentialConnectionsAreReaped) {
  ASSERT_TRUE(client_->Ping().ok());  // The fixture's session is live.
  int64_t live = server_->stats().live;
  int64_t before = VmSizeMb();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 300; ++i) {
    auto client = WireClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->Ping().ok());
    client->reset();
    // Let the session end before the next connection.
    auto start = std::chrono::steady_clock::now();
    while (server_->stats().live > live &&
           chronos::testing::MillisSince(start) < 1000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_LT(VmSizeMb() - before, 256);
}

TEST_F(WireTest, CrudOverTheWire) {
  ASSERT_TRUE(client_->CreateCollection("t", "wiredtiger").ok());
  auto id = client_->Insert("t", Doc("a", 41));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, "a");

  auto doc = client_->Get("t", "a");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->at("value").as_int(), 41);

  json::Json filter = json::Json::MakeObject();
  filter.Set("_id", "a");
  json::Json update = json::Json::MakeObject();
  json::Json inc = json::Json::MakeObject();
  inc.Set("value", 1);
  update.Set("$inc", inc);
  EXPECT_EQ(*client_->UpdateOne("t", filter, update), 1);
  EXPECT_EQ(client_->Get("t", "a")->at("value").as_int(), 42);

  EXPECT_EQ(*client_->Count("t", json::Json()), 1u);
  EXPECT_EQ(*client_->DeleteOne("t", filter), 1);
  EXPECT_TRUE(client_->Get("t", "a").status().IsNotFound());
}

TEST_F(WireTest, FindAndScan) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client_->Insert("t", Doc("k" + std::to_string(i), i)).ok());
  }
  json::Json filter = json::Json::MakeObject();
  json::Json cond = json::Json::MakeObject();
  cond.Set("$gte", 7);
  filter.Set("value", cond);
  auto docs = client_->Find("t", filter);
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(docs->size(), 3u);

  auto scanned = client_->Scan("t", "k5", 2);
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(scanned->size(), 2u);
  EXPECT_EQ((*scanned)[0].at("_id").as_string(), "k5");
}

TEST_F(WireTest, ErrorsCrossTheWire) {
  ASSERT_TRUE(client_->Insert("t", Doc("a", 1)).ok());
  EXPECT_TRUE(client_->Insert("t", Doc("a", 2)).status().IsAlreadyExists());
  EXPECT_TRUE(client_->Get("t", "zzz").status().IsNotFound());
  EXPECT_TRUE(client_->Drop("missing").IsNotFound());
}

TEST_F(WireTest, StatsAcrossTheWire) {
  ASSERT_TRUE(client_->Insert("t", Doc("a", 1)).ok());
  auto stats = client_->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->at("t").at("document_count").as_int(), 1);
}

TEST_F(WireTest, MultipleClientsConcurrently) {
  constexpr int kClients = 4;
  constexpr int kDocs = 50;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c] {
      auto client = WireClient::Connect("127.0.0.1", server_->port());
      ASSERT_TRUE(client.ok());
      for (int i = 0; i < kDocs; ++i) {
        std::string id = std::to_string(c) + "-" + std::to_string(i);
        ASSERT_TRUE((*client)->Insert("t", Doc(id, i)).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(*client_->Count("t", json::Json()),
            static_cast<uint64_t>(kClients * kDocs));
}

TEST_F(WireTest, AggregateOverTheWire) {
  for (int i = 0; i < 6; ++i) {
    json::Json doc = Doc("k" + std::to_string(i), i);
    doc.Set("parity", i % 2);
    ASSERT_TRUE(client_->Insert("t", std::move(doc)).ok());
  }
  json::Json request = json::Json::MakeObject();
  request.Set("op", "aggregate");
  request.Set("coll", "t");
  request.Set("filter", json::Json::MakeObject());
  request.Set("group_by", "parity");
  json::Json accumulators = json::Json::MakeObject();
  json::Json count = json::Json::MakeObject();
  count.Set("op", "count");
  accumulators.Set("n", count);
  json::Json sum = json::Json::MakeObject();
  sum.Set("op", "sum");
  sum.Set("field", "value");
  accumulators.Set("total", sum);
  request.Set("accumulators", accumulators);
  auto response = client_->Call(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->GetBoolOr("ok", false)) << response->Dump();
  const json::Json& groups = response->at("groups");
  ASSERT_EQ(groups.size(), 2u);
  // Evens: 0+2+4=6; odds: 1+3+5=9.
  EXPECT_DOUBLE_EQ(groups.at(0).at("total").as_double(), 6);
  EXPECT_DOUBLE_EQ(groups.at(1).at("total").as_double(), 9);
  EXPECT_EQ(groups.at(0).at("n").as_int(), 3);
}

TEST_F(WireTest, SortProjectionAndIndexOverTheWire) {
  for (int i = 0; i < 10; ++i) {
    json::Json doc = Doc("k" + std::to_string(i), 9 - i);
    doc.Set("noise", "x");
    ASSERT_TRUE(client_->Insert("t", std::move(doc)).ok());
  }
  // create_index + list_indexes.
  json::Json create_index = json::Json::MakeObject();
  create_index.Set("op", "create_index");
  create_index.Set("coll", "t");
  create_index.Set("field", "value");
  auto response = client_->Call(create_index);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->GetBoolOr("ok", false));

  json::Json list_indexes = json::Json::MakeObject();
  list_indexes.Set("op", "list_indexes");
  list_indexes.Set("coll", "t");
  response = client_->Call(list_indexes);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->at("fields").at(0).as_string(), "value");

  // find with sort desc + projection + limit.
  json::Json find = json::Json::MakeObject();
  find.Set("op", "find");
  find.Set("coll", "t");
  find.Set("filter", json::Json::MakeObject());
  json::Json sort = json::Json::MakeObject();
  sort.Set("value", -1);
  find.Set("sort", sort);
  json::Json projection = json::Json::MakeArray();
  projection.Append("value");
  find.Set("projection", projection);
  find.Set("limit", 2);
  response = client_->Call(find);
  ASSERT_TRUE(response.ok()) << response.status();
  const json::Json& docs = response->at("docs");
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(docs.at(0).at("value").as_int(), 9);
  EXPECT_EQ(docs.at(1).at("value").as_int(), 8);
  EXPECT_FALSE(docs.at(0).Has("noise"));
}

TEST_F(WireTest, MalformedRequestGetsErrorResponse) {
  json::Json bogus = json::Json::MakeObject();
  bogus.Set("op", "warp");
  auto response = client_->Call(bogus);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->GetBoolOr("ok", true));
}

}  // namespace
}  // namespace chronos::mokka
