// Adversarial and exhaustive-property tests across the substrates:
// malformed protocol inputs, torn-write recovery at every byte offset, and
// concurrency races that the module tests don't reach.
#include <gtest/gtest.h>

#include <thread>

#include "common/file_util.h"
#include "common/random.h"
#include "net/http.h"
#include "net/tcp.h"
#include "store/table_store.h"
#include "store/wal.h"
#include "sue/mokkadb/btree_engine.h"
#include "sue/mokkadb/collection.h"

namespace chronos {
namespace {

using chronos::file::TempDir;

// --- HTTP parser vs. hostile clients ---

class HttpParserTest : public ::testing::Test {
 protected:
  // Feeds raw bytes to ReadRequest through a real socket pair.
  StatusOr<net::HttpRequest> Feed(const std::string& raw) {
    auto listener = net::TcpListener::Listen(0);
    EXPECT_TRUE(listener.ok());
    std::thread writer([&listener, &raw] {
      auto conn =
          net::TcpConnection::Connect("127.0.0.1", (*listener)->port());
      ASSERT_TRUE(conn.ok());
      (*conn)->WriteAll(raw).IgnoreError();
      // Close so truncated messages hit EOF instead of hanging.
    });
    auto server_conn = (*listener)->Accept();
    EXPECT_TRUE(server_conn.ok());
    (*server_conn)->SetReadTimeoutMs(2000).IgnoreError();
    auto request = net::ReadRequest(server_conn->get(), /*max_body=*/4096);
    writer.join();
    return request;
  }
};

TEST_F(HttpParserTest, AcceptsMinimalRequest) {
  auto request = Feed("GET / HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->method, "GET");
  EXPECT_EQ(request->path, "/");
}

TEST_F(HttpParserTest, RejectsMalformedStartLines) {
  const char* bad_cases[] = {
      "GARBAGE\r\n\r\n",
      "GET /\r\n\r\n",                       // Missing HTTP version.
      "GET / HTTP/1.1 EXTRA TOKEN\r\n\r\n",  // Too many tokens.
      "/ GET HTTP/1.1\r\n\r\n",              // Wrong order.
  };
  for (const char* raw : bad_cases) {
    auto request = Feed(raw);
    EXPECT_FALSE(request.ok()) << raw;
  }
}

TEST_F(HttpParserTest, RejectsBadHeaders) {
  EXPECT_FALSE(Feed("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").ok());
}

TEST_F(HttpParserTest, RejectsBadContentLength) {
  EXPECT_FALSE(
      Feed("GET / HTTP/1.1\r\ncontent-length: banana\r\n\r\n").ok());
  EXPECT_FALSE(Feed("GET / HTTP/1.1\r\ncontent-length: -5\r\n\r\n").ok());
}

TEST_F(HttpParserTest, EnforcesBodyLimit) {
  auto request =
      Feed("POST / HTTP/1.1\r\ncontent-length: 100000\r\n\r\nxxxx");
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(HttpParserTest, TruncatedBodyFails) {
  EXPECT_FALSE(Feed("POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc").ok());
}

TEST_F(HttpParserTest, PercentDecodedPath) {
  auto request = Feed("GET /a%20b/c%2Fd HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->path, "/a b/c/d");
}

TEST_F(HttpParserTest, MalformedPercentEscapeRejected) {
  EXPECT_FALSE(Feed("GET /a%zz HTTP/1.1\r\n\r\n").ok());
}

TEST_F(HttpParserTest, MethodIsUppercased) {
  auto request = Feed("get /x HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->method, "GET");
}

TEST(HttpServerHostileTest, SurvivesGarbageAndStaysUp) {
  auto server = net::StartHttpServer(0, [](const net::HttpRequest&) {
    return net::HttpResponse::Ok("alive");
  });
  ASSERT_TRUE(server.ok());
  int port = (*server)->port();

  // Slam the server with garbage openings.
  for (const char* garbage :
       {"\x00\x01\x02\x03", "NOT HTTP AT ALL\r\n\r\n", "\r\n\r\n\r\n"}) {
    auto conn = net::TcpConnection::Connect("127.0.0.1", port);
    ASSERT_TRUE(conn.ok());
    (*conn)->WriteAll(garbage).IgnoreError();
    (*conn)->Close();
  }
  // And a client that connects and immediately disappears.
  {
    auto conn = net::TcpConnection::Connect("127.0.0.1", port);
    ASSERT_TRUE(conn.ok());
  }
  // The server still answers real requests.
  net::HttpClient client("127.0.0.1", port);
  auto response = client.Get("/");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body, "alive");
}

// --- WAL: recovery must yield a record prefix for EVERY truncation ---

TEST(WalExhaustiveTest, EveryTruncationRecoversPrefix) {
  TempDir dir;
  std::string path = dir.path() + "/wal.log";
  std::vector<std::string> records;
  {
    auto wal = store::Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 12; ++i) {
      std::string record = "record-" + std::to_string(i) +
                           std::string(i * 3, 'p');
      records.push_back(record);
      ASSERT_TRUE((*wal)->Append(record, true).ok());
    }
  }
  auto full = file::ReadFile(path);
  ASSERT_TRUE(full.ok());

  for (size_t cut = 0; cut <= full->size(); ++cut) {
    std::string truncated_path = dir.path() + "/cut.log";
    ASSERT_TRUE(file::WriteFile(truncated_path, full->substr(0, cut)).ok());
    auto recovered = store::Wal::Replay(truncated_path);
    ASSERT_TRUE(recovered.ok()) << "cut=" << cut;
    ASSERT_LE(recovered->size(), records.size()) << "cut=" << cut;
    for (size_t i = 0; i < recovered->size(); ++i) {
      EXPECT_EQ((*recovered)[i], records[i]) << "cut=" << cut;
    }
    // At the full length everything must be back.
    if (cut == full->size()) {
      EXPECT_EQ(recovered->size(), records.size());
    }
  }
}

// --- WAL: single corrupted byte anywhere never yields wrong data ---

class WalCorruptionTest : public ::testing::TestWithParam<int> {};

TEST_P(WalCorruptionTest, FlippedByteYieldsCleanPrefix) {
  TempDir dir;
  std::string path = dir.path() + "/wal.log";
  std::vector<std::string> records;
  {
    auto wal = store::Wal::Open(path);
    for (int i = 0; i < 8; ++i) {
      std::string record = "payload-" + std::to_string(i * 7919);
      records.push_back(record);
      ASSERT_TRUE((*wal)->Append(record, true).ok());
    }
  }
  auto full = file::ReadFile(path);
  Rng rng(GetParam() * 131);
  for (int trial = 0; trial < 40; ++trial) {
    std::string corrupted = *full;
    corrupted[rng.NextUint64(corrupted.size())] ^=
        static_cast<char>(1 + rng.NextUint64(255));
    ASSERT_TRUE(file::WriteFile(path, corrupted).ok());
    auto recovered = store::Wal::Replay(path);
    ASSERT_TRUE(recovered.ok());
    // Whatever comes back must be an exact prefix of the true history —
    // never altered or reordered records.
    ASSERT_LE(recovered->size(), records.size());
    for (size_t i = 0; i < recovered->size(); ++i) {
      // A flipped byte inside record i's payload fails its CRC, ending the
      // replay before it. So every returned record is pristine... unless
      // the flip produced a colliding CRC, which CRC-32 makes vanishingly
      // unlikely for single-byte flips (impossible, by CRC linearity).
      EXPECT_EQ((*recovered)[i], records[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalCorruptionTest, ::testing::Values(1, 2, 3));

// --- TableStore under concurrent mutation + checkpoint ---

TEST(StoreRaceTest, CheckpointDuringWritesLosesNothing) {
  TempDir dir;
  store::TableStoreOptions options;
  options.sync_writes = false;
  options.checkpoint_wal_bytes = 0;
  auto table_store = store::TableStore::Open(dir.path(), options);
  ASSERT_TRUE(table_store.ok());

  constexpr int kWriters = 4;
  constexpr int kRowsPerWriter = 200;
  std::atomic<bool> stop_checkpoints{false};
  std::thread checkpointer([&] {
    while (!stop_checkpoints.load()) {
      (*table_store)->Checkpoint().IgnoreError();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      json::Json row = json::Json::MakeObject();
      row.Set("writer", w);
      for (int i = 0; i < kRowsPerWriter; ++i) {
        ASSERT_TRUE((*table_store)
                        ->Insert("t", std::to_string(w) + "-" +
                                          std::to_string(i),
                                 row)
                        .ok());
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop_checkpoints.store(true);
  checkpointer.join();
  EXPECT_EQ((*table_store)->Count("t"),
            static_cast<size_t>(kWriters * kRowsPerWriter));

  // Recovery after the storm sees everything.
  table_store->reset();
  auto reopened = store::TableStore::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Count("t"),
            static_cast<size_t>(kWriters * kRowsPerWriter));
}

// --- Collection index maintenance under concurrent writers ---

TEST(CollectionRaceTest, ConcurrentMutationsKeepIndexConsistent) {
  mokka::Collection collection("t",
                               std::make_unique<mokka::BTreeEngine>());
  ASSERT_TRUE(collection.CreateIndex("bucket").ok());

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&collection, t] {
      Rng rng(t * 7 + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string id = std::to_string(t) + "-" +
                         std::to_string(rng.NextUint64(50));
        json::Json doc = json::Json::MakeObject();
        doc.Set("_id", id);
        doc.Set("bucket", static_cast<int64_t>(rng.NextUint64(5)));
        uint64_t action = rng.NextUint64(10);
        if (action < 5) {
          collection.InsertOne(doc).IgnoreError();
        } else if (action < 8) {
          json::Json filter = json::Json::MakeObject();
          filter.Set("_id", id);
          collection.UpdateOne(filter, doc).IgnoreError();
        } else {
          json::Json filter = json::Json::MakeObject();
          filter.Set("_id", id);
          collection.DeleteOne(filter).IgnoreError();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Verify: the indexed view equals the scanned view for every bucket.
  uint64_t indexed_total = 0;
  for (int64_t bucket = 0; bucket < 5; ++bucket) {
    json::Json filter = json::Json::MakeObject();
    filter.Set("bucket", bucket);
    auto indexed = collection.Find(filter);
    ASSERT_TRUE(indexed.ok());
    ASSERT_TRUE(collection.DropIndex("bucket").ok());
    auto scanned = collection.Find(filter);
    ASSERT_TRUE(scanned.ok());
    ASSERT_TRUE(collection.CreateIndex("bucket").ok());
    EXPECT_EQ(indexed->size(), scanned->size()) << "bucket " << bucket;
    indexed_total += indexed->size();
  }
  EXPECT_EQ(indexed_total, collection.Count());
}

// --- JSON parser memory-safety-ish stress ---

TEST(JsonHostileTest, RandomBytesNeverCrash) {
  Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string garbage;
    size_t len = rng.NextUint64(64);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.NextUint64(256)));
    }
    auto parsed = json::Parse(garbage);  // Must not crash or hang.
    (void)parsed;
  }
  SUCCEED();
}

TEST(JsonHostileTest, MutatedValidDocumentsNeverCrash) {
  const std::string valid =
      R"({"a":[1,2.5,"x",true,null],"b":{"c":"é","d":-17}})";
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = valid;
    int flips = 1 + static_cast<int>(rng.NextUint64(3));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.NextUint64(mutated.size())] =
          static_cast<char>(rng.NextUint64(256));
    }
    auto parsed = json::Parse(mutated);
    if (parsed.ok()) {
      // If it parsed, it must re-serialize and re-parse consistently.
      auto reparsed = json::Parse(parsed->Dump());
      ASSERT_TRUE(reparsed.ok());
      EXPECT_EQ(*parsed, *reparsed);
    }
  }
}

}  // namespace
}  // namespace chronos
