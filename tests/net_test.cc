#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "fault/failpoint.h"
#include "net/connection_server.h"
#include "net/ftp.h"
#include "net/http.h"
#include "net/router.h"
#include "net/tcp.h"
#include "server_test_util.h"

namespace chronos::net {
namespace {

using chronos::testing::MillisSince;
using chronos::testing::StopsWithin;
using Steady = std::chrono::steady_clock;

// Disarms every failpoint when a test ends, even on an early ASSERT.
struct DisarmFailPoints {
  ~DisarmFailPoints() { fault::FailPointRegistry::Get()->ClearAll(); }
};

// True when the server closed `conn` without replying.
bool ClosedByServer(TcpConnection* conn) {
  if (!conn->SetReadTimeoutMs(5000).ok()) return false;
  auto data = conn->ReadSome();
  return !data.ok() || data->empty();
}

// --- TCP ---

TEST(TcpTest, ConnectWriteRead) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  int port = (*listener)->port();

  std::thread server([&listener] {
    auto conn = (*listener)->Accept();
    ASSERT_TRUE(conn.ok());
    auto data = (*conn)->ReadExactly(5);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(*data, "hello");
    ASSERT_TRUE((*conn)->WriteAll("world!").ok());
  });

  auto client = TcpConnection::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->WriteAll("hello").ok());
  auto reply = (*client)->ReadExactly(6);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "world!");
  server.join();
}

TEST(TcpTest, ReadLineSplitsOnNewline) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&listener] {
    auto conn = (*listener)->Accept();
    ASSERT_TRUE((*conn)->WriteAll("line one\nline two\nrest").ok());
  });
  auto client = TcpConnection::Connect("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(*(*client)->ReadLine(), "line one\n");
  EXPECT_EQ(*(*client)->ReadLine(), "line two\n");
  EXPECT_EQ(*(*client)->ReadLine(), "rest");  // EOF flushes remainder.
  server.join();
}

TEST(TcpTest, ConnectToClosedPortFails) {
  // Grab a port then close it so nothing listens there.
  auto listener = TcpListener::Listen(0);
  int port = (*listener)->port();
  (*listener)->Close();
  auto conn = TcpConnection::Connect("127.0.0.1", port, 500);
  EXPECT_FALSE(conn.ok());
}

TEST(TcpTest, EphemeralPortsAreDistinct) {
  auto a = TcpListener::Listen(0);
  auto b = TcpListener::Listen(0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*a)->port(), (*b)->port());
}

// --- HTTP message parsing ---

TEST(HttpMessageTest, SerializeParseRequestRoundTrip) {
  auto listener = TcpListener::Listen(0);
  HttpRequest request;
  request.method = "POST";
  request.path = "/api/v1/jobs";
  request.query = "limit=5&state=scheduled";
  request.headers.Set("Content-Type", "application/json");
  request.body = R"({"x":1})";

  std::thread client([&listener, &request] {
    auto conn = TcpConnection::Connect("127.0.0.1", (*listener)->port());
    ASSERT_TRUE((*conn)->WriteAll(SerializeRequest(request)).ok());
  });
  auto server_conn = (*listener)->Accept();
  auto parsed = ReadRequest(server_conn->get());
  client.join();
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->method, "POST");
  EXPECT_EQ(parsed->path, "/api/v1/jobs");
  EXPECT_EQ(parsed->query, "limit=5&state=scheduled");
  EXPECT_EQ(parsed->headers.Get("content-type"), "application/json");
  EXPECT_EQ(parsed->body, R"({"x":1})");
  auto params = parsed->QueryParams();
  EXPECT_EQ(params["limit"], "5");
  EXPECT_EQ(params["state"], "scheduled");
}

TEST(HttpMessageTest, HeaderNamesCaseInsensitive) {
  HeaderMap headers;
  headers.Set("Content-Length", "7");
  EXPECT_EQ(headers.Get("content-length"), "7");
  EXPECT_EQ(headers.Get("CONTENT-LENGTH"), "7");
  EXPECT_TRUE(headers.Has("Content-length"));
  EXPECT_FALSE(headers.Has("X-Missing"));
}

TEST(HttpMessageTest, ResponseHelpers) {
  json::Json body = json::Json::MakeObject();
  body.Set("k", 1);
  HttpResponse response = HttpResponse::Json(body, 201);
  EXPECT_EQ(response.status_code, 201);
  EXPECT_EQ(response.headers.Get("content-type"), "application/json");
  EXPECT_EQ(response.body, "{\"k\":1}");

  HttpResponse error = HttpResponse::FromStatus(Status::NotFound("gone"));
  EXPECT_EQ(error.status_code, 404);
  error = HttpResponse::FromStatus(Status::Unauthenticated("no"));
  EXPECT_EQ(error.status_code, 401);
  error = HttpResponse::FromStatus(Status::InvalidArgument("bad"));
  EXPECT_EQ(error.status_code, 400);
}

// --- HTTP server + client ---

TEST(HttpServerTest, EchoRoundTrip) {
  auto server = StartHttpServer(0, [](const HttpRequest& request) {
    json::Json body = json::Json::MakeObject();
    body.Set("method", request.method);
    body.Set("path", request.path);
    body.Set("body", request.body);
    return HttpResponse::Json(body);
  });
  ASSERT_TRUE(server.ok());

  HttpClient client("127.0.0.1", (*server)->port());
  auto response = client.Post("/echo/me", "payload");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 200);
  auto parsed = json::Parse(response->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at("method").as_string(), "POST");
  EXPECT_EQ(parsed->at("path").as_string(), "/echo/me");
  EXPECT_EQ(parsed->at("body").as_string(), "payload");
}

TEST(HttpServerTest, ConcurrentClients) {
  std::atomic<int> handled{0};
  auto server = StartHttpServer(0, [&handled](const HttpRequest&) {
    handled.fetch_add(1);
    return HttpResponse::Ok("ok");
  });
  ASSERT_TRUE(server.ok());
  int port = (*server)->port();

  constexpr int kThreads = 8;
  constexpr int kRequests = 10;
  std::vector<std::thread> threads;
  std::atomic<int> succeeded{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([port, &succeeded] {
      HttpClient client("127.0.0.1", port);
      for (int i = 0; i < kRequests; ++i) {
        auto response = client.Get("/");
        if (response.ok() && response->status_code == 200) {
          succeeded.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(succeeded.load(), kThreads * kRequests);
  EXPECT_EQ(handled.load(), kThreads * kRequests);
}

TEST(HttpServerTest, LargeBodyRoundTrip) {
  auto server = StartHttpServer(0, [](const HttpRequest& request) {
    return HttpResponse::Ok(request.body);
  });
  ASSERT_TRUE(server.ok());
  std::string big(2 * 1024 * 1024, 'B');
  HttpClient client("127.0.0.1", (*server)->port());
  auto response = client.Post("/big", big, "application/octet-stream");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body.size(), big.size());
  EXPECT_EQ(response->body, big);
}

TEST(HttpServerTest, DefaultHeaderApplied) {
  auto server = StartHttpServer(0, [](const HttpRequest& request) {
    return HttpResponse::Ok(request.headers.Get("X-Session"));
  });
  ASSERT_TRUE(server.ok());
  HttpClient client("127.0.0.1", (*server)->port());
  client.SetDefaultHeader("X-Session", "token-123");
  auto response = client.Get("/");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body, "token-123");
}

// Connected sockets that never send a request must not hold up anyone
// else's request, however many there are.
TEST(HttpServerTest, IdleConnectionsDoNotStallRequests) {
  auto server = StartHttpServer(0, [](const HttpRequest&) {
    return HttpResponse::Ok("ok");
  });
  ASSERT_TRUE(server.ok());
  std::vector<std::unique_ptr<TcpConnection>> idle;
  for (int i = 0; i < 16; ++i) {
    auto conn = TcpConnection::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(conn.ok());
    idle.push_back(std::move(conn).value());
  }
  HttpClient client("127.0.0.1", (*server)->port());
  Steady::time_point start = Steady::now();
  auto response = client.Get("/");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->body, "ok");
  EXPECT_LT(MillisSince(start), 1000);
}

TEST(HttpServerTest, FailedAcceptDoesNotStopServer) {
  DisarmFailPoints disarm;
  auto server = StartHttpServer(0, [](const HttpRequest&) {
    return HttpResponse::Ok("ok");
  });
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(fault::FailPointRegistry::Get()
                  ->SetFromString("net.tcp.accept", "error")
                  .ok());
  auto dropped = TcpConnection::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(dropped.ok());
  EXPECT_TRUE(ClosedByServer(dropped->get()));
  fault::FailPointRegistry::Get()->ClearAll();

  HttpClient client("127.0.0.1", (*server)->port());
  Steady::time_point start = Steady::now();
  auto response = client.Get("/");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_LT(MillisSince(start), 1000);
}

TEST(HttpServerTest, StopWithIdleClientIsBounded) {
  auto server = StartHttpServer(0, [](const HttpRequest&) {
    return HttpResponse::Ok("ok");
  });
  ASSERT_TRUE(server.ok());
  // One keep-alive exchange, after which the connection sits idle in its
  // session.
  auto conn = TcpConnection::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  HttpRequest request;
  request.method = "GET";
  request.path = "/";
  ASSERT_TRUE((*conn)->WriteAll(SerializeRequest(request)).ok());
  auto response = ReadResponse(conn->get());
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->headers.Get("Connection"), "keep-alive");
  EXPECT_TRUE(StopsWithin(&*server, 1000));
}

TEST(HttpServerTest, StopIsIdempotent) {
  auto server = StartHttpServer(0, [](const HttpRequest&) {
    return HttpResponse::Ok("x");
  });
  ASSERT_TRUE(server.ok());
  (*server)->Stop();
  (*server)->Stop();
  SUCCEED();
}

// --- Router ---

// Builds a request from moved-in strings. Assigning a short literal into a
// default-constructed request's path trips a GCC 12 -O2
// -Wmaybe-uninitialized false positive in std::string's SSO copy.
HttpRequest MakeRequest(std::string method, std::string path) {
  HttpRequest request;
  request.method = std::move(method);
  request.path = std::move(path);
  return request;
}

TEST(RouterTest, LiteralAndCaptureRouting) {
  Router router;
  router.Get("/api/v1/jobs", [](const HttpRequest&) {
    return HttpResponse::Ok("list");
  });
  router.Get("/api/v1/jobs/{id}", [](const HttpRequest& request) {
    return HttpResponse::Ok("job:" + request.path_params.at("id"));
  });
  router.Post("/api/v1/jobs/{id}/abort", [](const HttpRequest& request) {
    return HttpResponse::Ok("abort:" + request.path_params.at("id"));
  });

  HttpRequest request;
  request.method = "GET";
  request.path = "/api/v1/jobs";
  EXPECT_EQ(router.Dispatch(request).body, "list");

  request.path = "/api/v1/jobs/42";
  EXPECT_EQ(router.Dispatch(request).body, "job:42");

  request.method = "POST";
  request.path = "/api/v1/jobs/42/abort";
  EXPECT_EQ(router.Dispatch(request).body, "abort:42");
}

TEST(RouterTest, UnknownPathIs404) {
  Router router;
  router.Get("/a", [](const HttpRequest&) { return HttpResponse::Ok(""); });
  HttpRequest request;
  request.method = "GET";
  request.path = "/zzz";
  EXPECT_EQ(router.Dispatch(request).status_code, 404);
}

TEST(RouterTest, WrongMethodIs405) {
  Router router;
  router.Get("/a", [](const HttpRequest&) { return HttpResponse::Ok(""); });
  EXPECT_EQ(router.Dispatch(MakeRequest("DELETE", "/a")).status_code, 405);
}

TEST(RouterTest, LiteralBeatsCapture) {
  Router router;
  router.Get("/jobs/{id}", [](const HttpRequest&) {
    return HttpResponse::Ok("capture");
  });
  router.Get("/jobs/latest", [](const HttpRequest&) {
    return HttpResponse::Ok("literal");
  });
  HttpRequest request;
  request.method = "GET";
  request.path = "/jobs/latest";
  EXPECT_EQ(router.Dispatch(request).body, "literal");
  request.path = "/jobs/7";
  EXPECT_EQ(router.Dispatch(request).body, "capture");
}

TEST(RouterTest, TrailingSlashEquivalent) {
  Router router;
  router.Get("/a/b", [](const HttpRequest&) { return HttpResponse::Ok("x"); });
  HttpRequest request;
  request.method = "GET";
  request.path = "/a/b/";
  EXPECT_EQ(router.Dispatch(request).status_code, 200);
}

// --- Connection-serving core ---

// Echoes lines until EOF.
void EchoLines(TcpConnection* conn) {
  while (true) {
    auto line = conn->ReadLine();
    if (!line.ok() || line->empty()) return;
    if (!conn->WriteAll(*line).ok()) return;
  }
}

bool Echoes(TcpConnection* conn, const std::string& text) {
  if (!conn->WriteAll(text + "\n").ok()) return false;
  auto reply = conn->ReadLine();
  return reply.ok() && *reply == text + "\n";
}

StatusOr<std::unique_ptr<TcpConnection>> ConnectEcho(int port) {
  CHRONOS_ASSIGN_OR_RETURN(std::unique_ptr<TcpConnection> conn,
                           TcpConnection::Connect("127.0.0.1", port));
  CHRONOS_RETURN_IF_ERROR(conn->SetReadTimeoutMs(5000));
  return conn;
}

TEST(ConnectionServerTest, FailedAcceptIsCountedAndAcceptingGoesOn) {
  DisarmFailPoints disarm;
  auto server = ConnectionServer::Start(0, "test-accept-error", EchoLines);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(fault::FailPointRegistry::Get()
                  ->SetFromString("net.tcp.accept", "error")
                  .ok());
  auto dropped = TcpConnection::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(dropped.ok());
  EXPECT_TRUE(ClosedByServer(dropped->get()));
  fault::FailPointRegistry::Get()->ClearAll();

  auto conn = ConnectEcho((*server)->port());
  ASSERT_TRUE(conn.ok());
  Steady::time_point start = Steady::now();
  EXPECT_TRUE(Echoes(conn->get(), "still accepting"));
  EXPECT_LT(MillisSince(start), 1000);
  // The loop counts the failure before its next accept.
  EXPECT_EQ((*server)->stats().accept_errors, 1u);
  EXPECT_EQ((*server)->stats().live, 1);
}

// Holds kMaxConnections live sessions (one thread each) at once.
TEST(ConnectionServerTest, ShedsPastTheCapAndServesTheRest) {
  auto server = ConnectionServer::Start(0, "test-shed", EchoLines);
  ASSERT_TRUE(server.ok());
  std::vector<std::unique_ptr<TcpConnection>> clients;
  const int64_t kCap = ConnectionServer::kMaxConnections;
  for (int64_t i = 0; i < kCap; ++i) {
    auto conn = ConnectEcho((*server)->port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(Echoes(conn->get(), "hello"));
    clients.push_back(std::move(conn).value());
  }
  EXPECT_EQ((*server)->stats().live, kCap);

  auto extra = TcpConnection::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(extra.ok());
  EXPECT_TRUE(ClosedByServer(extra->get()));
  EXPECT_EQ((*server)->stats().shed, 1u);

  for (auto& conn : clients) EXPECT_TRUE(Echoes(conn.get(), "again"));
  EXPECT_EQ((*server)->stats().live, kCap);
}

TEST(ConnectionServerTest, StopWakesIdleSessions) {
  // EchoLines sets no read timeout: only Stop() can end these sessions.
  auto server = ConnectionServer::Start(0, "test-stop", EchoLines);
  ASSERT_TRUE(server.ok());
  std::vector<std::unique_ptr<TcpConnection>> clients;
  for (int i = 0; i < 4; ++i) {
    auto conn = ConnectEcho((*server)->port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(Echoes(conn->get(), "hello"));
    clients.push_back(std::move(conn).value());
  }
  EXPECT_EQ((*server)->stats().live, 4);
  ASSERT_TRUE(StopsWithin(&*server, 1000));
  EXPECT_EQ((*server)->stats().live, 0);
  for (auto& conn : clients) EXPECT_TRUE(ClosedByServer(conn.get()));
  (*server)->Stop();  // Idempotent.
}

TEST(ConnectionServerTest, StopLetsASessionWriteItsReply) {
  auto server = ConnectionServer::Start(
      0, "test-stop-reply", [](TcpConnection* conn) {
        auto request = conn->ReadLine();
        if (!request.ok() || request->empty()) return;
        if (!conn->WriteAll("working\n").ok()) return;
        // Blocks until Stop() shuts the read side, then answers.
        auto eof = conn->ReadLine();
        if (eof.ok() && eof->empty()) {
          conn->WriteAll("done: " + *request).IgnoreError();
        }
      });
  ASSERT_TRUE(server.ok());
  auto conn = ConnectEcho((*server)->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE((*conn)->WriteAll("job\n").ok());
  auto working = (*conn)->ReadLine();
  ASSERT_TRUE(working.ok());
  ASSERT_EQ(*working, "working\n");
  ASSERT_TRUE(StopsWithin(&*server, 1000));
  auto reply = (*conn)->ReadLine();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, "done: job\n");
}

// --- FTP ---

TEST(FtpTest, LoginStoreRetrieveList) {
  auto server = FtpServer::Start(0, "chronos", "secret");
  ASSERT_TRUE(server.ok());

  auto client = FtpClient::Connect("127.0.0.1", (*server)->port(), "chronos",
                                   "secret");
  ASSERT_TRUE(client.ok()) << client.status();

  ASSERT_TRUE((*client)->Store("result-1.zip", "zip-bytes").ok());
  ASSERT_TRUE((*client)->Store("result-2.zip", "more-bytes").ok());

  auto fetched = (*client)->Retrieve("result-1.zip");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, "zip-bytes");

  auto listing = (*client)->List();
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 2u);

  EXPECT_TRUE((*client)->Quit().ok());
  EXPECT_EQ((*server)->file_count(), 2u);
  EXPECT_EQ(*(*server)->GetFile("result-2.zip"), "more-bytes");
}

TEST(FtpTest, BadPasswordRejected) {
  auto server = FtpServer::Start(0, "user", "right");
  ASSERT_TRUE(server.ok());
  auto client = FtpClient::Connect("127.0.0.1", (*server)->port(), "user",
                                   "wrong");
  EXPECT_FALSE(client.ok());
}

TEST(FtpTest, RetrieveMissingIsNotFound) {
  auto server = FtpServer::Start(0, "u", "p");
  ASSERT_TRUE(server.ok());
  auto client = FtpClient::Connect("127.0.0.1", (*server)->port(), "u", "p");
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Retrieve("nope").status().IsNotFound());
}

TEST(FtpTest, DeleteRemovesFile) {
  auto server = FtpServer::Start(0, "u", "p");
  ASSERT_TRUE(server.ok());
  auto client = FtpClient::Connect("127.0.0.1", (*server)->port(), "u", "p");
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Store("f", "x").ok());
  ASSERT_TRUE((*client)->Delete("f").ok());
  EXPECT_TRUE((*client)->Delete("f").IsNotFound());
  EXPECT_EQ((*server)->file_count(), 0u);
}

TEST(FtpTest, LargePayloadRoundTrip) {
  auto server = FtpServer::Start(0, "u", "p");
  ASSERT_TRUE(server.ok());
  auto client = FtpClient::Connect("127.0.0.1", (*server)->port(), "u", "p");
  ASSERT_TRUE(client.ok());
  std::string big(1024 * 1024, 'Z');
  ASSERT_TRUE((*client)->Store("big", big).ok());
  auto fetched = (*client)->Retrieve("big");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->size(), big.size());
  EXPECT_EQ(*fetched, big);
}

TEST(FtpTest, StopWithIdleClientIsBounded) {
  auto server = FtpServer::Start(0, "u", "p");
  ASSERT_TRUE(server.ok());
  auto client = FtpClient::Connect("127.0.0.1", (*server)->port(), "u", "p");
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(StopsWithin(&*server, 1000));
}

// A peer that asks for a transfer and never opens the data connection.
TEST(FtpTest, UnopenedDataConnectionIsBounded) {
  auto server = FtpServer::Start(0, "u", "p");
  ASSERT_TRUE(server.ok());
  auto conn = TcpConnection::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE((*conn)->SetReadTimeoutMs(5000).ok());
  auto expect_reply = [&conn](const std::string& code) {
    auto line = (*conn)->ReadLine();
    ASSERT_TRUE(line.ok()) << line.status();
    EXPECT_EQ(line->substr(0, 3), code) << *line;
  };
  expect_reply("220");
  ASSERT_TRUE((*conn)->WriteAll("USER u\r\nPASS p\r\nPASV\r\n").ok());
  expect_reply("331");
  expect_reply("230");
  expect_reply("227");
  ASSERT_TRUE((*conn)->WriteAll("STOR never\r\n").ok());
  expect_reply("150");
  // The data accept waits at most 2 s; Stop() waits for it.
  EXPECT_TRUE(StopsWithin(&*server, 3000));
  expect_reply("425");
}

}  // namespace
}  // namespace chronos::net
