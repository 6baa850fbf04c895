#ifndef CHRONOS_NET_HTTP_H_
#define CHRONOS_NET_HTTP_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "json/json.h"
#include "net/connection_server.h"
#include "net/tcp.h"

namespace chronos::net {

// Case-insensitive header map (HTTP header names are case-insensitive).
class HeaderMap {
 public:
  void Set(std::string_view name, std::string_view value);
  // Returns empty string if absent.
  std::string Get(std::string_view name) const;
  bool Has(std::string_view name) const;
  const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::string> entries_;  // Keys stored lowercase.
};

struct HttpRequest {
  std::string method;   // "GET", "POST", ...
  std::string path;     // Decoded path, no query string.
  std::string query;    // Raw query string (without '?').
  HeaderMap headers;
  std::string body;

  // Path parameters extracted by the router, e.g. {id} -> "42".
  std::map<std::string, std::string> path_params;

  // Parsed query parameters (URL-decoded).
  std::map<std::string, std::string> QueryParams() const;

  // Parses the body as JSON.
  StatusOr<json::Json> JsonBody() const;
};

struct HttpResponse {
  int status_code = 200;
  HeaderMap headers;
  std::string body;

  static HttpResponse Ok(std::string body, std::string content_type = "text/plain");
  static HttpResponse Json(const json::Json& value, int status_code = 200);
  static HttpResponse Error(int status_code, const std::string& message);
  // Maps a Status to an HTTP error response with a JSON error body.
  static HttpResponse FromStatus(const Status& status);
};

std::string_view HttpStatusText(int code);

// --- Wire-level serialization (exposed for tests) ---

// Serializes a request/response as HTTP/1.1 with Content-Length framing.
std::string SerializeRequest(const HttpRequest& request);
std::string SerializeResponse(const HttpResponse& response);

// Reads one message from a connection. Enforces size limits.
StatusOr<HttpRequest> ReadRequest(TcpConnection* conn,
                                  size_t max_body = 64 * 1024 * 1024);
StatusOr<HttpResponse> ReadResponse(TcpConnection* conn,
                                    size_t max_body = 64 * 1024 * 1024);

// --- Server ---

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

// Serves HTTP/1.1 with keep-alive on 127.0.0.1:port (0 = ephemeral), one
// thread per connection (see ConnectionServer). An idle connection is closed
// after 30 s. Metrics carry the label server="http".
StatusOr<std::unique_ptr<ConnectionServer>> StartHttpServer(
    int port, HttpHandler handler);

// --- Client ---

// Simple HTTP/1.1 client; one connection per request (Connection: close).
class HttpClient {
 public:
  HttpClient(std::string host, int port) : host_(std::move(host)), port_(port) {}

  StatusOr<HttpResponse> Get(const std::string& path);
  StatusOr<HttpResponse> Post(const std::string& path, std::string body,
                              std::string content_type = "application/json");
  StatusOr<HttpResponse> Put(const std::string& path, std::string body,
                             std::string content_type = "application/json");
  StatusOr<HttpResponse> Delete(const std::string& path);

  StatusOr<HttpResponse> Send(HttpRequest request);

  // Extra header applied to every request (e.g. the session token).
  void SetDefaultHeader(const std::string& name, const std::string& value);

  // Names a failpoint evaluated at the top of every Send() — fault
  // injection per *client* rather than per socket, so chaos tests can fail
  // one agent's transport without touching other traffic in the process
  // (the agent arms "agent.http.send" here). Empty disables the hook.
  void SetFailPoint(std::string point) { failpoint_ = std::move(point); }

  const std::string& host() const { return host_; }
  int port() const { return port_; }

 private:
  std::string host_;
  int port_;
  std::string failpoint_;
  std::vector<std::pair<std::string, std::string>> default_headers_;
};

}  // namespace chronos::net

#endif  // CHRONOS_NET_HTTP_H_
