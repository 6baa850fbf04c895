#include "net/http.h"

#include "common/logging.h"
#include "common/strings.h"
#include "fault/failpoint.h"

namespace chronos::net {

namespace {

constexpr size_t kMaxHeaderBytes = 64 * 1024;

// Reads the "METHOD /path HTTP/1.1" or "HTTP/1.1 200 OK" start line plus
// headers; leaves the body unread.
Status ReadHeaderBlock(TcpConnection* conn, std::string* start_line,
                       HeaderMap* headers) {
  CHRONOS_ASSIGN_OR_RETURN(std::string line, conn->ReadLine(kMaxHeaderBytes));
  if (line.empty()) return Status::Unavailable("connection closed");
  *start_line = std::string(strings::Trim(line));
  if (start_line->empty()) return Status::InvalidArgument("empty start line");

  size_t total = line.size();
  while (true) {
    CHRONOS_ASSIGN_OR_RETURN(line, conn->ReadLine(kMaxHeaderBytes));
    total += line.size();
    if (total > kMaxHeaderBytes) {
      return Status::InvalidArgument("header block too large");
    }
    std::string_view trimmed = strings::Trim(line);
    if (trimmed.empty()) {
      if (line.empty()) return Status::IoError("connection closed in headers");
      return Status::Ok();  // Blank line terminates headers.
    }
    size_t colon = trimmed.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("malformed header line");
    }
    headers->Set(strings::Trim(trimmed.substr(0, colon)),
                 strings::Trim(trimmed.substr(colon + 1)));
  }
}

StatusOr<std::string> ReadBody(TcpConnection* conn, const HeaderMap& headers,
                               size_t max_body) {
  std::string length_str = headers.Get("Content-Length");
  if (length_str.empty()) return std::string();
  uint64_t length = 0;
  if (!strings::ParseUint64(length_str, &length)) {
    return Status::InvalidArgument("bad Content-Length");
  }
  if (length > max_body) {
    return Status::ResourceExhausted("body exceeds limit");
  }
  return conn->ReadExactly(length);
}

}  // namespace

void HeaderMap::Set(std::string_view name, std::string_view value) {
  entries_[strings::ToLower(name)] = std::string(value);
}

std::string HeaderMap::Get(std::string_view name) const {
  auto it = entries_.find(strings::ToLower(name));
  return it == entries_.end() ? std::string() : it->second;
}

bool HeaderMap::Has(std::string_view name) const {
  return entries_.count(strings::ToLower(name)) > 0;
}

std::map<std::string, std::string> HttpRequest::QueryParams() const {
  std::map<std::string, std::string> params;
  for (const std::string& pair : strings::Split(query, '&', true)) {
    size_t eq = pair.find('=');
    std::string key, value;
    if (eq == std::string::npos) {
      strings::UrlDecode(pair, &key);
    } else {
      strings::UrlDecode(pair.substr(0, eq), &key);
      strings::UrlDecode(pair.substr(eq + 1), &value);
    }
    if (!key.empty()) params[key] = value;
  }
  return params;
}

StatusOr<json::Json> HttpRequest::JsonBody() const {
  if (body.empty()) return Status::InvalidArgument("empty request body");
  return json::Parse(body);
}

std::string_view HttpStatusText(int code) {
  switch (code) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 412: return "Precondition Failed";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

HttpResponse HttpResponse::Ok(std::string body, std::string content_type) {
  HttpResponse response;
  response.status_code = 200;
  response.headers.Set("Content-Type", content_type);
  response.body = std::move(body);
  return response;
}

HttpResponse HttpResponse::Json(const json::Json& value, int status_code) {
  HttpResponse response;
  response.status_code = status_code;
  response.headers.Set("Content-Type", "application/json");
  response.body = value.Dump();
  return response;
}

HttpResponse HttpResponse::Error(int status_code, const std::string& message) {
  json::Json body = json::Json::MakeObject();
  body.Set("error", message);
  body.Set("status", status_code);
  return Json(body, status_code);
}

HttpResponse HttpResponse::FromStatus(const Status& status) {
  int code = 500;
  switch (status.code()) {
    case StatusCode::kInvalidArgument: code = 400; break;
    case StatusCode::kUnauthenticated: code = 401; break;
    case StatusCode::kPermissionDenied: code = 403; break;
    case StatusCode::kNotFound: code = 404; break;
    case StatusCode::kAlreadyExists: code = 409; break;
    case StatusCode::kFailedPrecondition: code = 412; break;
    case StatusCode::kResourceExhausted: code = 429; break;
    case StatusCode::kUnavailable: code = 503; break;
    case StatusCode::kUnimplemented: code = 501; break;
    default: code = 500; break;
  }
  return Error(code, status.ToString());
}

std::string SerializeRequest(const HttpRequest& request) {
  std::string out = request.method + " " + request.path;
  if (!request.query.empty()) out += "?" + request.query;
  out += " HTTP/1.1\r\n";
  bool has_length = false;
  for (const auto& [name, value] : request.headers.entries()) {
    out += name + ": " + value + "\r\n";
    if (strings::EqualsIgnoreCase(name, "content-length")) has_length = true;
  }
  if (!has_length) {
    out += "content-length: " + std::to_string(request.body.size()) + "\r\n";
  }
  out += "\r\n";
  out += request.body;
  return out;
}

std::string SerializeResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status_code) + " " +
                    std::string(HttpStatusText(response.status_code)) +
                    "\r\n";
  bool has_length = false;
  for (const auto& [name, value] : response.headers.entries()) {
    out += name + ": " + value + "\r\n";
    if (strings::EqualsIgnoreCase(name, "content-length")) has_length = true;
  }
  if (!has_length) {
    out += "content-length: " + std::to_string(response.body.size()) + "\r\n";
  }
  out += "\r\n";
  out += response.body;
  return out;
}

StatusOr<HttpRequest> ReadRequest(TcpConnection* conn, size_t max_body) {
  std::string start_line;
  HttpRequest request;
  CHRONOS_RETURN_IF_ERROR(ReadHeaderBlock(conn, &start_line, &request.headers));

  std::vector<std::string> parts = strings::Split(start_line, ' ', true);
  if (parts.size() != 3 || !strings::StartsWith(parts[2], "HTTP/")) {
    return Status::InvalidArgument("malformed request line: " + start_line);
  }
  request.method = strings::ToUpper(parts[0]);
  for (char c : request.method) {
    if (c < 'A' || c > 'Z') {
      return Status::InvalidArgument("malformed method: " + parts[0]);
    }
  }
  std::string target = parts[1];
  size_t qmark = target.find('?');
  std::string raw_path =
      qmark == std::string::npos ? target : target.substr(0, qmark);
  if (qmark != std::string::npos) request.query = target.substr(qmark + 1);
  if (!strings::UrlDecode(raw_path, &request.path)) {
    return Status::InvalidArgument("malformed path encoding");
  }
  CHRONOS_ASSIGN_OR_RETURN(request.body,
                           ReadBody(conn, request.headers, max_body));
  return request;
}

StatusOr<HttpResponse> ReadResponse(TcpConnection* conn, size_t max_body) {
  std::string start_line;
  HttpResponse response;
  CHRONOS_RETURN_IF_ERROR(
      ReadHeaderBlock(conn, &start_line, &response.headers));

  std::vector<std::string> parts = strings::Split(start_line, ' ', true);
  if (parts.size() < 2 || !strings::StartsWith(parts[0], "HTTP/")) {
    return Status::InvalidArgument("malformed status line: " + start_line);
  }
  uint64_t code = 0;
  if (!strings::ParseUint64(parts[1], &code) || code < 100 || code > 599) {
    return Status::InvalidArgument("bad status code");
  }
  response.status_code = static_cast<int>(code);
  CHRONOS_ASSIGN_OR_RETURN(response.body,
                           ReadBody(conn, response.headers, max_body));
  return response;
}

namespace {

// One connection's keep-alive request loop.
void ServeHttp(TcpConnection* conn, const HttpHandler& handler) {
  conn->SetReadTimeoutMs(30000).IgnoreError();
  while (true) {
    auto request = ReadRequest(conn);
    if (!request.ok()) {
      // Send a 400 for parse errors on a live connection; just close on EOF.
      if (request.status().IsInvalidArgument()) {
        HttpResponse response =
            HttpResponse::Error(400, request.status().ToString());
        response.headers.Set("Connection", "close");
        conn->WriteAll(SerializeResponse(response)).IgnoreError();
      }
      return;
    }
    HttpResponse response = handler(*request);
    bool close = strings::EqualsIgnoreCase(
        request->headers.Get("Connection"), "close");
    response.headers.Set("Connection", close ? "close" : "keep-alive");
    if (!conn->WriteAll(SerializeResponse(response)).ok()) return;
    if (close) return;
  }
}

}  // namespace

StatusOr<std::unique_ptr<ConnectionServer>> StartHttpServer(
    int port, HttpHandler handler) {
  return ConnectionServer::Start(
      port, "http", [handler = std::move(handler)](TcpConnection* conn) {
        ServeHttp(conn, handler);
      });
}

StatusOr<HttpResponse> HttpClient::Get(const std::string& path) {
  HttpRequest request;
  request.method = "GET";
  request.path = path;
  return Send(std::move(request));
}

StatusOr<HttpResponse> HttpClient::Post(const std::string& path,
                                        std::string body,
                                        std::string content_type) {
  HttpRequest request;
  request.method = "POST";
  request.path = path;
  request.body = std::move(body);
  request.headers.Set("Content-Type", content_type);
  return Send(std::move(request));
}

StatusOr<HttpResponse> HttpClient::Put(const std::string& path,
                                       std::string body,
                                       std::string content_type) {
  HttpRequest request;
  request.method = "PUT";
  request.path = path;
  request.body = std::move(body);
  request.headers.Set("Content-Type", content_type);
  return Send(std::move(request));
}

StatusOr<HttpResponse> HttpClient::Delete(const std::string& path) {
  HttpRequest request;
  request.method = "DELETE";
  request.path = path;
  return Send(std::move(request));
}

StatusOr<HttpResponse> HttpClient::Send(HttpRequest request) {
  if (!failpoint_.empty()) {
    fault::Action fault =
        fault::FailPointRegistry::Get()->Evaluate(failpoint_);
    if (fault.kind != fault::Action::Kind::kNone) {
      // No connection exists yet at request granularity; kClose and kError
      // both surface as a failed request.
      return fault.status;
    }
  }
  // Split path?query if the caller passed a combined target.
  size_t qmark = request.path.find('?');
  if (qmark != std::string::npos && request.query.empty()) {
    request.query = request.path.substr(qmark + 1);
    request.path = request.path.substr(0, qmark);
  }
  request.headers.Set("Host", host_ + ":" + std::to_string(port_));
  request.headers.Set("Connection", "close");
  for (const auto& [name, value] : default_headers_) {
    request.headers.Set(name, value);
  }
  CHRONOS_ASSIGN_OR_RETURN(std::unique_ptr<TcpConnection> conn,
                           TcpConnection::Connect(host_, port_));
  CHRONOS_RETURN_IF_ERROR(conn->SetReadTimeoutMs(30000));
  CHRONOS_RETURN_IF_ERROR(conn->WriteAll(SerializeRequest(request)));
  return ReadResponse(conn.get());
}

void HttpClient::SetDefaultHeader(const std::string& name,
                                  const std::string& value) {
  for (auto& [existing_name, existing_value] : default_headers_) {
    if (strings::EqualsIgnoreCase(existing_name, name)) {
      existing_value = value;
      return;
    }
  }
  default_headers_.emplace_back(name, value);
}

}  // namespace chronos::net
