#include "sue/mokkadb/wire.h"

#include "common/strings.h"

namespace chronos::mokka {

namespace {

json::Json ErrorResponse(const Status& status) {
  json::Json out = json::Json::MakeObject();
  out.Set("ok", false);
  out.Set("error", status.ToString());
  out.Set("code", std::string(StatusCodeToString(status.code())));
  return out;
}

json::Json OkResponse() {
  json::Json out = json::Json::MakeObject();
  out.Set("ok", true);
  return out;
}

Status StatusFromResponse(const json::Json& response) {
  if (response.GetBoolOr("ok", false)) return Status::Ok();
  std::string code = response.GetStringOr("code", "INTERNAL");
  std::string message = response.GetStringOr("error", "wire error");
  if (code == "NOT_FOUND") return Status::NotFound(message);
  if (code == "ALREADY_EXISTS") return Status::AlreadyExists(message);
  if (code == "INVALID_ARGUMENT") return Status::InvalidArgument(message);
  return Status::Internal(message);
}

}  // namespace

json::Json HandleWireRequest(Database* db, const json::Json& request) {
  std::string op = request.GetStringOr("op", "");
  if (op == "ping") {
    return OkResponse();
  }
  if (op == "list_collections") {
    json::Json out = OkResponse();
    json::Json names = json::Json::MakeArray();
    for (const std::string& name : db->CollectionNames()) names.Append(name);
    out.Set("collections", std::move(names));
    return out;
  }
  if (op == "stats") {
    json::Json out = OkResponse();
    out.Set("stats", db->Stats());
    return out;
  }

  std::string coll_name = request.GetStringOr("coll", "");
  if (op == "create_collection") {
    auto created = db->CreateCollection(
        coll_name, request.GetStringOr("engine", ""), request.at("options"));
    if (!created.ok()) return ErrorResponse(created.status());
    return OkResponse();
  }
  if (op == "drop") {
    Status status = db->Drop(coll_name);
    if (!status.ok()) return ErrorResponse(status);
    return OkResponse();
  }

  auto coll = db->GetOrCreate(coll_name);
  if (!coll.ok()) return ErrorResponse(coll.status());
  Collection* collection = *coll;

  if (op == "insert") {
    auto id = collection->InsertOne(request.at("doc"));
    if (!id.ok()) return ErrorResponse(id.status());
    json::Json out = OkResponse();
    out.Set("id", *id);
    return out;
  }
  if (op == "get") {
    auto doc = collection->FindById(request.GetStringOr("id", ""));
    if (!doc.ok()) return ErrorResponse(doc.status());
    json::Json out = OkResponse();
    out.Set("doc", std::move(doc).value());
    return out;
  }
  if (op == "find" || op == "find_one") {
    FindOptions options;
    options.limit = op == "find_one"
                        ? 1
                        : static_cast<uint64_t>(request.GetIntOr("limit", 0));
    // Optional sort {"field": 1|-1} and projection ["a","b"].
    if (request.at("sort").is_object() && request.at("sort").size() == 1) {
      for (const auto& [field, direction] : request.at("sort").as_object()) {
        options.sort_field = field;
        options.sort_descending = direction.as_int() < 0;
      }
    }
    for (const json::Json& field : request.at("projection").as_array()) {
      if (field.is_string()) options.projection.push_back(field.as_string());
    }
    auto docs = collection->FindWithOptions(request.at("filter"), options);
    if (!docs.ok()) return ErrorResponse(docs.status());
    json::Json out = OkResponse();
    json::Json array = json::Json::MakeArray();
    for (json::Json& doc : *docs) array.Append(std::move(doc));
    out.Set("docs", std::move(array));
    return out;
  }
  if (op == "aggregate") {
    AggregationSpec spec;
    spec.group_by = request.GetStringOr("group_by", "");
    for (const auto& [name, accumulator] :
         request.at("accumulators").as_object()) {
      spec.accumulators[name] = AggregationSpec::Accumulator{
          accumulator.GetStringOr("op", ""),
          accumulator.GetStringOr("field", "")};
    }
    auto results = collection->Aggregate(request.at("filter"), spec);
    if (!results.ok()) return ErrorResponse(results.status());
    json::Json out = OkResponse();
    json::Json array = json::Json::MakeArray();
    for (json::Json& result : *results) array.Append(std::move(result));
    out.Set("groups", std::move(array));
    return out;
  }
  if (op == "create_index") {
    Status status = collection->CreateIndex(request.GetStringOr("field", ""));
    if (!status.ok()) return ErrorResponse(status);
    return OkResponse();
  }
  if (op == "drop_index") {
    Status status = collection->DropIndex(request.GetStringOr("field", ""));
    if (!status.ok()) return ErrorResponse(status);
    return OkResponse();
  }
  if (op == "list_indexes") {
    json::Json out = OkResponse();
    json::Json fields = json::Json::MakeArray();
    for (const std::string& field : collection->IndexedFields()) {
      fields.Append(field);
    }
    out.Set("fields", std::move(fields));
    return out;
  }
  if (op == "update_one" || op == "update_many") {
    auto n = op == "update_one"
                 ? collection->UpdateOne(request.at("filter"),
                                         request.at("update"))
                 : collection->UpdateMany(request.at("filter"),
                                          request.at("update"));
    if (!n.ok()) return ErrorResponse(n.status());
    json::Json out = OkResponse();
    out.Set("n", static_cast<int64_t>(*n));
    return out;
  }
  if (op == "delete_one") {
    auto n = collection->DeleteOne(request.at("filter"));
    if (!n.ok()) return ErrorResponse(n.status());
    json::Json out = OkResponse();
    out.Set("n", static_cast<int64_t>(*n));
    return out;
  }
  if (op == "count") {
    auto n = collection->CountDocuments(request.at("filter"));
    if (!n.ok()) return ErrorResponse(n.status());
    json::Json out = OkResponse();
    out.Set("n", *n);
    return out;
  }
  if (op == "scan") {
    std::vector<json::Json> docs = collection->ScanRange(
        request.GetStringOr("from", ""),
        static_cast<uint64_t>(request.GetIntOr("limit", 0)));
    json::Json out = OkResponse();
    json::Json array = json::Json::MakeArray();
    for (json::Json& doc : docs) array.Append(std::move(doc));
    out.Set("docs", std::move(array));
    return out;
  }
  return ErrorResponse(Status::InvalidArgument("unknown op: " + op));
}

namespace {

// One client connection's request loop.
void ServeWire(Database* db, net::TcpConnection* conn) {
  conn->SetReadTimeoutMs(60000).IgnoreError();
  while (true) {
    auto line = conn->ReadLine(16 * 1024 * 1024);
    if (!line.ok() || line->empty()) return;
    json::Json response;
    auto request = json::Parse(*line);
    if (!request.ok()) {
      response = ErrorResponse(request.status());
    } else {
      response = HandleWireRequest(db, *request);
    }
    if (!conn->WriteAll(response.Dump() + "\n").ok()) return;
  }
}

}  // namespace

StatusOr<std::unique_ptr<net::ConnectionServer>> StartWireServer(
    Database* db, int port) {
  return net::ConnectionServer::Start(
      port, "mokka",
      [db](net::TcpConnection* conn) { ServeWire(db, conn); });
}

WireClient::~WireClient() = default;

StatusOr<std::unique_ptr<WireClient>> WireClient::Connect(
    const std::string& host, int port) {
  CHRONOS_ASSIGN_OR_RETURN(std::unique_ptr<net::TcpConnection> conn,
                           net::TcpConnection::Connect(host, port));
  CHRONOS_RETURN_IF_ERROR(conn->SetReadTimeoutMs(60000));
  return std::unique_ptr<WireClient>(new WireClient(std::move(conn)));
}

StatusOr<std::unique_ptr<WireClient>> WireClient::ConnectEndpoint(
    const std::string& endpoint) {
  size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("endpoint must be host:port");
  }
  uint64_t port = 0;
  if (!strings::ParseUint64(endpoint.substr(colon + 1), &port)) {
    return Status::InvalidArgument("bad endpoint port: " + endpoint);
  }
  return Connect(endpoint.substr(0, colon), static_cast<int>(port));
}

StatusOr<json::Json> WireClient::Call(const json::Json& request) {
  CHRONOS_RETURN_IF_ERROR(conn_->WriteAll(request.Dump() + "\n"));
  CHRONOS_ASSIGN_OR_RETURN(std::string line,
                           conn_->ReadLine(16 * 1024 * 1024));
  if (line.empty()) return Status::Unavailable("server closed connection");
  return json::Parse(line);
}

Status WireClient::Ping() {
  json::Json request = json::Json::MakeObject();
  request.Set("op", "ping");
  CHRONOS_ASSIGN_OR_RETURN(json::Json response, Call(request));
  return StatusFromResponse(response);
}

Status WireClient::CreateCollection(const std::string& coll,
                                    const std::string& engine,
                                    const json::Json& engine_options) {
  json::Json request = json::Json::MakeObject();
  request.Set("op", "create_collection");
  request.Set("coll", coll);
  request.Set("engine", engine);
  if (!engine_options.is_null()) request.Set("options", engine_options);
  CHRONOS_ASSIGN_OR_RETURN(json::Json response, Call(request));
  return StatusFromResponse(response);
}

Status WireClient::Drop(const std::string& coll) {
  json::Json request = json::Json::MakeObject();
  request.Set("op", "drop");
  request.Set("coll", coll);
  CHRONOS_ASSIGN_OR_RETURN(json::Json response, Call(request));
  return StatusFromResponse(response);
}

StatusOr<std::string> WireClient::Insert(const std::string& coll,
                                         json::Json doc) {
  json::Json request = json::Json::MakeObject();
  request.Set("op", "insert");
  request.Set("coll", coll);
  request.Set("doc", std::move(doc));
  CHRONOS_ASSIGN_OR_RETURN(json::Json response, Call(request));
  CHRONOS_RETURN_IF_ERROR(StatusFromResponse(response));
  return response.GetStringOr("id", "");
}

StatusOr<json::Json> WireClient::Get(const std::string& coll,
                                     const std::string& id) {
  json::Json request = json::Json::MakeObject();
  request.Set("op", "get");
  request.Set("coll", coll);
  request.Set("id", id);
  CHRONOS_ASSIGN_OR_RETURN(json::Json response, Call(request));
  CHRONOS_RETURN_IF_ERROR(StatusFromResponse(response));
  return response.at("doc");
}

StatusOr<std::vector<json::Json>> WireClient::Find(const std::string& coll,
                                                   const json::Json& filter,
                                                   uint64_t limit) {
  json::Json request = json::Json::MakeObject();
  request.Set("op", "find");
  request.Set("coll", coll);
  request.Set("filter", filter);
  request.Set("limit", limit);
  CHRONOS_ASSIGN_OR_RETURN(json::Json response, Call(request));
  CHRONOS_RETURN_IF_ERROR(StatusFromResponse(response));
  std::vector<json::Json> docs;
  for (const json::Json& doc : response.at("docs").as_array()) {
    docs.push_back(doc);
  }
  return docs;
}

StatusOr<int> WireClient::UpdateOne(const std::string& coll,
                                    const json::Json& filter,
                                    const json::Json& update) {
  json::Json request = json::Json::MakeObject();
  request.Set("op", "update_one");
  request.Set("coll", coll);
  request.Set("filter", filter);
  request.Set("update", update);
  CHRONOS_ASSIGN_OR_RETURN(json::Json response, Call(request));
  CHRONOS_RETURN_IF_ERROR(StatusFromResponse(response));
  return static_cast<int>(response.GetIntOr("n", 0));
}

StatusOr<int> WireClient::DeleteOne(const std::string& coll,
                                    const json::Json& filter) {
  json::Json request = json::Json::MakeObject();
  request.Set("op", "delete_one");
  request.Set("coll", coll);
  request.Set("filter", filter);
  CHRONOS_ASSIGN_OR_RETURN(json::Json response, Call(request));
  CHRONOS_RETURN_IF_ERROR(StatusFromResponse(response));
  return static_cast<int>(response.GetIntOr("n", 0));
}

StatusOr<uint64_t> WireClient::Count(const std::string& coll,
                                     const json::Json& filter) {
  json::Json request = json::Json::MakeObject();
  request.Set("op", "count");
  request.Set("coll", coll);
  request.Set("filter", filter);
  CHRONOS_ASSIGN_OR_RETURN(json::Json response, Call(request));
  CHRONOS_RETURN_IF_ERROR(StatusFromResponse(response));
  return static_cast<uint64_t>(response.GetIntOr("n", 0));
}

StatusOr<std::vector<json::Json>> WireClient::Scan(const std::string& coll,
                                                   const std::string& from,
                                                   uint64_t limit) {
  json::Json request = json::Json::MakeObject();
  request.Set("op", "scan");
  request.Set("coll", coll);
  request.Set("from", from);
  request.Set("limit", limit);
  CHRONOS_ASSIGN_OR_RETURN(json::Json response, Call(request));
  CHRONOS_RETURN_IF_ERROR(StatusFromResponse(response));
  std::vector<json::Json> docs;
  for (const json::Json& doc : response.at("docs").as_array()) {
    docs.push_back(doc);
  }
  return docs;
}

StatusOr<json::Json> WireClient::Stats() {
  json::Json request = json::Json::MakeObject();
  request.Set("op", "stats");
  CHRONOS_ASSIGN_OR_RETURN(json::Json response, Call(request));
  CHRONOS_RETURN_IF_ERROR(StatusFromResponse(response));
  return response.at("stats");
}

}  // namespace chronos::mokka
