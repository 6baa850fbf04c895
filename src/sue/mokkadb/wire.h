#ifndef CHRONOS_SUE_MOKKADB_WIRE_H_
#define CHRONOS_SUE_MOKKADB_WIRE_H_

#include <memory>
#include <string>
#include <vector>

#include "net/connection_server.h"
#include "net/tcp.h"
#include "sue/mokkadb/database.h"

namespace chronos::mokka {

// Newline-delimited JSON wire protocol, one request/response pair per line:
//
//   -> {"op":"insert","coll":"usertable","doc":{...}}
//   <- {"ok":true,"id":"..."}
//   -> {"op":"find","coll":"usertable","filter":{...},"limit":10}
//   <- {"ok":true,"docs":[...]}
//
// Ops: ping, create_collection (engine), drop, insert, get (id), find,
// find_one, update_one, update_many, delete_one, count, scan (from, limit),
// stats, list_collections.
//
// This stands in for the MongoDB wire protocol: each Chronos *deployment* of
// MokkaDB is one listening server, so evaluation clients exercise a real
// network round trip per operation.

// Handles one request object against a database (also used in-process by
// tests).
json::Json HandleWireRequest(Database* db, const json::Json& request);

// Serves `db` (not owned; must outlive the server) on 127.0.0.1:port
// (0 = ephemeral), one thread per client connection (see
// net::ConnectionServer). An idle connection is closed after 60 s: a
// benchmark's admin connection sits idle through its load and run phases.
// Metrics carry the label server="mokka".
StatusOr<std::unique_ptr<net::ConnectionServer>> StartWireServer(
    Database* db, int port);

// Blocking client over one persistent connection. Not thread-safe; each
// benchmark thread owns its own client (as a MongoDB driver connection).
class WireClient {
 public:
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  static StatusOr<std::unique_ptr<WireClient>> Connect(
      const std::string& host, int port);
  // "host:port" form.
  static StatusOr<std::unique_ptr<WireClient>> ConnectEndpoint(
      const std::string& endpoint);

  Status Ping();
  Status CreateCollection(const std::string& coll, const std::string& engine,
                          const json::Json& engine_options = json::Json());
  Status Drop(const std::string& coll);
  StatusOr<std::string> Insert(const std::string& coll, json::Json doc);
  StatusOr<json::Json> Get(const std::string& coll, const std::string& id);
  StatusOr<std::vector<json::Json>> Find(const std::string& coll,
                                         const json::Json& filter,
                                         uint64_t limit = 0);
  StatusOr<int> UpdateOne(const std::string& coll, const json::Json& filter,
                          const json::Json& update);
  StatusOr<int> DeleteOne(const std::string& coll, const json::Json& filter);
  StatusOr<uint64_t> Count(const std::string& coll, const json::Json& filter);
  StatusOr<std::vector<json::Json>> Scan(const std::string& coll,
                                         const std::string& from,
                                         uint64_t limit);
  StatusOr<json::Json> Stats();

  // Raw round trip (exposed for tests / custom ops).
  StatusOr<json::Json> Call(const json::Json& request);

 private:
  explicit WireClient(std::unique_ptr<net::TcpConnection> conn)
      : conn_(std::move(conn)) {}

  std::unique_ptr<net::TcpConnection> conn_;
};

}  // namespace chronos::mokka

#endif  // CHRONOS_SUE_MOKKADB_WIRE_H_
