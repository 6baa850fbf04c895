#ifndef CHRONOS_NET_CONNECTION_SERVER_H_
#define CHRONOS_NET_CONNECTION_SERVER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "net/tcp.h"
#include "obs/metrics_registry.h"

namespace chronos::net {

// Runs one connection to completion, with its own read timeout. Reads see
// EOF once Stop() shuts the read side. The server closes the connection
// after the session returns.
using Session = std::function<void(TcpConnection*)>;

// Health of the servers started under one name in this process: the
// `server` label of the chronos_net_* metrics.
struct ConnectionStats {
  int64_t live = 0;
  uint64_t shed = 0;
  uint64_t accept_errors = 0;
};

// The connection-serving core of the HTTP, MokkaDB wire and FTP servers:
// one accept thread, and one session thread per live connection. A session
// thread whose connection ends parks, and serves the next accepted
// connection, so there are never more session threads than the peak number
// of live connections. Stop() joins every thread. A failed accept is counted
// and retried after a backoff.
class ConnectionServer {
 public:
  // A connection accepted while this many are live is closed and counted
  // as shed.
  static constexpr size_t kMaxConnections = 256;

  ~ConnectionServer();

  ConnectionServer(const ConnectionServer&) = delete;
  ConnectionServer& operator=(const ConnectionServer&) = delete;

  // Listens on 127.0.0.1:port (0 = ephemeral) and runs `session` on a
  // session thread for each accepted connection. `name` labels the metrics.
  static StatusOr<std::unique_ptr<ConnectionServer>> Start(int port,
                                                          std::string name,
                                                          Session session);

  int port() const { return listener_->port(); }
  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(port());
  }

  static ConnectionStats StatsFor(const std::string& name);
  ConnectionStats stats() const { return StatsFor(name_); }

  // Closes the listener, joins the accept thread, shuts the read side of
  // every live connection (a blocked read returns EOF; a reply being
  // written still goes out) and joins every session thread. Idempotent.
  void Stop();

 private:
  struct Worker {
    // The connection handed to this parked worker by the accept thread.
    std::unique_ptr<TcpConnection> next;
    // The core's own dup of the live connection's socket (-1 while parked),
    // so Stop() never shuts down a reused fd number.
    int fd = -1;
    CondVar wake;
    std::thread thread;
  };

  ConnectionServer(std::unique_ptr<TcpListener> listener, std::string name,
                   Session session);

  void AcceptLoop();
  void Work(Worker* worker, std::unique_ptr<TcpConnection> conn);

  const std::unique_ptr<TcpListener> listener_;
  const std::string name_;
  const Session session_;
  obs::Gauge* const live_;
  obs::Counter* const shed_;
  obs::Counter* const accept_errors_;

  Mutex stop_mu_;  // Serializes Stop() callers.
  Mutex mu_;
  std::list<Worker> workers_ CHRONOS_GUARDED_BY(mu_);
  std::vector<Worker*> parked_ CHRONOS_GUARDED_BY(mu_);
  bool stopping_ CHRONOS_GUARDED_BY(mu_) = false;
  std::thread accept_thread_;
};

}  // namespace chronos::net

#endif  // CHRONOS_NET_CONNECTION_SERVER_H_
