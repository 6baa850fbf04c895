#include "net/connection_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/retry.h"
#include "obs/metrics_registry.h"

namespace chronos::net {

namespace {

constexpr char kLiveMetric[] = "chronos_net_connections";
constexpr char kShedMetric[] = "chronos_net_connections_shed_total";
constexpr char kAcceptErrorMetric[] = "chronos_net_accept_errors_total";

// A lasting EMFILE must not spin the accept loop; the cap also bounds how
// long Stop() waits for the accept thread.
const RetryPolicy kAcceptBackoff{.initial_backoff_ms = 10,
                                 .max_backoff_ms = 250};

}  // namespace

ConnectionServer::ConnectionServer(std::unique_ptr<TcpListener> listener,
                                   std::string name, Session session)
    : listener_(std::move(listener)),
      name_(std::move(name)),
      session_(std::move(session)),
      live_(obs::MetricsRegistry::Get()->GetGauge(
          kLiveMetric, "Live connections", {{"server", name_}})),
      shed_(obs::MetricsRegistry::Get()->GetCounter(
          kShedMetric, "Connections closed at accept: server at its cap",
          {{"server", name_}})),
      accept_errors_(obs::MetricsRegistry::Get()->GetCounter(
          kAcceptErrorMetric, "Failed accepts (accepting goes on)",
          {{"server", name_}})) {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

ConnectionServer::~ConnectionServer() { Stop(); }

StatusOr<std::unique_ptr<ConnectionServer>> ConnectionServer::Start(
    int port, std::string name, Session session) {
  CHRONOS_ASSIGN_OR_RETURN(std::unique_ptr<TcpListener> listener,
                           TcpListener::Listen(port));
  return std::unique_ptr<ConnectionServer>(new ConnectionServer(
      std::move(listener), std::move(name), std::move(session)));
}

ConnectionStats ConnectionServer::StatsFor(const std::string& name) {
  obs::MetricsRegistry* registry = obs::MetricsRegistry::Get();
  obs::Labels labels = {{"server", name}};
  return ConnectionStats{
      registry->GetGauge(kLiveMetric, "", labels)->value(),
      registry->GetCounter(kShedMetric, "", labels)->value(),
      registry->GetCounter(kAcceptErrorMetric, "", labels)->value()};
}

void ConnectionServer::Stop() {
  MutexLock stop_lock(stop_mu_);
  listener_->Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::list<Worker> workers;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    for (Worker& worker : workers_) {
      if (worker.fd >= 0) ::shutdown(worker.fd, SHUT_RD);
      worker.wake.NotifyOne();
    }
    parked_.clear();
    // Splicing keeps the nodes, which the workers still use, in place.
    workers.splice(workers.end(), workers_);
  }
  for (Worker& worker : workers) worker.thread.join();
}

void ConnectionServer::AcceptLoop() {
  Backoff backoff(kAcceptBackoff);
  while (true) {
    StatusOr<std::unique_ptr<TcpConnection>> conn = listener_->Accept();
    if (!conn.ok()) {
      if (listener_->closed()) return;
      accept_errors_->Increment();
      CHRONOS_LOG(kWarning, "net")
          << name_ << ": accept failed: " << conn.status().ToString();
      backoff.SleepNext();
      continue;
    }
    backoff.Reset();
    MutexLock lock(mu_);
    if (workers_.size() - parked_.size() >= kMaxConnections) {
      shed_->Increment();
      continue;  // `conn` closes as it goes out of scope.
    }
    int fd = ::dup((*conn)->fd());
    if (fd < 0) {
      accept_errors_->Increment();
      continue;
    }
    live_->Add(1);
    if (!parked_.empty()) {
      Worker* worker = parked_.back();
      parked_.pop_back();
      worker->fd = fd;
      worker->next = std::move(conn).value();
      worker->wake.NotifyOne();
      continue;
    }
    Worker& worker = workers_.emplace_back();
    worker.fd = fd;
    worker.thread = std::thread(
        [this, &worker, owned = std::move(conn).value()]() mutable {
          Work(&worker, std::move(owned));
        });
  }
}

// A thread per connection, created and joined each time, cost Control about
// a third more CPU per job on the dispatch benchmark than a pool did: every
// new thread faults in its stack and malloc cache again. So a worker parks
// between connections instead of exiting.
void ConnectionServer::Work(Worker* worker,
                            std::unique_ptr<TcpConnection> conn) {
  while (conn != nullptr) {
    session_(conn.get());
    conn.reset();  // Shuts the socket down; the peer sees the end at once.
    MutexLock lock(mu_);
    ::close(worker->fd);
    worker->fd = -1;
    live_->Add(-1);
    if (stopping_) return;
    parked_.push_back(worker);
    while (worker->next == nullptr && !stopping_) worker->wake.Wait(mu_);
    conn = std::move(worker->next);
  }
}

}  // namespace chronos::net
