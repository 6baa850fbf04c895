#ifndef CHRONOS_NET_TCP_H_
#define CHRONOS_NET_TCP_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/statusor.h"

namespace chronos::net {

// Owning wrapper around a connected TCP socket (POSIX fd).
class TcpConnection {
 public:
  explicit TcpConnection(int fd) : fd_(fd) {}
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Connects to host:port ("127.0.0.1" or a hostname).
  static StatusOr<std::unique_ptr<TcpConnection>> Connect(
      const std::string& host, int port, int timeout_ms = 5000);

  // Writes the whole buffer or fails.
  Status WriteAll(std::string_view data);

  // Reads up to `max_bytes`; returns empty string on orderly EOF.
  StatusOr<std::string> ReadSome(size_t max_bytes = 64 * 1024);

  // Reads exactly `n` bytes; fails on premature EOF.
  StatusOr<std::string> ReadExactly(size_t n);

  // Reads until (and including) the delimiter or EOF/limit.
  StatusOr<std::string> ReadLine(size_t max_len = 64 * 1024);

  // Sets SO_RCVTIMEO so reads fail with DeadlineExceeded instead of hanging.
  Status SetReadTimeoutMs(int timeout_ms);

  void Close();
  bool closed() const { return fd_ < 0; }
  int fd() const { return fd_; }

 private:
  int fd_;
  std::string buffer_;  // Read-ahead buffer for ReadLine/ReadExactly.
};

// Listening socket bound to 127.0.0.1. Port 0 picks a free port.
class TcpListener {
 public:
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  static StatusOr<std::unique_ptr<TcpListener>> Listen(int port);

  // Blocks until a client connects or the listener is closed (Unavailable).
  // With `timeout_ms` >= 0, fails with DeadlineExceeded if no client
  // connects within that many milliseconds.
  StatusOr<std::unique_ptr<TcpConnection>> Accept(int timeout_ms = -1);

  // Unblocks pending Accept calls.
  void Close();
  bool closed() const { return fd_ < 0; }

  int port() const { return port_; }

 private:
  TcpListener(int fd, int port) : fd_(fd), port_(port) {}

  // Atomic: Close() is called from a different thread than the one blocked
  // in Accept(), precisely to unblock it.
  std::atomic<int> fd_;
  int port_;
};

}  // namespace chronos::net

#endif  // CHRONOS_NET_TCP_H_
