#include "net/tcp.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "fault/failpoint.h"

namespace chronos::net {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

}  // namespace

TcpConnection::~TcpConnection() { Close(); }

void TcpConnection::Close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<std::unique_ptr<TcpConnection>> TcpConnection::Connect(
    const std::string& host, int port, int timeout_ms) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* result = nullptr;
  std::string port_str = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &result);
  if (rc != 0) {
    return Status::Unavailable("resolve " + host + ": " + gai_strerror(rc));
  }

  int fd = -1;
  Status last_error = Status::Unavailable("no addresses for " + host);
  for (struct addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = Errno("socket");
      continue;
    }
    // Non-blocking connect with poll-based timeout.
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (rc != 0 && errno == EINPROGRESS) {
      struct pollfd pfd = {fd, POLLOUT, 0};
      rc = ::poll(&pfd, 1, timeout_ms);
      if (rc == 1) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        rc = err == 0 ? 0 : -1;
        errno = err;
      } else {
        rc = -1;
        errno = ETIMEDOUT;
      }
    }
    if (rc == 0) {
      ::fcntl(fd, F_SETFL, flags);  // Back to blocking mode.
      break;
    }
    last_error = Errno("connect " + host + ":" + port_str);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) return last_error;

  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<TcpConnection>(fd);
}

Status TcpConnection::WriteAll(std::string_view data) {
  fault::Action fault = fault::FailPointRegistry::Get()->Evaluate(
      "net.tcp.write");
  if (fault.kind != fault::Action::Kind::kNone) {
    if (fault.kind == fault::Action::Kind::kClose) Close();
    return fault.status;
  }
  if (fd_ < 0) return Status::FailedPrecondition("socket closed");
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::send(fd_, data.data() + written, data.size() - written,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

StatusOr<std::string> TcpConnection::ReadSome(size_t max_bytes) {
  // Before the userspace buffer too: a dropped connection loses buffered
  // bytes just as surely as unread socket ones.
  fault::Action fault = fault::FailPointRegistry::Get()->Evaluate(
      "net.tcp.read");
  if (fault.kind != fault::Action::Kind::kNone) {
    if (fault.kind == fault::Action::Kind::kClose) Close();
    return fault.status;
  }
  if (!buffer_.empty()) {
    std::string out = std::move(buffer_);
    buffer_.clear();
    if (out.size() > max_bytes) {
      buffer_ = out.substr(max_bytes);
      out.resize(max_bytes);
    }
    return out;
  }
  if (fd_ < 0) return Status::FailedPrecondition("socket closed");
  std::string out;
  out.resize(max_bytes);
  while (true) {
    ssize_t n = ::recv(fd_, out.data(), max_bytes, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("read timeout");
      }
      return Errno("recv");
    }
    out.resize(static_cast<size_t>(n));
    return out;
  }
}

StatusOr<std::string> TcpConnection::ReadExactly(size_t n) {
  std::string out;
  out.reserve(n);
  if (!buffer_.empty()) {
    size_t take = std::min(n, buffer_.size());
    out.append(buffer_, 0, take);
    buffer_.erase(0, take);
  }
  while (out.size() < n) {
    CHRONOS_ASSIGN_OR_RETURN(std::string chunk, ReadSome(n - out.size()));
    if (chunk.empty()) {
      return Status::IoError("connection closed mid-read");
    }
    out += chunk;
  }
  return out;
}

StatusOr<std::string> TcpConnection::ReadLine(size_t max_len) {
  std::string line;
  while (true) {
    size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line += buffer_.substr(0, newline + 1);
      buffer_.erase(0, newline + 1);
      return line;
    }
    line += buffer_;
    buffer_.clear();
    if (line.size() > max_len) {
      return Status::InvalidArgument("line too long");
    }
    CHRONOS_ASSIGN_OR_RETURN(std::string chunk, ReadSome());
    if (chunk.empty()) {
      return line;  // EOF: return whatever was accumulated (maybe empty).
    }
    buffer_ = std::move(chunk);
  }
}

Status TcpConnection::SetReadTimeoutMs(int timeout_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("socket closed");
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(SO_RCVTIMEO)");
  }
  return Status::Ok();
}

TcpListener::~TcpListener() { Close(); }

StatusOr<std::unique_ptr<TcpListener>> TcpListener::Listen(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status st = Errno("bind port " + std::to_string(port));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 128) != 0) {
    Status st = Errno("listen");
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len);
  int bound_port = ntohs(addr.sin_port);
  return std::unique_ptr<TcpListener>(new TcpListener(fd, bound_port));
}

StatusOr<std::unique_ptr<TcpConnection>> TcpListener::Accept(
    int timeout_ms) {
  while (true) {
    int fd = fd_;
    if (fd < 0) return Status::Unavailable("listener closed");
    if (timeout_ms >= 0) {
      struct pollfd pfd = {fd, POLLIN, 0};
      int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0 && errno == EINTR) continue;
      if (ready == 0) return Status::DeadlineExceeded("accept timeout");
    }
    int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      if (fd_ < 0) return Status::Unavailable("listener closed");
      return Errno("accept");
    }
    fault::Action fault = fault::FailPointRegistry::Get()->Evaluate(
        "net.tcp.accept");
    if (fault.kind == fault::Action::Kind::kClose) {
      // Drop the accepted client silently and keep listening — the shape of
      // a connection reset between SYN and the server thread picking it up.
      ::close(client);
      continue;
    }
    if (fault.kind == fault::Action::Kind::kError) {
      ::close(client);
      return fault.status;
    }
    int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return std::make_unique<TcpConnection>(client);
  }
}

void TcpListener::Close() {
  // exchange() makes concurrent Close calls close the fd exactly once.
  int fd = fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace chronos::net
