#ifndef CHRONOS_NET_FTP_H_
#define CHRONOS_NET_FTP_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "net/connection_server.h"
#include "net/tcp.h"

namespace chronos::net {

// Minimal RFC 959 subset: USER/PASS authentication, passive mode (PASV),
// STOR (upload), RETR (download), LIST, DELE, QUIT. This is the "different
// server or NAS for storing the results" upload path from the paper; result
// bundles can be shipped here instead of to Chronos Control over HTTP.

// In-memory FTP server for result storage, one thread per control
// connection (see ConnectionServer). Metrics carry the label server="ftp".
class FtpServer {
 public:
  FtpServer(const FtpServer&) = delete;
  FtpServer& operator=(const FtpServer&) = delete;

  // Starts on 127.0.0.1:port (0 = ephemeral). Accepts only the given
  // credentials.
  static StatusOr<std::unique_ptr<FtpServer>> Start(int port,
                                                    std::string username,
                                                    std::string password);

  int port() const { return server_->port(); }

  // Files stored so far (name -> contents).
  std::map<std::string, std::string> Files() const;
  StatusOr<std::string> GetFile(const std::string& name) const;
  size_t file_count() const;

  void Stop() { server_->Stop(); }

 private:
  FtpServer(std::string username, std::string password);

  void ServeControl(TcpConnection* conn);

  std::string username_;
  std::string password_;

  mutable Mutex mu_;
  std::map<std::string, std::string> files_ CHRONOS_GUARDED_BY(mu_);
  // Last, so it is destroyed (stopped, sessions joined) first.
  std::unique_ptr<ConnectionServer> server_;
};

// Blocking FTP client (passive mode only).
class FtpClient {
 public:
  ~FtpClient();

  FtpClient(const FtpClient&) = delete;
  FtpClient& operator=(const FtpClient&) = delete;

  // Connects and logs in.
  static StatusOr<std::unique_ptr<FtpClient>> Connect(
      const std::string& host, int port, const std::string& username,
      const std::string& password);

  Status Store(const std::string& name, std::string_view contents);
  StatusOr<std::string> Retrieve(const std::string& name);
  StatusOr<std::vector<std::string>> List();
  Status Delete(const std::string& name);
  Status Quit();

 private:
  explicit FtpClient(std::unique_ptr<TcpConnection> control)
      : control_(std::move(control)) {}

  // Reads one reply line "NNN text"; returns the 3-digit code.
  StatusOr<int> ReadReply(std::string* text = nullptr);
  Status SendCommand(const std::string& command);
  // Issues PASV and opens the data connection it advertises.
  StatusOr<std::unique_ptr<TcpConnection>> OpenDataConnection();

  std::unique_ptr<TcpConnection> control_;
};

}  // namespace chronos::net

#endif  // CHRONOS_NET_FTP_H_
